"""Degeneracy and peeling orders, cross-checked against networkx cores."""

from __future__ import annotations

import random

import networkx as nx
from hypothesis import given
from hypothesis import strategies as st

from repro.graphs import (
    Graph,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    degeneracy,
    degeneracy_ordering,
    path_graph,
    random_graph,
    random_k_degenerate,
)


def random_graph_strategy():
    return st.builds(
        lambda n, seed, p: random_graph(n, p, random.Random(seed)),
        st.integers(min_value=1, max_value=25),
        st.integers(min_value=0, max_value=10**6),
        st.floats(min_value=0.0, max_value=0.8),
    )


class TestKnownValues:
    def test_empty(self):
        assert degeneracy(Graph(0)) == 0
        assert degeneracy(Graph(5)) == 0

    def test_tree(self):
        assert degeneracy(path_graph(10)) == 1

    def test_cycle(self):
        assert degeneracy(cycle_graph(9)) == 2

    def test_clique(self):
        assert degeneracy(complete_graph(7)) == 6

    def test_complete_bipartite(self):
        assert degeneracy(complete_bipartite(3, 8)) == 3

    def test_generator_respects_bound(self):
        rng = random.Random(5)
        for k in (1, 2, 4):
            g = random_k_degenerate(30, k, rng)
            assert degeneracy(g) <= k


class TestOrderingCertificate:
    @given(random_graph_strategy())
    def test_back_degree_bounded(self, g):
        k, order = degeneracy_ordering(g)
        position = {v: i for i, v in enumerate(order)}
        for v in g.vertices():
            later = sum(1 for u in g.neighbors(v) if position[u] > position[v])
            assert later <= k

    @given(random_graph_strategy())
    def test_order_is_permutation(self, g):
        _, order = degeneracy_ordering(g)
        assert sorted(order) == list(g.vertices())


class TestAgainstNetworkx:
    @given(random_graph_strategy())
    def test_matches_core_number(self, g):
        oracle = nx.Graph()
        oracle.add_nodes_from(g.vertices())
        oracle.add_edges_from(g.edges())
        expected = max(nx.core_number(oracle).values(), default=0)
        assert degeneracy(g) == expected
