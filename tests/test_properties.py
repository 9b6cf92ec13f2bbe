"""Structural predicates on pattern graphs (repro.graphs.properties)."""

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
    matching_graph,
    path_graph,
    random_graph,
    star_graph,
)
from repro.graphs.properties import (
    bipartition,
    connected_components,
    cycle_length,
    is_bipartite,
    is_clique,
    is_forest,
)


class TestComponents:
    def test_single_component(self):
        assert connected_components(path_graph(4)) == [[0, 1, 2, 3]]

    def test_multiple_components(self):
        g = Graph(5)
        g.add_edge(0, 1)
        g.add_edge(2, 3)
        assert connected_components(g) == [[0, 1], [2, 3], [4]]

    @given(
        st.builds(
            lambda n, s, p: random_graph(n, p, random.Random(s)),
            st.integers(1, 14),
            st.integers(0, 10**6),
            st.floats(0.0, 0.6),
        )
    )
    def test_matches_networkx(self, g):
        oracle = nx.Graph()
        oracle.add_nodes_from(g.vertices())
        oracle.add_edges_from(g.edges())
        expected = sorted(sorted(c) for c in nx.connected_components(oracle))
        assert connected_components(g) == expected


class TestPredicates:
    def test_is_clique(self):
        assert is_clique(complete_graph(5))
        assert not is_clique(cycle_graph(5))
        assert is_clique(complete_graph(1))

    def test_is_forest(self):
        assert is_forest(path_graph(6))
        assert is_forest(star_graph(4))
        assert is_forest(matching_graph(3))
        assert not is_forest(cycle_graph(4))

    def test_cycle_length(self):
        assert cycle_length(cycle_graph(5)) == 5
        assert cycle_length(path_graph(5)) is None
        assert cycle_length(complete_graph(4)) is None
        # a cycle plus isolated vertices still classifies
        g = Graph(8)
        for v in range(5):
            g.add_edge(v, (v + 1) % 5)
        assert cycle_length(g) == 5
        # two disjoint cycles do not
        g2 = Graph.disjoint_union(cycle_graph(3), cycle_graph(3))
        assert cycle_length(g2) is None

    def test_bipartition(self):
        sides = bipartition(complete_bipartite(3, 4))
        assert sides is not None
        a, b = sides
        assert {len(a), len(b)} == {3, 4}
        assert bipartition(cycle_graph(5)) is None
        assert is_bipartite(cycle_graph(6))
