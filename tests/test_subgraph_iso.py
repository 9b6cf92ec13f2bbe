"""Subgraph containment search, cross-checked against networkx's
ISMAGS/GraphMatcher monomorphism oracle."""

from __future__ import annotations

import random

import networkx as nx
from hypothesis import given
from hypothesis import strategies as st

from repro.graphs import (
    Graph,
    complete_bipartite,
    complete_graph,
    contains_subgraph,
    count_copies,
    cycle_graph,
    enumerate_copies,
    find_embedding,
    path_graph,
    random_graph,
    star_graph,
)


def to_nx(graph: Graph) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(graph.vertices())
    g.add_edges_from(graph.edges())
    return g


def nx_contains(host: Graph, pattern: Graph) -> bool:
    matcher = nx.algorithms.isomorphism.GraphMatcher(to_nx(host), to_nx(pattern))
    return matcher.subgraph_is_monomorphic()


host_strategy = st.builds(
    lambda n, seed, p: random_graph(n, p, random.Random(seed)),
    st.integers(min_value=1, max_value=14),
    st.integers(min_value=0, max_value=10**6),
    st.floats(min_value=0.1, max_value=0.8),
)

patterns = [
    ("triangle", cycle_graph(3)),
    ("C4", cycle_graph(4)),
    ("C5", cycle_graph(5)),
    ("K4", complete_graph(4)),
    ("P4", path_graph(4)),
    ("K13", star_graph(3)),
    ("K22", complete_bipartite(2, 2)),
]


class TestKnownCases:
    def test_cycle_in_clique(self):
        assert contains_subgraph(complete_graph(5), cycle_graph(5))

    def test_no_c4_in_c5(self):
        assert not contains_subgraph(cycle_graph(5), cycle_graph(4))

    def test_c4_in_k23(self):
        assert contains_subgraph(complete_bipartite(2, 3), cycle_graph(4))

    def test_embedding_is_valid(self):
        host = complete_bipartite(3, 3)
        pattern = cycle_graph(6)
        embedding = find_embedding(host, pattern)
        assert embedding is not None
        for u, v in pattern.edges():
            assert host.has_edge(embedding[u], embedding[v])
        assert len(set(embedding.values())) == pattern.n

    def test_empty_pattern(self):
        assert contains_subgraph(Graph(3), Graph(0))

    def test_pattern_larger_than_host(self):
        assert not contains_subgraph(Graph(2), cycle_graph(3))

    def test_count_triangles_in_k4(self):
        assert count_copies(complete_graph(4), cycle_graph(3)) == 4

    def test_count_c4_in_k23(self):
        assert count_copies(complete_bipartite(2, 3), cycle_graph(4)) == 3

    def test_enumerate_copy_edges_exist(self):
        host = complete_graph(5)
        for copy in enumerate_copies(host, cycle_graph(4), limit=10):
            for u, v in copy:
                assert host.has_edge(u, v)

    def test_disconnected_pattern(self):
        pattern = Graph.from_edges(4, [(0, 1), (2, 3)])  # two disjoint edges
        host = path_graph(5)
        assert contains_subgraph(host, pattern)
        assert not contains_subgraph(path_graph(3), pattern)


class TestAgainstNetworkx:
    @given(host_strategy, st.sampled_from(patterns))
    def test_containment_matches(self, host, named_pattern):
        _name, pattern = named_pattern
        assert contains_subgraph(host, pattern) == nx_contains(host, pattern)
