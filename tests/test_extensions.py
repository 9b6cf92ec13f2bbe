"""Extension features: triangle counting (DLP)."""

from __future__ import annotations

import random

import pytest

from repro.graphs import complete_graph, empty_graph, random_graph
from repro.matmul import triangle_count
from repro.matmul.triangles_dlp import count_triangles_dlp


class TestTriangleCounting:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_trace_count(self, seed):
        rng = random.Random(seed)
        graph = random_graph(16, 0.3, rng)
        got, _ = count_triangles_dlp(graph, bandwidth=16)
        assert got == triangle_count(graph)

    def test_complete_graph(self):
        graph = complete_graph(10)
        got, _ = count_triangles_dlp(graph, bandwidth=16)
        assert got == 10 * 9 * 8 // 6

    def test_empty_graph(self):
        got, _ = count_triangles_dlp(empty_graph(9), bandwidth=8)
        assert got == 0

    @pytest.mark.parametrize("groups", [1, 2, 3, 5])
    def test_group_count_invariance(self, groups):
        """The count must not depend on the partition granularity."""
        rng = random.Random(7)
        graph = random_graph(15, 0.35, rng)
        expected = triangle_count(graph)
        got, _ = count_triangles_dlp(graph, bandwidth=16, group_count=groups)
        assert got == expected

    def test_dense_within_one_group(self):
        graph = empty_graph(12)
        for u in range(4):
            for v in range(u + 1, 4):
                graph.add_edge(u, v)  # K4 inside group 0
        got, _ = count_triangles_dlp(graph, bandwidth=8, group_count=3)
        assert got == 4

