"""Triangle detection: the centralised reference, the DLP baseline, and
the full Section 2.1 matmul pipeline."""

from __future__ import annotations

import random

import pytest

from repro.graphs import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    empty_graph,
    plant_subgraph,
    random_graph,
)
from repro.matmul import (
    detect_triangle_dlp,
    detect_triangle_mm,
    find_triangle,
    has_triangle,
    triangle_count,
)


class TestReference:
    def test_triangle_count_known(self):
        assert triangle_count(complete_graph(5)) == 10
        assert triangle_count(complete_bipartite(4, 4)) == 0
        assert triangle_count(cycle_graph(3)) == 1

    def test_find_triangle(self):
        tri = find_triangle(complete_graph(4))
        assert tri is not None and len(set(tri)) == 3
        assert find_triangle(complete_bipartite(3, 3)) is None


class TestDLP:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_truth(self, seed):
        rng = random.Random(seed)
        g = random_graph(21, 0.18, rng)
        outcome, _ = detect_triangle_dlp(g, bandwidth=16)
        assert outcome.found == has_triangle(g)

    def test_witness_is_triangle(self):
        rng = random.Random(4)
        g = random_graph(20, 0.3, rng)
        outcome, _ = detect_triangle_dlp(g, bandwidth=16)
        if outcome.witness:
            a, b, c = outcome.witness
            assert g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(a, c)

    def test_empty_and_complete(self):
        assert not detect_triangle_dlp(empty_graph(12), bandwidth=8)[0].found
        assert detect_triangle_dlp(complete_graph(12), bandwidth=8)[0].found

    def test_triangle_free_dense(self):
        g = complete_bipartite(8, 8)
        outcome, _ = detect_triangle_dlp(g, bandwidth=16)
        assert not outcome.found

    def test_single_planted_triangle(self):
        """Exhaustive coverage: one triangle hidden anywhere is found."""
        rng = random.Random(6)
        g = empty_graph(18)
        plant_subgraph(g, cycle_graph(3), rng, vertices=[2, 9, 16])
        outcome, _ = detect_triangle_dlp(g, bandwidth=8)
        assert outcome.found
        assert tuple(sorted(outcome.witness)) == (2, 9, 16)

    def test_triangle_within_one_group(self):
        g = empty_graph(27)
        # group size = 27/3 = 9: vertices 0,1,2 share group 0.
        plant_subgraph(g, cycle_graph(3), random.Random(0), vertices=[0, 1, 2])
        outcome, _ = detect_triangle_dlp(g, bandwidth=8, group_count=3)
        assert outcome.found

    def test_group_count_override(self):
        g = complete_graph(16)
        for groups in (1, 2, 4):
            outcome, _ = detect_triangle_dlp(g, bandwidth=8, group_count=groups)
            assert outcome.found

    def test_rounds_scale_sublinearly(self):
        """Õ(n^{1/3})·(1/b) traffic: doubling n should not double rounds
        at fixed bandwidth (sublinear growth)."""
        rounds = {}
        for n in (16, 64):
            g = complete_bipartite(n // 2, n // 2)  # dense, triangle-free
            _, result = detect_triangle_dlp(g, bandwidth=32)
            rounds[n] = result.rounds
        assert rounds[64] < 4 * max(1, rounds[16])


class TestMatmulPipeline:
    @pytest.mark.parametrize("kind", ["naive", "strassen"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_truth(self, kind, seed):
        rng = random.Random(seed)
        g = random_graph(8, 0.3, rng)
        truth = has_triangle(g)
        outcome, result, plan = detect_triangle_mm(
            g, trials=8, circuit_kind=kind, seed=seed
        )
        assert outcome.found == truth  # 8 trials: 2^-8 miss probability
        if outcome.witness:
            u, v = outcome.witness
            assert g.has_edge(u, v)

    def test_no_false_positive_on_triangle_free(self):
        g = complete_bipartite(4, 4)
        outcome, _, _ = detect_triangle_mm(g, trials=6, circuit_kind="naive")
        assert not outcome.found

    def test_empty_graph(self):
        outcome, _, _ = detect_triangle_mm(
            empty_graph(6), trials=4, circuit_kind="naive"
        )
        assert not outcome.found

    def test_rounds_scale_with_trials(self):
        g = complete_graph(6)
        _, r2, _ = detect_triangle_mm(g, trials=2, circuit_kind="naive")
        _, r4, _ = detect_triangle_mm(g, trials=4, circuit_kind="naive")
        assert r4.rounds > r2.rounds

    def test_plan_reuse_across_graphs(self):
        from repro.simulation import build_plan
        from repro.circuits.arithmetic import matmul_circuit_naive
        from repro.matmul.distributed import matmul_input_partition

        size = 6
        plan = build_plan(
            matmul_circuit_naive(size), size, matmul_input_partition(size)
        )
        for seed in (0, 1):
            g = random_graph(size, 0.4, random.Random(seed))
            outcome, _, _ = detect_triangle_mm(g, trials=6, plan=plan, seed=seed)
            assert outcome.found == has_triangle(g)
