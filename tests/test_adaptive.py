"""Theorem 9 (adaptive detection) and Lemma 8 (sampled degeneracy)."""

from __future__ import annotations

import random

import pytest

from repro.graphs import (
    complete_graph,
    contains_subgraph,
    cycle_graph,
    degeneracy,
    plant_subgraph,
    random_graph,
    random_k_degenerate,
)
from repro.subgraphs.adaptive import (
    adaptive_detect,
    sample_subgraph_edges,
    sampled_degeneracy_profile,
)


class TestSampling:
    def test_level_zero_is_full_graph(self):
        g = random_graph(20, 0.3, random.Random(0))
        labels = [random.Random(1).randrange(16) for _ in range(20)]
        assert sample_subgraph_edges(g, labels, 0).edge_set() == g.edge_set()

    def test_levels_are_nested(self):
        rng = random.Random(2)
        g = random_graph(24, 0.4, rng)
        labels = [rng.randrange(16) for _ in range(24)]
        previous = g.edge_set()
        for level in range(5):
            current = sample_subgraph_edges(g, labels, level).edge_set()
            assert current <= previous
            previous = current

    def test_membership_rule(self):
        g = random_graph(16, 0.5, random.Random(3))
        labels = [random.Random(4).randrange(8) for _ in range(16)]
        sampled = sample_subgraph_edges(g, labels, 2)
        for u, v in g.edges():
            expected = (labels[u] - labels[v]) % 4 == 0
            assert sampled.has_edge(u, v) == expected

    def test_lemma8_concentration_trend(self):
        """Degeneracy of G_j decays roughly geometrically in j (Lemma 8:
        K_j ≈ k·2^{-j} while k·2^{-j} >> log n)."""
        rng = random.Random(5)
        g = random_graph(64, 0.5, rng)
        labels = [rng.randrange(64) for _ in range(64)]
        profile = dict(sampled_degeneracy_profile(g, labels))
        k0 = profile[0]
        assert k0 == degeneracy(g)
        # After two levels the degeneracy must have dropped noticeably
        # (expected factor 4; we assert a loose factor 2).
        assert profile[2] <= k0 / 2 + 8


class TestAdaptiveDetection:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_no_false_positives(self, seed):
        """A found witness is checked against the true graph: positives
        are always sound (G_j ⊆ G)."""
        rng = random.Random(seed)
        g = random_k_degenerate(20, 2, rng)
        pattern = cycle_graph(4)
        outcome, _ = adaptive_detect(g, pattern, bandwidth=8, seed=seed)
        if outcome.contains:
            assert contains_subgraph(g, pattern)
            for u, v in outcome.witness:
                assert g.has_edge(u, v)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sparse_exact(self, seed):
        """On sparse graphs the loop reaches G_0 quickly and the answer
        is exact."""
        rng = random.Random(10 + seed)
        g = random_k_degenerate(20, 2, rng)
        pattern = cycle_graph(4)
        outcome, _ = adaptive_detect(g, pattern, bandwidth=8, seed=seed)
        assert outcome.contains == contains_subgraph(g, pattern)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_planted_pattern_found_whp(self, seed):
        rng = random.Random(20 + seed)
        g = random_k_degenerate(24, 2, rng)
        plant_subgraph(g, cycle_graph(4), rng)
        outcome, _ = adaptive_detect(g, cycle_graph(4), bandwidth=8, seed=seed)
        assert outcome.contains

    def test_dense_graph_terminates_with_sampling(self):
        """On a dense graph the first success should come from a sampled
        level or a large k — either way the answer must be correct here."""
        rng = random.Random(33)
        g = random_graph(24, 0.6, rng)
        pattern = cycle_graph(4)
        outcome, result = adaptive_detect(g, pattern, bandwidth=16, seed=1)
        assert outcome.contains  # dense graphs are full of C4s
        assert result.rounds > 0

    def test_k4_on_clique(self):
        """Dense input, dense pattern: the sound variant is exact (the
        doubling search reaches level 0)."""
        g = complete_graph(12)
        outcome, _ = adaptive_detect(g, complete_graph(4), bandwidth=16, seed=0)
        assert outcome.contains

    def test_literal_pseudocode_is_unsound_here(self):
        """The as-printed pseudocode (negatives accepted from any
        successful sampling level) mis-answers K4-in-K12: the first
        decodable level is an over-sparse sample that lost every K4.
        This documents README "Departures from the paper" #7."""
        g = complete_graph(12)
        outcome, _ = adaptive_detect(
            g,
            complete_graph(4),
            bandwidth=16,
            seed=0,
            accept_sampled_negatives=True,
        )
        assert not outcome.contains          # wrong answer...
        assert outcome.level_used > 0        # ...from a sampled level

    def test_outcome_metadata(self):
        rng = random.Random(7)
        g = random_k_degenerate(16, 1, rng)
        outcome, _ = adaptive_detect(g, cycle_graph(4), bandwidth=8, seed=0)
        assert outcome.k_used >= 1
        assert outcome.level_used >= 0
