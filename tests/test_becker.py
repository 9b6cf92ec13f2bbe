"""Algorithm A (Becker et al. [2] as syndrome sketches): one broadcast,
full reconstruction iff degeneracy <= k."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.network import Mode, Network, run_protocol
from repro.core.phases import phase_length
from repro.graphs import (
    Graph,
    complete_graph,
    degeneracy,
    path_graph,
    random_graph,
    random_k_degenerate,
)
from repro.subgraphs import becker
from repro.subgraphs.becker import (
    algorithm_a,
    encode_neighborhood,
    message_bits,
    reconstruct,
)


class TestOffline:
    @pytest.mark.parametrize("seed", range(5))
    def test_reconstruct_at_exact_degeneracy(self, seed):
        rng = random.Random(seed)
        g = random_k_degenerate(30, 3, rng)
        k = max(1, degeneracy(g))
        rec = reconstruct(g, k)
        assert rec is not None
        assert rec.edge_set() == g.edge_set()

    @pytest.mark.parametrize("seed", range(5))
    def test_reconstruct_fails_below_degeneracy(self, seed):
        """Peeling completing would certify degeneracy <= k, so with
        k < degeneracy it must fail."""
        rng = random.Random(100 + seed)
        g = random_graph(20, 0.4, rng)
        k = degeneracy(g)
        if k >= 2:
            assert reconstruct(g, k - 1) is None

    def test_empty_graph(self):
        g = Graph(5)
        rec = reconstruct(g, 1)
        assert rec is not None and rec.m == 0

    def test_path_with_k1(self):
        g = path_graph(12)
        rec = reconstruct(g, 1)
        assert rec is not None and rec.edge_set() == g.edge_set()

    def test_clique_needs_full_k(self):
        g = complete_graph(8)  # degeneracy 7
        assert reconstruct(g, 7) is not None
        assert reconstruct(g, 6) is None

    @given(
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=20)
    def test_roundtrip_property(self, seed, k):
        rng = random.Random(seed)
        g = random_k_degenerate(rng.randint(2, 25), k, rng)
        true_k = max(1, degeneracy(g))
        rec = reconstruct(g, true_k)
        assert rec is not None and rec.edge_set() == g.edge_set()

    def test_each_call_builds_its_own_graph(self):
        g = random_k_degenerate(12, 2, random.Random(7))
        first = reconstruct(g, 4)
        u, v = next(
            (u, v) for u in range(g.n) for v in range(u + 1, g.n)
            if not g.has_edge(u, v)
        )
        first.add_edge(u, v)
        second = reconstruct(g, 4)
        assert second is not first
        assert second.edge_set() == g.edge_set()

    def test_message_size_formula(self):
        n, k = 40, 5
        g = random_k_degenerate(n, k, random.Random(0))
        msg = encode_neighborhood(n, k, sorted(g.neighbors(0)))
        assert len(msg) == message_bits(n, k)

    def test_message_size_is_o_k_log_n(self):
        # message_bits = ⌈log n⌉·(k+1)-ish
        assert message_bits(64, 4) <= 5 * 7 + 7


class TestOnEngine:
    @pytest.mark.parametrize("bandwidth", [4, 16])
    def test_all_nodes_reconstruct(self, bandwidth):
        rng = random.Random(3)
        g = random_k_degenerate(16, 2, rng)
        k = max(1, degeneracy(g))

        def program(ctx):
            success, rec = yield from algorithm_a(ctx, ctx.input, k)
            return success, (rec.edge_set() if rec else None)

        inputs = [sorted(g.neighbors(v)) for v in range(g.n)]
        result = run_protocol(
            program, n=g.n, bandwidth=bandwidth, mode=Mode.BROADCAST,
            inputs=inputs,
        )
        for success, edges in result.outputs:
            assert success and edges == g.edge_set()
        # one phase of message_bits(n,k) bits, chunked:
        assert result.rounds == phase_length(message_bits(g.n, k), bandwidth)

    def test_nodes_share_one_decode_but_not_one_graph(self, monkeypatch):
        g = random_k_degenerate(12, 2, random.Random(5))
        k = max(1, degeneracy(g))
        calls = []
        peel = becker._peel

        def counting_peel(*args):
            calls.append(args)
            return peel(*args)

        monkeypatch.setattr(becker, "_peel", counting_peel)

        def program(ctx):
            _success, rec = yield from algorithm_a(ctx, ctx.input, k)
            if ctx.node_id == 0:
                rec.add_edge(*next(
                    (0, u) for u in range(1, g.n) if not rec.has_edge(0, u)
                ))
            return rec

        inputs = [sorted(g.neighbors(v)) for v in range(g.n)]
        network = Network(n=g.n, bandwidth=8, mode=Mode.BROADCAST)
        for _run in range(2):
            graphs = network.run(program, inputs=inputs).outputs
            assert len({id(rec) for rec in graphs}) == g.n
            assert graphs[0].m == g.m + 1
            assert all(rec.edge_set() == g.edge_set() for rec in graphs[1:])
        # One decode per run: the memo is the run's, not the process's.
        assert len(calls) == 2

    def test_failure_flag_propagates(self):
        g = complete_graph(10)

        def program(ctx):
            success, rec = yield from algorithm_a(ctx, ctx.input, 2)
            return success

        inputs = [sorted(g.neighbors(v)) for v in range(g.n)]
        result = run_protocol(
            program, n=g.n, bandwidth=8, mode=Mode.BROADCAST, inputs=inputs
        )
        assert result.outputs == [False] * g.n

    def test_rounds_scale_with_k_over_b(self):
        g = random_k_degenerate(20, 4, random.Random(1))
        k = max(1, degeneracy(g))

        def program(ctx):
            success, _rec = yield from algorithm_a(ctx, ctx.input, k)
            return success

        inputs = [sorted(g.neighbors(v)) for v in range(g.n)]
        r_small = run_protocol(
            program, n=g.n, bandwidth=2, mode=Mode.BROADCAST, inputs=inputs
        ).rounds
        r_large = run_protocol(
            program, n=g.n, bandwidth=16, mode=Mode.BROADCAST, inputs=inputs
        ).rounds
        assert r_small >= 6 * r_large
