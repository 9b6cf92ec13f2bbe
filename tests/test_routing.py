"""The deterministic balanced router (Lenzen-style substitution)."""

from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.bits import Bits
from repro.core.network import Network, run_protocol
from repro.routing import build_schedule, payload_demand, route_payloads
from repro.routing.schedule import _greedy_edge_coloring


def random_demand(rng, n, max_frames, pairs):
    demand = {}
    for _ in range(pairs):
        src = rng.randrange(n)
        dst = rng.randrange(n)
        if src != dst:
            demand[(src, dst)] = rng.randint(1, max_frames)
    return demand


class TestSchedule:
    def test_empty_demand(self):
        schedule = build_schedule({}, 4)
        assert schedule.num_rounds == 0

    def test_self_pair_rejected(self):
        with pytest.raises(ValueError):
            build_schedule({(1, 1): 1}, 4)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            build_schedule({(0, 9): 1}, 4)

    def test_single_frames_one_round(self):
        demand = {(0, 1): 1, (1, 2): 1, (2, 0): 1}
        schedule = build_schedule(demand, 3)
        assert schedule.num_rounds == 1

    def test_coloring_is_proper(self):
        rng = random.Random(1)
        frames = []
        for _ in range(200):
            s, d = rng.randrange(10), rng.randrange(10)
            if s != d:
                frames.append((s, d, len(frames)))
        colors, count = _greedy_edge_coloring(frames)
        by_color = {}
        for frame, color in zip(frames, colors):
            group = by_color.setdefault(color, [])
            for other in group:
                assert other[0] != frame[0] and other[1] != frame[1]
            group.append(frame)
        assert count <= 2 * max(
            max(
                sum(1 for f in frames if f[0] == v)
                for v in range(10)
            ),
            max(
                sum(1 for f in frames if f[1] == v)
                for v in range(10)
            ),
        )

    @given(
        st.integers(min_value=2, max_value=8),
        st.integers(min_value=0, max_value=10**6),
    )
    def test_link_capacity_never_violated(self, n, seed):
        rng = random.Random(seed)
        demand = random_demand(rng, n, max_frames=2 * n, pairs=3 * n)
        schedule = build_schedule(demand, n)
        for r in range(schedule.num_rounds):
            links = set()
            for src, sends in schedule.send_plan[r].items():
                for dst, _frame in sends:
                    assert (src, dst) not in links, "two frames on one link"
                    links.add((src, dst))

    def test_balanced_demand_constant_rounds(self):
        """Per-node O(n) frames -> O(1) rounds, independent of n."""
        rounds_seen = []
        for n in (8, 16, 32):
            rng = random.Random(n)
            # every node sends exactly n frames, spread unevenly
            demand = {}
            for src in range(n):
                remaining = n
                while remaining > 0:
                    dst = rng.randrange(n)
                    if dst == src:
                        continue
                    take = min(remaining, rng.randint(1, n // 2))
                    demand[(src, dst)] = demand.get((src, dst), 0) + take
                    remaining -= take
            schedule = build_schedule(demand, n)
            rounds_seen.append(schedule.num_rounds)
        assert max(rounds_seen) <= 16

    def test_concentrated_demand_beats_direct(self):
        """2n frames on a single pair: direct would need 2n rounds, the
        two-phase schedule needs O(1)·(2n/n) rounds."""
        n = 16
        schedule = build_schedule({(0, 1): 2 * n}, n)
        assert schedule.num_rounds <= 8


class TestRoutePayloads:
    @pytest.mark.parametrize("frame_size", [1, 3, 8])
    def test_roundtrip_random(self, frame_size):
        rng = random.Random(5)
        n = 6
        lengths = {}
        contents = {}
        for src in range(n):
            for dst in range(n):
                if src != dst and rng.random() < 0.5:
                    bits = rng.randint(1, 30)
                    lengths[(src, dst)] = bits
                    contents[(src, dst)] = Bits.from_uint(
                        rng.getrandbits(bits) if bits else 0, bits
                    )

        def program(ctx):
            mine = {
                dst: contents[(ctx.node_id, dst)]
                for (src, dst) in lengths
                if src == ctx.node_id
            }
            received = yield from route_payloads(
                ctx, lengths, mine, frame_size
            )
            return {src: payload for src, payload in received.items()}

        result = run_protocol(program, n=n, bandwidth=frame_size)
        for dst in range(n):
            expected = {
                src: contents[(src, dst)]
                for (src, d2) in lengths
                if d2 == dst
            }
            assert result.outputs[dst] == expected

    def test_length_mismatch_rejected(self):
        lengths = {(0, 1): 5}

        def program(ctx):
            mine = {1: Bits.zeros(4)} if ctx.node_id == 0 else {}
            yield from route_payloads(ctx, lengths, mine, 4)

        with pytest.raises(ValueError):
            run_protocol(program, n=2, bandwidth=4)

    @pytest.mark.parametrize("engine", ["legacy", "fast"])
    def test_missing_payload_names_its_pair(self, engine):
        lengths = {(0, 1): 5, (1, 0): 3}

        def program(ctx):
            mine = {1: Bits.from_uint(3, 5)} if ctx.node_id == 0 else {}
            yield from route_payloads(ctx, lengths, mine, 4)

        network = Network(n=2, bandwidth=4, engine=engine)
        with pytest.raises(ValueError, match=r"pair \(1, 0\).* 3 bits"):
            network.run(program)

    def test_zero_length_payloads_skipped(self):
        lengths = {(0, 1): 0}

        def program(ctx):
            mine = {1: Bits.empty()} if ctx.node_id == 0 else {}
            received = yield from route_payloads(ctx, lengths, mine, 4)
            return dict(received)

        result = run_protocol(program, n=2, bandwidth=4)
        assert result.rounds == 0
        assert result.outputs[1] == {}

    def test_demand_helper(self):
        assert payload_demand({(0, 1): 10, (1, 0): 0}, 4) == {(0, 1): 3}
