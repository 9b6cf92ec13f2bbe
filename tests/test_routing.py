"""The deterministic balanced router (Lenzen-style substitution)."""

from __future__ import annotations

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bits import Bits
from repro.core.errors import DecodeError
from repro.core.faults import FaultPlan
from repro.core.network import Network, run_protocol
from repro.routing import (
    build_schedule,
    payload_demand,
    route_kernel_program,
    route_payloads,
    route_program,
)
from repro.routing.schedule import (
    RoutingSchedule,
    _direct_schedule,
    _greedy_edge_coloring,
    _two_phase_schedule,
)


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


def _coloured_schedule(demand, n):
    """The schedule by the rule that coloured every demand: colour all
    frames, then take the direct schedule iff the highest multiplicity
    is at most 2·⌈C/n⌉ (C colours).  Returns it with its branch."""
    pairs = [(s, d, c) for (s, d), c in sorted(demand.items()) if c > 0]
    if not pairs:
        return RoutingSchedule(n=n, num_rounds=0), "empty"
    frames = [(s, d, idx) for s, d, c in pairs for idx in range(c)]
    colors, num_colors = _greedy_edge_coloring(frames)
    slots = -(-num_colors // n)
    multiplicity = max(c for _s, _d, c in pairs)
    if multiplicity <= 2 * slots:
        return _direct_schedule(pairs, n, multiplicity), "direct"
    return _two_phase_schedule(frames, colors, slots, n), "two-phase"


@st.composite
def demands(draw):
    """A random demand on 1–12 nodes with multiplicities 1–6, sparse
    (a tenth of the pairs) to dense (every pair)."""
    n = draw(st.integers(min_value=1, max_value=12))
    multiplicity = draw(st.integers(min_value=1, max_value=6))
    density = draw(st.sampled_from([0.1, 0.3, 1.0]))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    demand = {
        (s, d): rng.randint(1, multiplicity)
        for s in range(n)
        for d in range(n)
        if s != d and rng.random() < density
    }
    return n, demand


class TestColouringSkip:
    def test_skip_returns_the_coloured_schedule(self):
        """Skipping the colouring when the multiplicity is within
        2·⌈Δ/n⌉ changes no schedule, and the sample reaches the
        direct, the two-phase and the skipped case."""
        seen = set()

        @settings(max_examples=300, deadline=None, derandomize=True)
        @given(demands())
        def check(case):
            n, demand = case
            want, branch = _coloured_schedule(demand, n)
            assert build_schedule(demand, n) == want
            seen.add(branch)
            if demand:
                sent, received = {}, {}
                for (s, d), c in demand.items():
                    sent[s] = sent.get(s, 0) + c
                    received[d] = received.get(d, 0) + c
                delta = max(max(sent.values()), max(received.values()))
                if max(demand.values()) <= 2 * -(-delta // n):
                    seen.add("skipped")

        check()
        assert {"direct", "two-phase", "skipped"} <= seen


class TestInjectionMap:
    """A node's injection map holds exactly the frames the schedule
    routes from it.  Every engine rejects a bad one with the same
    ``ValueError`` naming the node and the frame; in a map with several
    bad frames, the one the legacy engine meets first."""

    N = 4
    FRAME_SIZE = 16
    # Eight frames on (0, 1) exceed the direct schedule's 2·⌈Δ/n⌉ = 4
    # rounds, so the schedule is two-phase: node 0 sends frame (0, 1, 2)
    # to node 2 in round 1, which forwards it, and first sends frame
    # (0, 1, 4) in round 4.
    DEMAND = {(0, 1): 8, (1, 2): 1, (2, 3): 1, (3, 0): 1}
    WIDE = 1 << FRAME_SIZE
    NOT_ROUTED = "node {} holds frame {}, which the schedule does not route from it"
    NOT_HELD = "node {} does not hold frame {}, which the schedule routes from it"
    TOO_WIDE = "node {}'s frame {} does not fit in 16 bits"
    # Each case's edits to the injection map, as (node, frame, value or
    # None to drop it), and the error every engine raises.  "relayed"
    # gives node 2 a frame it forwards; in the two-defect cases the
    # legacy engine meets node 0's round-1 miss before node 1's wide
    # frame, node 1's wide frame (at its start) before node 0's round-4
    # miss, and node 2's round-1 miss before node 0's never-sent frame.
    CASES = {
        "extra": ([(0, (0, 2, 0), 5)], NOT_ROUTED.format(0, (0, 2, 0))),
        "missing": ([(0, (0, 1, 4), None)], NOT_HELD.format(0, (0, 1, 4))),
        "too wide": ([(0, (0, 1, 4), WIDE)], TOO_WIDE.format(0, (0, 1, 4))),
        "relayed": (
            [(2, (0, 1, 2), 5)],
            NOT_ROUTED.format(2, (0, 1, 2)),
        ),
        "missing then too wide": (
            [(0, (0, 1, 2), None), (1, (1, 2, 0), WIDE)],
            NOT_HELD.format(0, (0, 1, 2)),
        ),
        "too wide then missing": (
            [(0, (0, 1, 4), None), (1, (1, 2, 0), WIDE)],
            TOO_WIDE.format(1, (1, 2, 0)),
        ),
        "missing then extra": (
            [(0, (0, 2, 0), 5), (2, (2, 3, 0), None)],
            NOT_HELD.format(2, (2, 3, 0)),
        ),
    }

    def inputs(self):
        inputs = [dict() for _ in range(self.N)]
        for (src, dst), count in self.DEMAND.items():
            for idx in range(count):
                inputs[src][(src, dst, idx)] = 100 * src + idx
        return inputs

    @pytest.mark.parametrize("engine", ["legacy", "kernel"])
    @pytest.mark.parametrize("case", list(CASES))
    def test_bad_injection_map_fails_alike(self, case, engine):
        schedule = build_schedule(self.DEMAND, self.N)
        assert schedule.num_rounds == 4
        inputs = self.inputs()
        edits, message = self.CASES[case]
        for node, ref, value in edits:
            if value is None:
                del inputs[node][ref]
            else:
                inputs[node][ref] = value
        build = route_kernel_program if engine == "kernel" else route_program
        network = Network(n=self.N, bandwidth=self.FRAME_SIZE, engine=engine)
        with pytest.raises(ValueError, match=re.escape(message)):
            network.run(build(schedule, self.FRAME_SIZE), inputs)

    @pytest.mark.parametrize("engine", ["legacy"])
    def test_lost_relay_hop_is_a_decode_error(self, engine):
        # Frame (0, 1, 2) has colour 2: node 0 hands it to node 2 in
        # round 1, and node 2 forwards it in round 3.
        schedule = build_schedule(self.DEMAND, self.N)
        plan = FaultPlan(triggers={(1, 0, 2): "drop"})
        network = Network(
            n=self.N, bandwidth=self.FRAME_SIZE, engine=engine, fault_plan=plan
        )
        with pytest.raises(DecodeError, match=re.escape("node 2 never received frame (0, 1, 2)")):
            network.run(route_program(schedule, self.FRAME_SIZE), self.inputs())


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

    @pytest.mark.parametrize("engine", ["legacy"])
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
