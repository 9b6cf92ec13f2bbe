"""The compiled router against the frame-by-frame router it replaced.

Each node moves its routed frames through the slot tables of its
:class:`~repro.routing.lenzen.NodeRoute`.  The interpreter it replaced
is kept here, test-local, as the reference: every node looked its
frames up by ``FrameRef`` in dicts, round by round.  Everything a
routed run shows — each node's output, or the run's exception type and
text, and the rounds, bits and fault events — must be the reference's,
for random demands, defective injection maps and faults on relay and
final hops.

The one deliberate change is in the payload join: a payload that lost
some of its frames is left out of the result, as one that lost all of
them always was (the reference raised a bare ``KeyError``).  The
reference join below has that fix, and :class:`TestPartialPayload`
pins it.
"""

from __future__ import annotations

import hashlib
import random
import re
from typing import Dict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import (
    BandwidthExceededError,
    DecodeError,
    ProtocolError,
    SimulationPlanError,
    TopologyError,
)
from repro.core.faults import FaultPlan
from repro.core.network import Mode, Network, Outbox, inbox_uints
from repro.routing import build_schedule, payload_demand, route_kernel_program, route_program
from repro.routing.lenzen import (
    ColumnRoute,
    _bad_frame,
    _not_held,
    _not_routed,
    route_payload_ints,
)
from repro.scenarios import ScenarioMatrix

ENGINES = ["legacy"]


# -- the reference: the frame-by-frame router --------------------------


def reference_drive_frames(ctx, schedule, holding, frame_size, lengths=None):
    me = ctx.node_id
    delivered = {}
    for r in range(schedule.num_rounds):
        sends = schedule.send_plan[r].get(me, ())
        if sends:
            messages = {}
            try:
                for recipient, frame in sends:
                    messages[recipient] = holding.pop(frame)
            except KeyError:
                if frame[0] != me:
                    raise DecodeError(
                        f"node {me} never received frame {frame}, which it "
                        f"forwards in routing round {r + 1}"
                    ) from None
                if lengths is None:
                    raise ValueError(_not_held(me, frame)) from None
                pair = frame[:2]
                raise ValueError(
                    f"node {me} has no payload for pair {pair}, which "
                    f"the plan routes as {lengths[pair]} bits"
                ) from None
            outbox = Outbox.fixed_width_map(messages, frame_size)
        else:
            outbox = Outbox.silent()
        inbox = yield outbox
        recv = schedule.recv_plan[r]
        for sender, value in inbox_uints(inbox):
            try:
                frame, is_final = recv[(sender, me)]
            except KeyError:
                raise DecodeError(
                    f"node {me} got a frame from node {sender} in routing "
                    f"round {r + 1}, which its schedule does not expect"
                ) from None
            if is_final:
                delivered[frame] = value
            else:
                holding[frame] = value
    if holding:
        raise ValueError(_not_routed(me, next(iter(holding))))
    return delivered


def reference_route_program(schedule, frame_size):
    def program(ctx):
        me = ctx.node_id
        holding = dict(ctx.input or {})
        if holding and (
            {ref[0] for ref in holding} != {me}
            or min(holding.values()) < 0
            or max(holding.values()) >> frame_size
        ):
            raise ValueError(_bad_frame(me, holding, frame_size))
        return (yield from reference_drive_frames(ctx, schedule, holding, frame_size))

    return program


def reference_route_payload_ints(ctx, lengths, my_payloads, frame_size, schedule):
    me = ctx.node_id
    mask = (1 << frame_size) - 1
    holding = {}
    for dst, value in my_payloads.items():
        bits = lengths.get((me, dst), 0)
        if value < 0 or value >> bits:
            raise ValueError(
                f"payload to {dst} does not fit the {bits} bits the plan routes"
            )
        count = -(-bits // frame_size)
        value <<= count * frame_size - bits
        for idx in range(count):
            holding[(me, dst, idx)] = (value >> ((count - 1 - idx) * frame_size)) & mask
    delivered = yield from reference_drive_frames(
        ctx, schedule, holding, frame_size, lengths
    )
    by_source: Dict[int, Dict[int, int]] = {}
    for (src, _dst, idx), frame in delivered.items():
        by_source.setdefault(src, {})[idx] = frame
    received = {}
    for src, frames in by_source.items():
        bits = lengths[(src, me)]
        count = -(-bits // frame_size)
        if len(frames) < count:
            continue  # the fix: a partly delivered payload is left out
        value = 0
        for idx in range(count):
            value = (value << frame_size) | frames[idx]
        received[src] = value >> (count * frame_size - bits)
    return received


def payload_program(route, lengths, frame_size, schedule):
    def program(ctx):
        received = yield from route(
            ctx, lengths, ctx.input or {}, frame_size, schedule
        )
        return received

    return program


def outcome(network: Network, program, inputs):
    """What a run shows: its outputs, rounds, bits and fault events, or
    its exception's type and text."""
    try:
        result = network.run(program, inputs)
    except Exception as exc:  # noqa: BLE001 - the failure is the outcome
        return ("raised", type(exc).__name__, str(exc))
    return (
        "ran",
        result.outputs,
        result.rounds,
        result.total_bits,
        result.max_round_bits,
        result.faults,
    )


# -- random cases ---------------------------------------------------------


def hops(schedule):
    """Every hop as ``(round, sender, receiver, is_final)``, rounds from 1."""
    return [
        (r + 1, sender, receiver, is_final)
        for r, recv in enumerate(schedule.recv_plan)
        for (sender, receiver), (_frame, is_final) in recv.items()
    ]


@st.composite
def demand_cases(draw):
    """A demand on 4–8 nodes: direct (multiplicities 1–2 on random
    pairs) or concentrated (each node sends n frames over at most two
    peers), which takes the two-phase path."""
    n = draw(st.integers(min_value=4, max_value=8))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    demand: Dict[tuple, int] = {}
    if draw(st.booleans()):
        for s in range(n):
            for d in range(n):
                if s != d and rng.random() < 0.4:
                    demand[(s, d)] = rng.randint(1, 2)
    else:
        for s in range(n):
            peers = rng.sample([d for d in range(n) if d != s], 2)
            cut = rng.randint(1, n - 1)
            demand[(s, peers[0])] = cut
            demand[(s, peers[1])] = n - cut
    return n, demand, rng


DEFECTS = ["none", "missing", "extra", "too wide", "other node's"]


def defective_frames(schedule, n, frame_size, rng, defect):
    """Each node's injection map, with one defect."""
    inputs = [dict() for _ in range(n)]
    for ref in schedule.route().slot_of:
        inputs[ref[0]][ref] = rng.getrandbits(frame_size)
    v = rng.randrange(n)
    mine = sorted(inputs[v])
    if defect == "missing" and mine:
        del inputs[v][rng.choice(mine)]
    elif defect == "extra":
        inputs[v][(v, (v + 1) % n, 99)] = 1
    elif defect == "too wide" and mine:
        inputs[v][rng.choice(mine)] = 1 << frame_size
    elif defect == "other node's":
        inputs[v][((v + 1) % n, v, 0)] = 1
    return inputs


def fault_plan(schedule, rng, kind):
    """Drop or delay one relay hop and one final hop, where the schedule
    has them."""
    triggers = {}
    relay = [h for h in hops(schedule) if not h[3]]
    final = [h for h in hops(schedule) if h[3]]
    for pool in (relay, final):
        if pool and kind != "none":
            r, sender, receiver, _final = rng.choice(pool)
            triggers[(r, sender, receiver)] = kind
    return FaultPlan(triggers=triggers) if triggers else None


class TestFrameParity:
    def test_random_cases_match_the_reference(self):
        seen = set()

        @settings(max_examples=120, deadline=None, derandomize=True)
        @given(
            demand_cases(),
            st.sampled_from(DEFECTS),
            st.sampled_from(["none", "drop", "delay"]),
        )
        def check(case, defect, fault):
            n, demand, rng = case
            frame_size = 6
            schedule = build_schedule(demand, n)
            relays = any(not h[3] for h in hops(schedule))
            seen.add("two-phase" if relays else "direct")
            inputs = defective_frames(schedule, n, frame_size, rng, defect)
            plan = fault_plan(schedule, rng, fault)
            want = outcome(
                Network(n=n, bandwidth=frame_size, engine="legacy", fault_plan=plan),
                reference_route_program(schedule, frame_size),
                inputs,
            )
            seen.add(want[0])
            for engine in ENGINES:
                network = Network(
                    n=n, bandwidth=frame_size, engine=engine, fault_plan=plan
                )
                got = outcome(network, route_program(schedule, frame_size), inputs)
                assert got == want, (engine, demand, defect, fault)

        check()
        assert {"direct", "two-phase", "ran", "raised"} <= seen

    @pytest.mark.parametrize("engine", ENGINES)
    def test_frames_travel_as_plain_ints(self, engine):
        schedule = build_schedule({(0, 1): 1, (1, 2): 2, (2, 0): 1}, 3)
        inputs = [
            {(0, 1, 0): np.int64(5)},
            {(1, 2, 0): True, (1, 2, 1): np.uint8(3)},
            {(2, 0, 0): 7},
        ]
        network = Network(n=3, bandwidth=4, engine=engine)
        result = network.run(route_program(schedule, 4), inputs)
        assert result.outputs == [{(2, 0, 0): 7}, {(0, 1, 0): 5}, {(1, 2, 0): 1, (1, 2, 1): 3}]
        assert {type(v) for out in result.outputs for v in out.values()} == {int}

    @pytest.mark.parametrize("engine", ENGINES)
    def test_zero_width_frames_fail_alike(self, engine):
        schedule = build_schedule({(0, 1): 1, (1, 2): 1}, 3)
        inputs = [{(0, 1, 0): 0}, {(1, 2, 0): 0}, {}]
        runs = [
            outcome(Network(n=3, bandwidth=4, engine=engine), build(schedule, 0), inputs)
            for build in (route_program, reference_route_program)
        ]
        assert runs[0] == runs[1]
        assert runs[0][:2] == ("raised", "ValueError")

    def test_the_compiled_route_is_a_cache(self):
        import copy
        import pickle

        schedule = build_schedule({(0, 1): 3, (1, 2): 1}, 3)
        route = schedule.route()
        assert schedule.route() is route
        for clone in (pickle.loads(pickle.dumps(schedule)), copy.deepcopy(schedule)):
            assert clone == schedule
            assert "_route" not in vars(clone)


class TestPayloadParity:
    def test_random_cases_match_the_reference(self):
        seen = set()

        @settings(max_examples=120, deadline=None, derandomize=True)
        @given(
            demand_cases(),
            st.sampled_from(["none", "missing", "too wide", "extra"]),
            st.sampled_from(["none", "drop", "delay"]),
        )
        def check(case, defect, fault):
            n, demand, rng = case
            frame_size = 3
            # Each pair's payload spans its frames, the last one part full.
            lengths = {
                pair: rng.randint(frame_size * (count - 1) + 1, frame_size * count)
                for pair, count in demand.items()
            }
            schedule = build_schedule(payload_demand(lengths, frame_size), n)
            seen.add("two-phase" if any(not h[3] for h in hops(schedule)) else "direct")
            inputs = [dict() for _ in range(n)]
            for (src, dst), bits in lengths.items():
                inputs[src][dst] = rng.getrandbits(bits)
            v = rng.randrange(n)
            if defect == "missing" and inputs[v]:
                del inputs[v][rng.choice(sorted(inputs[v]))]
            elif defect == "too wide" and inputs[v]:
                dst = rng.choice(sorted(inputs[v]))
                inputs[v][dst] = 1 << lengths[(v, dst)]
            elif defect == "extra":
                # A payload to a node the plan routes nothing to must be 0.
                inputs[v][v] = 0
            plan = fault_plan(schedule, rng, fault)
            want = outcome(
                Network(n=n, bandwidth=frame_size, engine="legacy", fault_plan=plan),
                payload_program(reference_route_payload_ints, lengths, frame_size, schedule),
                inputs,
            )
            seen.add(want[0])
            for engine in ENGINES:
                network = Network(
                    n=n, bandwidth=frame_size, engine=engine, fault_plan=plan
                )
                got = outcome(
                    network,
                    payload_program(route_payload_ints, lengths, frame_size, schedule),
                    inputs,
                )
                assert got == want, (engine, lengths, defect, fault)

        check()
        assert {"direct", "two-phase", "ran", "raised"} <= seen


class TestColumnRoute:
    """A :class:`ColumnRoute` moves the same frames as
    :func:`route_payload_ints` moving the same bits as ints, and a
    payload it loses reads 0 and is reported by its source."""

    def test_matches_route_payload_ints(self):
        seen = set()

        @settings(max_examples=60, deadline=None, derandomize=True)
        @given(demand_cases(), st.sampled_from(["none", "drop", "delay"]))
        def check(case, fault):
            n, demand, rng = case
            frame_size = 3
            width = frame_size * n * n
            # Each pair's payload is random columns of the sender's
            # vector, landing in random columns of the receiver's that
            # no other payload fills.
            free = [rng.sample(range(width), width) for _ in range(n)]
            order = {}
            for (src, dst), count in demand.items():
                bits = rng.randint(frame_size * (count - 1) + 1, frame_size * count)
                landing = [free[dst].pop() for _ in range(bits)]
                order[(src, dst)] = (rng.sample(range(width), bits), landing)
            lengths = {pair: len(cols) for pair, (cols, _) in order.items()}
            schedule = build_schedule(payload_demand(lengths, frame_size), n)
            vectors = [
                np.asarray([rng.getrandbits(1) for _ in range(width)], dtype=np.uint8)
                for _ in range(n)
            ]
            plan = fault_plan(schedule, rng, fault)

            def by_columns(ctx):
                me = ctx.node_id
                route = ColumnRoute(
                    schedule,
                    me,
                    frame_size,
                    {dst: cols for (src, dst), (cols, _) in order.items() if src == me},
                    {src: cols for (src, dst), (_, cols) in order.items() if dst == me},
                )
                received = np.zeros(width, dtype=np.uint8)
                lost = yield from route.run(ctx, vectors[me], received)
                return received.tolist(), sorted(lost)

            def by_ints(ctx):
                me = ctx.node_id
                mine = {}
                for (src, dst), (cols, _) in order.items():
                    if src == me:
                        value = 0
                        for bit in vectors[me][cols].tolist():
                            value = (value << 1) | bit
                        mine[dst] = value
                got = yield from route_payload_ints(ctx, lengths, mine, frame_size, schedule)
                received = [0] * width
                for (src, dst), (_, cols) in order.items():
                    if dst == me and src in got:
                        for i, col in enumerate(cols):
                            received[col] = (got[src] >> (len(cols) - 1 - i)) & 1
                lost = sorted(
                    src for (src, dst) in order if dst == me and src not in got
                )
                return received, lost

            for engine in ENGINES:
                runs = [
                    outcome(
                        Network(n=n, bandwidth=frame_size, engine=engine, fault_plan=plan),
                        program,
                        None,
                    )
                    for program in (by_columns, by_ints)
                ]
                assert runs[0] == runs[1], (engine, demand, fault)
                if runs[0][0] == "ran":
                    seen.add(any(lost for _cols, lost in runs[0][1]))

        check()
        assert seen == {True, False}


# -- a payload is delivered whole or not at all ---------------------------


class TestPartialPayload:
    N = 3
    LENGTHS = {(0, 1): 5, (1, 2): 3}
    FRAME_SIZE = 2

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("trigger", [(1, 0, 1), (2, 0, 1)])
    def test_a_partly_lost_payload_is_left_out(self, engine, trigger):
        # Node 0's three-frame payload reaches node 1 as frame 1 in
        # round 1, and frames 0 and 2 (the latter through node 2) in
        # round 2: either drop loses one frame of it.
        schedule = build_schedule(payload_demand(self.LENGTHS, self.FRAME_SIZE), self.N)
        inputs = [{1: 0b10110}, {2: 0b101}, {}]
        network = Network(
            n=self.N,
            bandwidth=self.FRAME_SIZE,
            engine=engine,
            fault_plan=FaultPlan(triggers={trigger: "drop"}),
        )
        program = payload_program(
            route_payload_ints, self.LENGTHS, self.FRAME_SIZE, schedule
        )
        result = network.run(program, inputs)
        assert result.outputs == [{}, {}, {1: 0b101}]
        assert len(result.faults) == 1

    @pytest.mark.parametrize("engine", ENGINES)
    def test_theorem2_names_the_gate(self, engine):
        from repro.circuits.arithmetic import matmul_circuit_strassen
        from repro.matmul.distributed import matmul_input_partition
        from repro.simulation.protocol import build_plan, make_program

        n = 4
        circuit = matmul_circuit_strassen(n)
        partition = matmul_input_partition(n)
        plan = build_plan(circuit, n, partition, bandwidth=2)
        schedule = plan.input_schedule
        # A two-frame payload of the input redistribution (the first
        # phase, so its rounds are the run's first), and the final hop
        # of its second frame.
        (src, dst), gids = next(
            (pair, gids) for pair, gids in plan.input_order.items() if len(gids) > 2
        )
        trigger = next(
            (r + 1, sender, receiver)
            for r, recv in enumerate(schedule.recv_plan)
            for (sender, receiver), (frame, _final) in recv.items()
            if frame == (src, dst, 1) and receiver == dst
        )
        inputs = [dict() for _ in range(n)]
        for position, gid in enumerate(circuit.input_ids):
            inputs[partition[position]][gid] = position % 3 == 0
        clean = Network(n=n, bandwidth=plan.bandwidth, engine=engine)
        clean.run(make_program(plan), inputs)
        network = Network(
            n=n,
            bandwidth=plan.bandwidth,
            engine=engine,
            fault_plan=FaultPlan(triggers={trigger: "drop"}),
        )
        message = (
            f"player {dst} never received the payload from gate {gids[0]} "
            f"on, which player {src} routes to it"
        )
        with pytest.raises(SimulationPlanError, match=re.escape(message)):
            network.run(make_program(plan), inputs)


# -- fixed-width outboxes are checked once, when yielded ------------------


class TestFixedOutboxChecks:
    """Scalar delivery writes a fixed-width outbox straight into its
    receivers' dicts, so every violation must already fail at the
    yield: with the yield-time text, which names no round."""

    CASES = {
        "too wide for the link": (
            lambda: Outbox.fixed_width([1], [1], 9),
            BandwidthExceededError,
            "node 0 sent 9-bit fixed-width messages (bandwidth 8)",
        ),
        "to itself": (
            lambda: Outbox.fixed_width([1, 0], [1, 1], 4),
            TopologyError,
            "node 0 sent a message to itself",
        ),
        "out of range": (
            lambda: Outbox.fixed_width_map({4: 1}, 4),
            TopologyError,
            "node 0 sent to an out-of-range destination",
        ),
        "a destination twice": (
            lambda: Outbox.fixed_width([1, 1], [1, 2], 4),
            ProtocolError,
            "node 0 listed a destination twice in a fixed-width outbox",
        ),
        "a value too wide": (
            lambda: Outbox.fixed_width([1, 2], [3, 16], 4),
            ProtocolError,
            "node 0 sent a value that does not fit in 4 bits",
        ),
        "a non-neighbour": (
            lambda: Outbox.fixed_width([2], [1], 4),
            TopologyError,
            "node 0 sent to non-neighbour 2 in CONGEST",
        ),
    }

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("case", list(CASES))
    @pytest.mark.parametrize("at_round", [1, 2])
    def test_violation_raises_at_yield(self, engine, case, at_round):
        build, error, message = self.CASES[case]

        def program(ctx):
            for r in range(1, 3):
                if ctx.node_id == 0 and r == at_round:
                    yield build()
                else:
                    yield Outbox.fixed_width_map({(ctx.node_id + 1) % 4: 1}, 4)

        if case == "a non-neighbour":
            network = Network(
                n=4,
                bandwidth=8,
                mode=Mode.CONGEST,
                topology=[[1, 3], [0, 2], [1, 3], [2, 0]],
                engine=engine,
            )
        else:
            network = Network(n=4, bandwidth=8, engine=engine)
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            network.run(program)


# -- two-phase routing at n=64 ---------------------------------------------


class TestTwoPhaseAt64:
    """Each node sends n frames over at most four random neighbours of
    a gnp graph, which concentrates pairs past the direct schedule's
    threshold: the schedule relays."""

    N = 64
    FRAME_SIZE = 12

    @pytest.fixture(scope="class")
    def case(self):
        from repro.scenarios.families import get_family

        rng = random.Random(64)
        graph = get_family("gnp").build(self.N, rng)
        demand = {}
        for v in range(self.N):
            peers = sorted(graph.neighbors(v)) or [(v + 1) % self.N]
            peers = rng.sample(peers, min(4, len(peers)))
            cuts = sorted(rng.sample(range(1, self.N), len(peers) - 1))
            for peer, count in zip(peers, [b - a for a, b in zip([0] + cuts, cuts + [self.N])]):
                demand[(v, peer)] = count
        schedule = build_schedule(demand, self.N)
        return demand, schedule

    def test_the_schedule_relays(self, case):
        _demand, schedule = case
        assert any(not final for _r, _s, _d, final in hops(schedule))

    @pytest.mark.parametrize("engine", ["legacy", "kernel"])
    def test_every_frame_arrives(self, case, engine):
        _demand, schedule = case
        rng = random.Random(1)
        inputs = [dict() for _ in range(self.N)]
        expected = [dict() for _ in range(self.N)]
        for ref in schedule.route().slot_of:
            value = rng.getrandbits(self.FRAME_SIZE)
            inputs[ref[0]][ref] = value
            expected[ref[1]][ref] = value
        build = route_kernel_program if engine == "kernel" else route_program
        network = Network(n=self.N, bandwidth=self.FRAME_SIZE, engine=engine)
        result = network.run(build(schedule, self.FRAME_SIZE), inputs)
        assert result.outputs == expected
        assert result.rounds == schedule.num_rounds

    @pytest.mark.parametrize("engine", ENGINES)
    def test_payloads_match_the_reference(self, case, engine):
        demand, _schedule = case
        rng = random.Random(2)
        frame_size = 5
        lengths = {
            pair: rng.randint(frame_size * (count - 1) + 1, frame_size * count)
            for pair, count in demand.items()
        }
        schedule = build_schedule(payload_demand(lengths, frame_size), self.N)
        assert any(not final for _r, _s, _d, final in hops(schedule))
        inputs = [dict() for _ in range(self.N)]
        for (src, dst), bits in lengths.items():
            inputs[src][dst] = rng.getrandbits(bits)

        def run(route):
            network = Network(n=self.N, bandwidth=frame_size, engine=engine)
            return outcome(
                network, payload_program(route, lengths, frame_size, schedule), inputs
            )

        got = run(route_payload_ints)
        assert got == run(reference_route_payload_ints)
        assert got[1] == [
            {src: inputs[src][dst] for (src, d) in lengths if d == dst}
            for dst in range(self.N)
        ]


# -- the pinned chaos sweep over the routed protocols ---------------------

CHAOS_PLANS = [
    FaultPlan(
        seed=11, corrupt_rate=0.05, drop_rate=0.02, duplicate_rate=0.03,
        delay_rate=0.03, crash_rate=0.04, crash_horizon=10,
    ),
    FaultPlan(seed=23, corrupt_rate=0.02, drop_rate=0.002, delay_rate=0.005),
]


def chaos_sweep(plan: FaultPlan):
    """Each cell's coordinate and ``(status, error_type, error, digest)``."""
    result = ScenarioMatrix(
        protocols=["routing", "routing_many", "circuit_simulation", "triangle_mm"],
        families=["gnp"],
        sizes=[6, 8],
        engines=ENGINES,
        seed=3,
        fault_plan=plan,
    ).run()
    return [
        (
            (c.protocol, c.family, c.n, c.engine),
            (c.status, c.error_type, c.error, c.digest),
            c.fault_count,
        )
        for c in result.cells
    ]


def sweep_digest(cells) -> str:
    pinned = [(coord, out) for coord, out, _faults in cells]
    return hashlib.sha256(repr(pinned).encode()).hexdigest()[:16]


class TestPinnedChaosSweep:
    """Recorded from the frame-by-frame router; a change in what a
    faulted routed phase delivers or raises moves a digest."""

    @pytest.mark.parametrize(
        "plan, digest",
        [
            (CHAOS_PLANS[0], "79bfd0c7849e3a6c"),
            (CHAOS_PLANS[1], "82128c5686c7e692"),
        ],
        ids=["strong", "weak"],
    )
    def test_outcomes_pinned(self, plan, digest):
        cells = chaos_sweep(plan)
        assert len(cells) == 8
        assert any(faults for _c, _o, faults in cells), "the plan injected nothing"
        assert sweep_digest(cells) == digest, cells
