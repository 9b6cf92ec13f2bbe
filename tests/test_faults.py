"""Chaos clique: deterministic fault injection, resilient transmit
phases, the round-limit watchdog, and the self-checking scenario
sweep."""

import hashlib
from collections import Counter

import pytest

from repro.core.bits import Bits
from repro.core.errors import (
    FaultInjectionError,
    MaxRoundsExceededError,
    ReproError,
    RoundLimitExceeded,
)
from repro.core.faults import (
    FAULT_KINDS,
    FaultEvent,
    FaultPlan,
    FaultSession,
)
from repro.core.network import Mode, Network, Outbox
from repro.core.phases import (
    _frame_payload,
    phase_length,
    transmit_broadcast,
    transmit_broadcast_kernel_program,
    transmit_broadcast_redundant,
    transmit_unicast,
    transmit_unicast_kernel_program,
)

WIDTH = 8


def chatter_program(rounds):
    """Every node sends a round/sender-dependent byte to every other
    node each round and returns everything it heard, tagged by round."""

    def program(ctx):
        me = ctx.node_id
        heard = []
        for r in range(rounds):
            payloads = {
                dest: ((me * 31 + dest * 7 + r * 13) & 0xFF)
                for dest in range(ctx.n)
                if dest != me
            }
            inbox = yield Outbox.fixed_width_map(payloads, WIDTH)
            heard.append(sorted(inbox.uint_items()))
        return heard

    return program


def gossip_program(rounds):
    def program(ctx):
        heard = []
        for r in range(rounds):
            inbox = yield Outbox.broadcast_uint(
                (ctx.node_id * 17 + r * 5) & 0xFF, WIDTH
            )
            heard.append(sorted(inbox.uint_items()))
        return heard

    return program


def run_outputs(engine, plan, rounds=4, n=5, mode=Mode.UNICAST, **kwargs):
    network = Network(
        n=n, bandwidth=WIDTH, mode=mode, engine=engine, fault_plan=plan, **kwargs
    )
    program = gossip_program(rounds) if mode is Mode.BROADCAST else chatter_program(rounds)
    return network.run(program)


CHAOS = FaultPlan(
    seed=7,
    drop_rate=0.12,
    corrupt_rate=0.1,
    duplicate_rate=0.08,
    delay_rate=0.08,
    crashes={3: 3},
)


class TestFaultPlanValidation:
    @pytest.mark.parametrize("field", ["drop_rate", "corrupt_rate", "duplicate_rate", "delay_rate", "crash_rate"])
    def test_rates_must_be_probabilities(self, field):
        for bad in (-0.1, 1.5):
            with pytest.raises(FaultInjectionError):
                FaultPlan(**{field: bad})

    def test_trigger_kind_must_be_known(self):
        with pytest.raises(FaultInjectionError):
            FaultPlan(triggers={(1, 0, 1): "mangle"})
        # Crashes are configured via `crashes`, not triggers.
        with pytest.raises(FaultInjectionError):
            FaultPlan(triggers={(1, 0, 1): "crash"})

    def test_trigger_round_is_one_based(self):
        with pytest.raises(FaultInjectionError):
            FaultPlan(triggers={(0, 0, 1): "drop"})

    def test_window_and_horizon_bounds(self):
        with pytest.raises(FaultInjectionError):
            FaultPlan(from_round=0)
        with pytest.raises(FaultInjectionError):
            FaultPlan(from_round=3, until_round=2)
        with pytest.raises(FaultInjectionError):
            FaultPlan(crash_horizon=0)
        with pytest.raises(FaultInjectionError):
            FaultPlan(delay_rounds=0)
        with pytest.raises(FaultInjectionError):
            FaultPlan(crashes={0: 0})

    def test_error_taxonomy(self):
        assert issubclass(FaultInjectionError, ReproError)
        assert issubclass(RoundLimitExceeded, MaxRoundsExceededError)

    def test_inactive_plan(self):
        assert not FaultPlan(seed=99).is_active
        assert FaultPlan(drop_rate=0.1).is_active
        assert FaultPlan(crashes={0: 1}).is_active
        assert FaultPlan(triggers={(1, 0, 1): "drop"}).is_active


class TestDeterministicSchedule:
    def test_coin_is_pure_function_of_coordinates(self):
        plan = FaultPlan(seed=3, drop_rate=0.5)
        first = [plan.fault_for(r, s, d) for r in range(1, 5) for s in range(4) for d in range(4)]
        second = [plan.fault_for(r, s, d) for r in range(1, 5) for s in range(4) for d in range(4)]
        assert first == second

    def test_seed_changes_schedule(self):
        coords = [(r, s, d) for r in range(1, 9) for s in range(6) for d in range(6) if s != d]
        a = [FaultPlan(seed=1, drop_rate=0.3).fault_for(*c) for c in coords]
        b = [FaultPlan(seed=2, drop_rate=0.3).fault_for(*c) for c in coords]
        assert a != b

    def test_trigger_beats_probabilistic_kinds(self):
        plan = FaultPlan(seed=0, drop_rate=1.0, triggers={(2, 1, 0): "corrupt"})
        assert plan.fault_for(2, 1, 0) == "corrupt"
        assert plan.fault_for(2, 1, 2) == "drop"

    def test_round_window(self):
        plan = FaultPlan(seed=0, drop_rate=1.0, from_round=2, until_round=3)
        assert plan.fault_for(1, 0, 1) is None
        assert plan.fault_for(2, 0, 1) == "drop"
        assert plan.fault_for(3, 0, 1) == "drop"
        assert plan.fault_for(4, 0, 1) is None

    def test_corrupt_bit_in_range(self):
        plan = FaultPlan(seed=5, corrupt_rate=1.0)
        for width in (1, 3, 8, 64):
            for src in range(6):
                bit = plan.corrupt_bit(1, src, 0, width)
                assert 0 <= bit < width

    def test_crash_round_deterministic(self):
        plan = FaultPlan(seed=4, crash_rate=0.5, crash_horizon=6)
        sched = {v: plan.crash_round(v) for v in range(20)}
        assert sched == {v: plan.crash_round(v) for v in range(20)}
        crashed = [r for r in sched.values() if r is not None]
        assert crashed, "crash_rate=0.5 over 20 nodes should crash someone"
        assert all(1 <= r <= 6 for r in crashed)
        assert FaultPlan(seed=4, crashes={2: 9}).crash_round(2) == 9

    @pytest.mark.parametrize("seed", [0, 1, 17, 12345])
    def test_fuzz_same_seed_same_events_across_engines(self, seed):
        plan = FaultPlan(seed=seed, drop_rate=0.15, corrupt_rate=0.1, delay_rate=0.1)
        legacy = run_outputs("legacy", plan)
        fast = run_outputs("fast", plan)
        assert legacy.outputs == fast.outputs
        assert legacy.faults == fast.faults
        assert legacy.total_bits == fast.total_bits

    def test_run_many_matches_run(self):
        network = Network(
            n=5, bandwidth=WIDTH, mode=Mode.UNICAST, engine="fast", fault_plan=CHAOS
        )
        batch = network.run_many(chatter_program(4), [None, None, None])
        single = run_outputs("fast", CHAOS)
        for item in batch:
            assert item.outputs == single.outputs
            assert item.faults == single.faults

    def test_events_sorted_canonically_within_round(self):
        result = run_outputs("legacy", CHAOS, rounds=6, n=6)
        assert result.faults
        keys = [e.key() for e in result.faults]
        assert keys == sorted(keys)
        rounds = [e.round for e in result.faults]
        assert rounds == sorted(rounds)


class TestScalarFaultSemantics:
    def test_all_kinds_reachable_and_engines_agree(self):
        plan = FaultPlan(
            seed=2,
            drop_rate=0.15,
            corrupt_rate=0.12,
            duplicate_rate=0.1,
            delay_rate=0.1,
            crashes={1: 2},
        )
        legacy = run_outputs("legacy", plan, rounds=6, n=6)
        fast = run_outputs("fast", plan, rounds=6, n=6)
        assert legacy.outputs == fast.outputs
        assert legacy.faults == fast.faults
        kinds = {e.kind for e in legacy.faults}
        assert kinds == set(FAULT_KINDS), f"workload never hit {set(FAULT_KINDS) - kinds}"

    def test_drop_trigger_removes_exactly_one_message(self):
        plan = FaultPlan(triggers={(2, 0, 3): "drop"})
        clean = run_outputs("legacy", None)
        faulty = run_outputs("legacy", plan)
        assert faulty.faults == [FaultEvent(2, 0, 3, "drop", None)]
        # Round 2 at receiver 3 lost sender 0; everything else is intact.
        for node in range(5):
            for r in range(4):
                expect = clean.outputs[node][r]
                if node == 3 and r == 1:
                    expect = [kv for kv in expect if kv[0] != 0]
                assert faulty.outputs[node][r] == expect

    def test_corrupt_trigger_flips_one_deterministic_bit(self):
        plan = FaultPlan(seed=6, triggers={(1, 2, 0): "corrupt"})
        clean = run_outputs("legacy", None)
        faulty = run_outputs("legacy", plan)
        (event,) = faulty.faults
        assert event.kind == "corrupt" and 0 <= event.detail < WIDTH
        clean_val = dict(clean.outputs[0][0])[2]
        faulty_val = dict(faulty.outputs[0][0])[2]
        assert faulty_val == clean_val ^ (1 << event.detail)

    def test_delay_moves_payload_to_later_round(self):
        plan = FaultPlan(triggers={(1, 4, 0): "delay"}, delay_rounds=2)
        clean = run_outputs("legacy", None)
        faulty = run_outputs("legacy", plan)
        assert faulty.faults == [FaultEvent(1, 4, 0, "delay", 3)]
        assert dict(faulty.outputs[0][0]).get(4) is None
        # The stale round-1 payload does NOT displace round 3's fresh one.
        assert faulty.outputs[0][2] == clean.outputs[0][2]

    def test_duplicate_fills_empty_slot_only(self):
        # Duplicate of round 1's payload lands in round 2, where sender 4
        # is also dropped — the duplicate therefore resurfaces.
        plan = FaultPlan(
            triggers={(1, 4, 0): "duplicate", (2, 4, 0): "drop"}, delay_rounds=1
        )
        clean = run_outputs("legacy", None)
        faulty = run_outputs("legacy", plan)
        stale = dict(clean.outputs[0][0])[4]
        assert dict(faulty.outputs[0][1])[4] == stale

    def test_crash_omits_sends_from_crash_round(self):
        plan = FaultPlan(crashes={2: 3})
        faulty = run_outputs("legacy", plan, rounds=5, n=5)
        assert FaultEvent(3, 2, None, "crash", None) in faulty.faults
        assert len([e for e in faulty.faults if e.kind == "crash"]) == 1
        for node in range(5):
            if node == 2:
                continue
            for r in range(5):
                senders = [s for s, _ in faulty.outputs[node][r]]
                assert (2 in senders) == (r < 2), (node, r, senders)
        # The crashed node still hears everyone (receive stays up).
        assert all(len(box) == 4 for box in faulty.outputs[2])

    @pytest.mark.parametrize(
        "plan, rounds, kinds, digest",
        [
            (
                FaultPlan(seed=9, corrupt_rate=0.2, drop_rate=0.1),
                4,
                {"corrupt": 3, "drop": 1},
                "0fcc03919c345acd",
            ),
            (
                CHAOS,
                6,
                {"drop": 5, "corrupt": 4, "delay": 2, "duplicate": 2, "crash": 1},
                "336950f35b2f591d",
            ),
        ],
        ids=["corrupt_drop", "chaos"],
    )
    def test_broadcast_fault_hits_all_receivers_identically(
        self, plan, rounds, kinds, digest
    ):
        legacy = run_outputs("legacy", plan, rounds=rounds, mode=Mode.BROADCAST, n=6)
        fast = run_outputs("fast", plan, rounds=rounds, mode=Mode.BROADCAST, n=6)
        assert legacy.outputs == fast.outputs
        assert legacy.faults == fast.faults
        assert legacy.faults and all(e.dst is None for e in legacy.faults)
        assert Counter(e.kind for e in legacy.faults) == kinds
        # Both engines deliver a broadcast round through the same board,
        # so their agreement cannot catch a change in the semantics
        # themselves: the reference run is pinned outright.
        pinned = (legacy.outputs, legacy.faults, legacy.total_bits, legacy.rounds)
        assert hashlib.sha256(repr(pinned).encode()).hexdigest()[:16] == digest
        for r in range(rounds):
            for src in range(6):
                seen = {
                    dict(legacy.outputs[v][r]).get(src)
                    for v in range(6)
                    if v != src
                }
                assert len(seen) == 1, "receivers diverged on one broadcast word"

    @pytest.mark.parametrize("engine", ["legacy", "fast"])
    def test_lone_writer_word_has_no_fate(self, engine):
        # A one-node clique's word is charged but reaches no receiver, so
        # the plan decides nothing about it.
        plan = FaultPlan(seed=1, drop_rate=1.0)
        result = run_outputs(engine, plan, rounds=3, mode=Mode.BROADCAST, n=1)
        assert result.faults == []
        assert result.outputs == [[[], [], []]]
        assert result.total_bits == 3 * WIDTH


class TestKernelFaults:
    def test_kernel_corrupt_parity_with_generator_twin(self):
        n, payload_width = 6, 11
        plan = FaultPlan(seed=13, corrupt_rate=0.25)
        payloads = [Bits((v * 2654435761) & 0x7FF, payload_width) for v in range(n)]
        program = transmit_broadcast_kernel_program(
            n, WIDTH, list(range(n)), max_bits=payload_width
        )

        def generator(ctx):
            got = yield from transmit_broadcast(
                ctx, payloads[ctx.node_id], payload_width
            )
            return sorted((s, p.to_uint()) for s, p in got.items())

        def run(engine, prog, inputs):
            network = Network(
                n=n, bandwidth=WIDTH, mode=Mode.BROADCAST, engine=engine,
                fault_plan=plan,
            )
            return network.run(prog, inputs=inputs)

        kern = run("kernel", program, payloads)
        gen = run("legacy", generator, None)
        assert [
            sorted((s, p.to_uint()) for s, p in out.items())
            for out in kern.outputs
        ] == gen.outputs
        assert kern.faults == gen.faults
        assert any(e.kind == "corrupt" for e in kern.faults)

    def test_kernel_unicast_corrupt_parity(self):
        n, payload_width = 5, 9
        plan = FaultPlan(seed=21, corrupt_rate=0.3)
        links = [(s, d) for s in range(n) for d in range(n) if s != d]
        payload_maps = {
            (s, d): Bits((s * 131 + d * 17) & 0x1FF, payload_width) for s, d in links
        }
        program = transmit_unicast_kernel_program(
            n, WIDTH, links, max_bits=payload_width
        )

        def generator(ctx):
            got = yield from transmit_unicast(
                ctx,
                {d: payload_maps[(ctx.node_id, d)] for s, d in links if s == ctx.node_id},
                payload_width,
            )
            return sorted((s, p.to_uint()) for s, p in got.items())

        node_inputs = [
            {d: payload_maps[(v, d)] for d in range(n) if d != v}
            for v in range(n)
        ]

        def outcome(engine, prog, inputs, normalize):
            # A corrupted length header is *supposed* to explode during
            # reassembly (DecodeError is detection, not breakage); the
            # parity contract is that both engines either produce the
            # same outputs or die the same way.
            try:
                result = Network(
                    n=n, bandwidth=WIDTH, engine=engine, fault_plan=plan
                ).run(prog, inputs=inputs)
            except ReproError as exc:
                return ("err", type(exc).__name__, str(exc))
            return ("ok", normalize(result.outputs), result.faults)

        kern = outcome(
            "kernel",
            program,
            node_inputs,
            lambda outs: [
                sorted((s, p.to_uint()) for s, p in out.items()) for out in outs
            ],
        )
        gen = outcome("legacy", generator, None, lambda outs: outs)
        assert kern == gen

    def test_kernel_run_many_shares_schedule(self):
        n, payload_width = 4, 7
        plan = FaultPlan(seed=8, corrupt_rate=0.3)
        program = transmit_broadcast_kernel_program(
            n, WIDTH, list(range(n)), max_bits=payload_width
        )
        inputs = [
            [Bits((v * 37 + k) & 0x7F, payload_width) for v in range(n)]
            for k in range(3)
        ]
        network = Network(
            n=n, bandwidth=WIDTH, mode=Mode.BROADCAST, engine="kernel",
            fault_plan=plan,
        )
        results = network.run_many(program, inputs)
        singles = [
            Network(
                n=n, bandwidth=WIDTH, mode=Mode.BROADCAST, engine="kernel",
                fault_plan=plan,
            ).run(program, inputs=inp)
            for inp in inputs
        ]
        for got, want in zip(results, singles):
            assert got.outputs == want.outputs
            assert got.faults == want.faults


class TestZeroOverheadPath:
    def test_no_plan_means_no_fault_machinery(self):
        network = Network(n=4, bandwidth=WIDTH)
        assert network.fault_plan is None
        assert network._fault_session() is None
        result = network.run(chatter_program(2))
        assert result.faults is None

    def test_inactive_plan_is_a_noop(self):
        idle = FaultPlan(seed=42)
        clean = run_outputs("fast", None)
        carried = run_outputs("fast", idle)
        assert carried.outputs == clean.outputs
        assert carried.faults is None
        network = Network(n=4, bandwidth=WIDTH, fault_plan=idle)
        assert network._fault_session() is None

    def test_fast_engine_keeps_lanes_without_plan(self, int_rounds):
        # Under an active plan every round carries Bits, so the plan
        # sees each message as it always has; without one, fixed-width
        # rounds cross the wire as ints.
        def dense(ctx):
            dests = [v for v in range(ctx.n) if v != ctx.node_id]
            yield Outbox.fixed_width(dests, [1] * len(dests), 2)
            return ctx.node_id

        Network(n=10, bandwidth=WIDTH).run(dense)
        assert int_rounds == [2]
        chaotic = Network(
            n=10, bandwidth=WIDTH, fault_plan=FaultPlan(seed=1, drop_rate=0.3)
        )
        chaotic.run(dense)
        assert int_rounds == [2]


UNICAST_LINKS = [(0, 1), (1, 2), (2, 0)]
BROADCAST_LINKS = [(0, None), (1, None), (2, None)]
LINK_IDS = ["unicast", "broadcast"]


class TestKernelFaultKinds:
    """:meth:`FaultSession.apply_kernel` on flat ``K × count`` payload
    matrices, one fault kind at a time, for unicast links and for
    blackboard words (``dst=None``)."""

    @staticmethod
    def session(links, **plan):
        broadcast = links[0][1] is None
        return FaultSession(FaultPlan(**plan), 3, broadcast)

    @staticmethod
    def sent(*values):
        import numpy as np

        # Two instances, one column per declared message.
        return np.array([values, [v + 100 for v in values]], dtype=np.uint64)

    @pytest.mark.parametrize("links", [UNICAST_LINKS, BROADCAST_LINKS], ids=LINK_IDS)
    def test_drop_reads_zero_and_leaves_sent_matrix(self, links):
        src, dst = links[0]
        session = self.session(links, triggers={(1, src, dst): "drop"})
        sent = self.sent(3, 5, 7)
        got = session.apply_kernel(1, sent, links, WIDTH)
        assert got.tolist() == [[0, 5, 7], [0, 105, 107]]
        assert sent.tolist() == [[3, 5, 7], [103, 105, 107]]
        assert session.events == [FaultEvent(1, src, dst, "drop")]
        # A round no fault touches comes back as the very same array.
        clean = self.sent(1, 2, 3)
        assert session.apply_kernel(2, clean, links, WIDTH) is clean

    @pytest.mark.parametrize("links", [UNICAST_LINKS, BROADCAST_LINKS], ids=LINK_IDS)
    def test_corrupt_flips_the_plan_bit(self, links):
        src, dst = links[1]
        session = self.session(links, seed=4, triggers={(1, src, dst): "corrupt"})
        widths = [2, 5, 8]
        bit = session.plan.corrupt_bit(1, src, dst, widths[1])
        assert bit < widths[1]
        sent = self.sent(3, 5, 7)
        got = session.apply_kernel(1, sent, links, 8, widths)
        assert got[:, 1].tolist() == [5 ^ (1 << bit), 105 ^ (1 << bit)]
        assert got[:, [0, 2]].tolist() == sent[:, [0, 2]].tolist()
        assert sent.tolist() == [[3, 5, 7], [103, 105, 107]]
        assert session.events == [FaultEvent(1, src, dst, "corrupt", bit)]

    def test_corrupt_on_object_payloads(self):
        import numpy as np

        session = self.session(UNICAST_LINKS, seed=2, triggers={(1, 2, 0): "corrupt"})
        sent = np.empty((1, 3), dtype=object)
        sent[0] = [1 << 80, 2, 3]
        got = session.apply_kernel(1, sent, UNICAST_LINKS, 90)
        (event,) = session.events
        assert got[0].tolist() == [1 << 80, 2, 3 ^ (1 << event.detail)]
        assert sent[0].tolist() == [1 << 80, 2, 3]

    @pytest.mark.parametrize("links", [UNICAST_LINKS, BROADCAST_LINKS], ids=LINK_IDS)
    def test_delay_resurfaces_only_into_an_emptied_slot(self, links):
        src, dst = links[0]
        session = self.session(
            links,
            triggers={(1, src, dst): "delay", (3, src, dst): "drop"},
            delay_rounds=2,
        )
        first = session.apply_kernel(1, self.sent(3, 5, 7), links, WIDTH)
        assert first[:, 0].tolist() == [0, 0]
        # Round 2 is not due yet; round 3 dropped the fresh message, so
        # the late payload fills its slot.
        second = self.sent(4, 6, 8)
        assert session.apply_kernel(2, second, links, WIDTH) is second
        third = session.apply_kernel(3, self.sent(30, 50, 70), links, WIDTH)
        assert third.tolist() == [[3, 50, 70], [103, 150, 170]]
        assert [(e.round, e.kind, e.detail) for e in session.events] == [
            (1, "delay", 3),
            (3, "drop", None),
        ]

    @pytest.mark.parametrize("links", [UNICAST_LINKS, BROADCAST_LINKS], ids=LINK_IDS)
    def test_late_payload_never_displaces_a_fresh_one(self, links):
        src, dst = links[0]
        session = self.session(links, triggers={(1, src, dst): "delay"})
        session.apply_kernel(1, self.sent(3, 5, 7), links, WIDTH)
        fresh = self.sent(4, 6, 8)
        assert session.apply_kernel(2, fresh, links, WIDTH).tolist() == fresh.tolist()
        # Nor does it land on a round that does not carry its link.
        session = self.session(
            links, triggers={(1, src, dst): "delay", (2, *links[1]): "drop"}
        )
        session.apply_kernel(1, self.sent(3, 5, 7), links, WIDTH)
        got = session.apply_kernel(2, self.sent(4, 6), links[1:], WIDTH)
        assert got.tolist() == [[0, 6], [0, 106]]

    @pytest.mark.parametrize("links", [UNICAST_LINKS, BROADCAST_LINKS], ids=LINK_IDS)
    def test_duplicate_keeps_original_and_fills_an_empty_slot(self, links):
        src, dst = links[2]
        session = self.session(
            links,
            triggers={(1, src, dst): "duplicate", (2, src, dst): "drop"},
        )
        sent = self.sent(3, 5, 7)
        first = session.apply_kernel(1, sent, links, WIDTH)
        assert first.tolist() == sent.tolist()
        second = session.apply_kernel(2, self.sent(4, 6, 8), links, WIDTH)
        assert second.tolist() == [[4, 6, 7], [104, 106, 107]]
        assert [(e.round, e.kind, e.detail) for e in session.events] == [
            (1, "duplicate", 2),
            (2, "drop", None),
        ]

    @pytest.mark.parametrize("links", [UNICAST_LINKS, BROADCAST_LINKS], ids=LINK_IDS)
    def test_crash_omits_from_the_crash_round_on(self, links):
        session = self.session(links, crashes={1: 2})
        sent = self.sent(3, 5, 7)
        assert session.apply_kernel(1, sent, links, WIDTH) is sent
        for r in (2, 3):
            got = session.apply_kernel(r, self.sent(3, 5, 7), links, WIDTH)
            assert got.tolist() == [[3, 0, 7], [103, 0, 107]]
        assert session.events == [FaultEvent(2, 1, None, "crash")]

    def test_kernel_run_with_explicit_triggers(self):
        # Each writer broadcasts a 12-bit payload as two 8-bit frames
        # (a 4-bit length header first); the triggers hit one writer
        # each and the outputs decode exactly what the slots held.
        from repro.core.phases import _decode_frames

        n, max_bits = 6, 12
        payloads = [Bits((v * 1237 + 5) & 0xFFF, max_bits) for v in range(n)]
        frames = [_frame_payload(p, max_bits, 2, WIDTH) for p in payloads]
        plan = FaultPlan(
            seed=3,
            triggers={
                (1, 0, None): "drop",
                (1, 1, None): "duplicate",
                (2, 1, None): "drop",
                (2, 2, None): "corrupt",
                (1, 3, None): "delay",
                (2, 3, None): "drop",
            },
            crashes={4: 2},
        )
        bit = plan.corrupt_bit(2, 2, None, WIDTH)
        heard = [
            [0, frames[0][1]],
            [frames[1][0], frames[1][0]],
            [frames[2][0], frames[2][1] ^ (1 << bit)],
            [0, frames[3][0]],
            [frames[4][0], 0],
            frames[5],
        ]
        program = transmit_broadcast_kernel_program(
            n, WIDTH, list(range(n)), max_bits=max_bits
        )
        result = Network(
            n=n, bandwidth=WIDTH, mode=Mode.BROADCAST, engine="kernel",
            fault_plan=plan,
        ).run(program, inputs=payloads)
        decoded = [_decode_frames(f, WIDTH, max_bits) for f in heard]
        for v, out in enumerate(result.outputs):
            assert out == {w: decoded[w] for w in range(n) if w != v}
        assert result.faults == [
            FaultEvent(1, 0, None, "drop"),
            FaultEvent(1, 1, None, "duplicate", 2),
            FaultEvent(1, 3, None, "delay", 2),
            FaultEvent(2, 1, None, "drop"),
            FaultEvent(2, 2, None, "corrupt", bit),
            FaultEvent(2, 3, None, "drop"),
            FaultEvent(2, 4, None, "crash"),
        ]


class TestRoundLimitWatchdog:
    def chatty(self, rounds):
        return chatter_program(rounds)

    @pytest.mark.parametrize("engine", ["legacy", "fast"])
    def test_watchdog_trips_with_context(self, engine):
        network = Network(n=4, bandwidth=WIDTH, engine=engine, round_limit=3)
        with pytest.raises(RoundLimitExceeded, match=r"watchdog.*after 3 rounds.*round_limit 3"):
            network.run(self.chatty(10))

    @pytest.mark.parametrize("engine", ["legacy", "fast"])
    def test_under_limit_passes(self, engine):
        network = Network(n=4, bandwidth=WIDTH, engine=engine, round_limit=3)
        result = network.run(self.chatty(3))
        assert result.rounds == 3

    def test_watchdog_is_a_max_rounds_error(self):
        network = Network(n=4, bandwidth=WIDTH, round_limit=2)
        with pytest.raises(MaxRoundsExceededError):
            network.run(self.chatty(5))

    def test_max_rounds_still_raises_base_error(self):
        network = Network(n=4, bandwidth=WIDTH, max_rounds=2)
        try:
            network.run(self.chatty(5))
        except RoundLimitExceeded:  # pragma: no cover - would be a bug
            pytest.fail("max_rounds must not masquerade as the watchdog")
        except MaxRoundsExceededError:
            pass

    def test_kernel_declared_rounds_checked_upfront(self):
        n, payload_width = 4, 20
        program = transmit_broadcast_kernel_program(
            n, WIDTH, list(range(n)), max_bits=payload_width
        )
        network = Network(
            n=n, bandwidth=WIDTH, mode=Mode.BROADCAST, round_limit=1
        )
        with pytest.raises(RoundLimitExceeded, match="round_limit 1"):
            network.run(program, inputs=[Bits(0, payload_width)] * n)

    def test_round_limit_validation(self):
        with pytest.raises(ValueError):
            Network(n=4, bandwidth=WIDTH, round_limit=0)


class TestResilientPhases:
    def test_redundant_broadcast_discards_oversized_copies(self):
        # Node 0 broadcasts one honest copy and two whose length header
        # (31) exceeds max_bits (19) although the 38-bit stream holds 31
        # bits after it: those copies must be discarded, not outvote
        # the honest one.
        max_bits = width = 19
        rounds = phase_length(max_bits, width)
        honest = Bits.from_uint(0x5A5A5, max_bits)
        good = _frame_payload(honest, max_bits, rounds, width)
        bad = Bits((31 << 33) | 0x1F0F0F0F, rounds * width).to_uint_chunks(width)

        def program(ctx):
            if ctx.node_id != 0:
                got = yield from transmit_broadcast_redundant(
                    ctx, None, max_bits, copies=3
                )
                return got
            for frames in (good, bad, bad):
                for frame in frames:
                    yield Outbox.broadcast_uint(frame, width)
            return None

        for engine in ("legacy", "fast"):
            network = Network(
                n=2, bandwidth=width, mode=Mode.BROADCAST, engine=engine
            )
            result = network.run(program)
            assert result.outputs[1] == {0: honest}

    def test_redundant_broadcast_outvotes_corruption(self):
        n, payload_width = 5, 9
        plan = FaultPlan(seed=23, corrupt_rate=0.12)
        truth = {v: (v * 191) & 0x1FF for v in range(n)}

        def plain(ctx):
            got = yield from transmit_broadcast(
                ctx, Bits(truth[ctx.node_id], payload_width), payload_width
            )
            return sorted((s, p.to_uint()) for s, p in got.items())

        def redundant(ctx):
            got = yield from transmit_broadcast_redundant(
                ctx, Bits(truth[ctx.node_id], payload_width), payload_width,
                copies=3,
            )
            return sorted((s, p.to_uint()) for s, p in got.items())

        def wrong(result):
            return sum(
                1
                for out in result.outputs
                for s, value in out
                if value != truth[s]
            )

        kwargs = dict(n=n, bandwidth=WIDTH, mode=Mode.BROADCAST, fault_plan=plan)
        assert wrong(Network(**kwargs).run(plain)) > 0, "plan never corrupted — retune"
        assert wrong(Network(**kwargs).run(redundant)) == 0
        clean = Network(n=n, bandwidth=WIDTH, mode=Mode.BROADCAST).run(redundant)
        assert wrong(clean) == 0
        assert clean.rounds == 3 * phase_length(payload_width, WIDTH)

    def test_redundant_requires_positive_copies(self):
        def program(ctx):
            yield from transmit_broadcast_redundant(ctx, None, 4, copies=0)

        with pytest.raises(ValueError, match="copies"):
            Network(n=3, bandwidth=WIDTH, mode=Mode.BROADCAST).run(program)


class TestDeliveryErrorContext:
    def test_bandwidth_error_names_round_and_link(self):
        def program(ctx):
            # Dict outbox with heterogeneous widths: the fully
            # validating scalar delivery path on every engine.
            yield Outbox.silent()
            yield Outbox.unicast(
                {(ctx.node_id + 1) % ctx.n: Bits(0xFFFF, 16)}
            )

        from repro.core.errors import BandwidthExceededError

        for engine in ("legacy", "fast"):
            network = Network(n=3, bandwidth=WIDTH, engine=engine)
            with pytest.raises(BandwidthExceededError, match="in round 2"):
                network.run(program)


class TestTheorem2Chaos:
    """The Theorem 2 protocols under corrupt+drop plans, on every
    engine: a cell may fail, but only with a ``ReproError`` — a routed
    payload that never arrives raises ``SimulationPlanError``, a
    triangle report of the wrong length ``DecodeError``."""

    @pytest.mark.parametrize("protocol", ["circuit_simulation", "triangle_mm"])
    def test_failures_are_repro_errors(self, protocol):
        from repro.core import errors
        from repro.scenarios import ScenarioMatrix

        failed = []
        for seed in range(1, 5):
            result = ScenarioMatrix(
                [protocol], ["gnp", "complete"], [6, 8],
                engines=["legacy", "fast", "kernel"],
                seed=seed,
                fault_plan=FaultPlan(seed=seed, corrupt_rate=0.08, drop_rate=0.05),
            ).run()
            failed += [c for c in result.cells if c.status == "failed"]
        assert failed, "the plans never broke a run — retune the sweep"
        bare = [
            (c.family, c.n, c.engine, c.error)
            for c in failed
            if not issubclass(getattr(errors, c.error_type or "", type), ReproError)
        ]
        assert bare == []


class TestSelfCheckingMatrix:
    def test_chaos_sweep_detects_every_injection(self):
        from repro.scenarios.matrix import ScenarioMatrix

        plan = FaultPlan(seed=11, corrupt_rate=0.08, drop_rate=0.05)
        matrix = ScenarioMatrix(
            ["routing"], ["gnp"], [6, 8],
            engines=["legacy", "fast"], seed=3,
            fault_plan=plan,
        )
        result = matrix.run()
        injected = result.injected_cells()
        assert injected, "plan injected nothing — retune the sweep"
        assert result.silent_passes() == []
        assert result.fault_reports()
        assert result.meta["fault_plan"]["seed"] == 11
        for cell in injected:
            assert cell.clean_digest is not None
            assert cell.detected is True

    def test_ok_cell_whose_reference_failed_is_a_mismatch(self):
        from repro.scenarios.matrix import ScenarioMatrix

        # Under heavy drops the legacy run of the Theorem 2 simulation
        # raises, while the kernel run, where a dropped message reads
        # as 0, completes.  A failed reference vouches for nothing: the
        # kernel cell must not count as matching it.
        result = ScenarioMatrix(
            ["circuit_simulation"], ["gnp"], [6],
            engines=["legacy", "kernel"], seed=8,
            fault_plan=FaultPlan(seed=10, drop_rate=0.3),
        ).run()
        legacy, kernel = result.cells
        assert legacy.status == "failed"
        assert legacy.error_type == "SimulationPlanError"
        assert kernel.status == "ok"
        assert kernel.matches_reference is False
        assert kernel in result.mismatches()
        assert kernel.detected is True

    def test_failed_cells_persist_forensics(self):
        from repro.scenarios.matrix import ScenarioMatrix

        # Crash node 0 from round 1: routing loses frames and the cell
        # must land as failed-or-detected with a persisted error type.
        plan = FaultPlan(crashes={0: 1})
        matrix = ScenarioMatrix(
            ["circuit_simulation"], ["gnp"], [6], engines=["legacy"], seed=3,
            fault_plan=plan,
        )
        result = matrix.run()
        (cell,) = result.cells
        assert cell.detected is True
        if cell.status == "failed":
            assert cell.error_type
            assert cell.traceback_digest
            record = cell.to_dict()
            assert record["error_type"] == cell.error_type
            assert record["traceback_digest"] == cell.traceback_digest


class TestFaultPlanSerialization:
    """JSON round-trip: chaos plans must cross process boundaries (the
    sharded sweep pool ships them to workers) without changing a single
    coin of the schedule."""

    GRID = [
        (r, s, d)
        for r in range(1, 6)
        for s in range(5)
        for d in [None, *range(5)]
    ]

    def _schedule(self, plan, nodes=5):
        return (
            [plan.fault_for(*coord) for coord in self.GRID],
            [plan.crash_round(node) for node in range(nodes)],
            [
                plan.corrupt_bit(r, s, d, WIDTH)
                for (r, s, d) in self.GRID
                if plan.fault_for(r, s, d) == "corrupt"
            ],
        )

    def test_round_trip_identity(self):
        restored = FaultPlan.from_json(CHAOS.to_json())
        assert restored.to_dict() == CHAOS.to_dict()
        assert restored.to_json() == CHAOS.to_json()

    def test_round_trip_schedule_equality(self):
        plan = FaultPlan(
            seed=11,
            drop_rate=0.2,
            corrupt_rate=0.15,
            duplicate_rate=0.1,
            delay_rate=0.1,
            crash_rate=0.3,
            crash_horizon=8,
            crashes={2: 4},
            triggers={(1, 0, 3): "drop", (2, 1, None): "corrupt"},
            from_round=1,
            until_round=5,
            delay_rounds=2,
        )
        restored = FaultPlan.from_json(plan.to_json())
        assert self._schedule(restored) == self._schedule(plan)
        # Native key types survived: int node keys, tuple triggers with
        # None for the broadcast wildcard.
        assert restored.crashes == {2: 4}
        assert restored.triggers[(2, 1, None)] == "corrupt"

    def test_default_plan_round_trips(self):
        plan = FaultPlan()
        assert FaultPlan.from_json(plan.to_json()).to_dict() == plan.to_dict()

    def test_from_json_rejects_garbage(self):
        with pytest.raises(FaultInjectionError):
            FaultPlan.from_json("not json {")
        with pytest.raises(FaultInjectionError):
            FaultPlan.from_json("[1, 2, 3]")

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(FaultInjectionError):
            FaultPlan.from_dict({"seed": 1, "warp_rate": 0.5})

    def test_from_dict_rejects_malformed_triggers(self):
        with pytest.raises(FaultInjectionError):
            FaultPlan.from_dict({"triggers": {"1-0-2": "drop"}})
        with pytest.raises(FaultInjectionError):
            FaultPlan.from_dict({"crashes": {"node three": 1}})

    def test_invalid_values_still_fail_validation(self):
        # from_dict goes through __init__, so semantic validation (not
        # just shape validation) applies to deserialized plans too.
        with pytest.raises(FaultInjectionError):
            FaultPlan.from_dict({"drop_rate": 1.5})

    def test_faulted_run_identical_under_round_trip(self):
        restored = FaultPlan.from_json(CHAOS.to_json())
        original = run_outputs("legacy", CHAOS)
        replayed = run_outputs("legacy", restored)
        assert original.outputs == replayed.outputs
        assert [e.to_dict() for e in original.faults] == [
            e.to_dict() for e in replayed.faults
        ]
