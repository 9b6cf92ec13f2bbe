"""Int wire vs. Bits path on the legacy engine: byte-identical
RunResults.

The legacy loop's fixed-width rounds cross the wire as ints unless a
fault plan is active.  The two paths must be observationally
indistinguishable, down to an inbox read after its round has ended.
These tests run representative programs and phases with full
transcripts, once as they are and once under an active fault plan that
never fires (every round as Bits), and compare every field of the
RunResult; matmul triangle detection is compared with its kernel form
the same way.  The ``run_many`` contract is pinned too: one sweep
equals sequential ``run`` calls on the legacy reference, for
hand-written, protocol and fuzzed programs.
"""

from __future__ import annotations

import random

import pytest

from repro.core.bits import Bits
from repro.core.faults import FaultPlan
from repro.core.network import Mode, Network, Outbox
from repro.core.phases import transmit_broadcast, transmit_unicast
from repro.graphs import random_graph
from repro.matmul.distributed import detect_triangle_mm
from repro.routing import route_payloads


def assert_identical(a, b):
    assert a.outputs == b.outputs
    assert a.rounds == b.rounds
    assert a.total_bits == b.total_bits
    assert a.max_round_bits == b.max_round_bits
    assert (a.transcript is None) == (b.transcript is None)
    if a.transcript is not None:
        assert len(a.transcript) == len(b.transcript)
        for rec_a, rec_b in zip(a.transcript, b.transcript):
            assert rec_a.sends == rec_b.sends


#: Active, so every round takes the Bits path, and never firing.
BITS_PATH = FaultPlan(triggers={(10**9, 0, 1): "drop"})


def run_both(program_factory, n, bandwidth, mode=Mode.UNICAST, inputs=None, **kwargs):
    """Run the program on the int wire and on the Bits path, assert the
    two results identical, and return the first."""
    results = [
        Network(
            n=n,
            bandwidth=bandwidth,
            mode=mode,
            record_transcript=True,
            fault_plan=fault_plan,
            **kwargs,
        ).run(program_factory(), inputs=inputs)
        for fault_plan in (None, BITS_PATH)
    ]
    assert_identical(results[0], results[1])
    return results[0]


class TestRoutingEquivalence:
    def test_route_payloads(self):
        n, frame_size = 8, 4
        rng = random.Random(7)
        lengths = {}
        contents = {}
        for src in range(n):
            for dst in range(n):
                if src != dst and rng.random() < 0.6:
                    bits = rng.randint(1, 17)
                    lengths[(src, dst)] = bits
                    contents[(src, dst)] = Bits.from_uint(rng.getrandbits(bits), bits)

        def factory():
            def program(ctx):
                mine = {
                    dst: contents[(ctx.node_id, dst)]
                    for (src, dst) in lengths
                    if src == ctx.node_id
                }
                received = yield from route_payloads(ctx, lengths, mine, frame_size)
                return sorted((src, p.to_str()) for src, p in received.items())

            return program

        result = run_both(factory, n=n, bandwidth=frame_size)
        for dst in range(n):
            expected = sorted(
                (src, contents[(src, dst)].to_str())
                for (src, d) in lengths
                if d == dst
            )
            assert result.outputs[dst] == expected


class TestMatmulEquivalence:
    def test_detect_triangle_mm(self):
        # The generator program on legacy and its kernel form on kernel.
        graph = random_graph(6, 0.5, random.Random(2))
        out_generator, res_generator, plan = detect_triangle_mm(
            graph,
            trials=2,
            circuit_kind="naive",
            record_transcript=True,
        )
        out_kernel, res_kernel, _ = detect_triangle_mm(
            graph,
            trials=2,
            circuit_kind="naive",
            record_transcript=True,
            plan=plan,
            kernel=True,
        )
        assert out_generator == out_kernel
        assert_identical(res_generator, res_kernel)


class TestPhaseEquivalence:
    def test_transmit_unicast(self):
        n = 6

        def factory():
            def program(ctx):
                payloads = {
                    dst: Bits.from_uint((ctx.node_id * 31 + dst) % 64, 6)
                    for dst in ctx.neighbors
                    if (ctx.node_id + dst) % 3
                }
                received = yield from transmit_unicast(ctx, payloads, max_bits=6)
                return sorted((s, p.to_uint()) for s, p in received.items())

            return program

        run_both(factory, n=n, bandwidth=3)

    def test_transmit_broadcast(self):
        n = 5

        def factory():
            def program(ctx):
                payload = (
                    Bits.from_uint(ctx.node_id, 4) if ctx.node_id % 2 else None
                )
                received = yield from transmit_broadcast(ctx, payload, max_bits=4)
                return sorted((s, p.to_uint()) for s, p in received.items())

            return program

        run_both(factory, n=n, bandwidth=2, mode=Mode.BROADCAST)

    def test_transmit_unicast_congest(self):
        n = 6
        topo = [[(v + 1) % n, (v - 1) % n] for v in range(n)]

        def factory():
            def program(ctx):
                payloads = {
                    dst: Bits.from_uint(ctx.node_id, 4) for dst in ctx.neighbors
                }
                received = yield from transmit_unicast(ctx, payloads, max_bits=4)
                return sorted((s, p.to_uint()) for s, p in received.items())

            return program

        run_both(factory, n=n, bandwidth=2, mode=Mode.CONGEST, topology=topo)


class TestBlackboardEquivalence:
    def test_broadcast_uint_with_silent_nodes(self):
        def factory():
            def program(ctx):
                seen = []
                for r in range(3):
                    if (ctx.node_id + r) % 3 == 0:
                        inbox = yield Outbox.silent()
                    else:
                        inbox = yield Outbox.broadcast_uint(
                            (ctx.node_id * 13 + r) % 32, 5
                        )
                    seen.append(sorted(inbox.uint_items()))
                return seen

            return program

        run_both(factory, n=6, bandwidth=5, mode=Mode.BROADCAST)

    def test_mixed_width_broadcast_round(self):
        # Different widths in one round: each word keeps its own width on
        # the board.
        def factory():
            def program(ctx):
                width = 3 if ctx.node_id % 2 else 5
                inbox = yield Outbox.broadcast_uint(ctx.node_id, width)
                return sorted((s, p.to_str()) for s, p in inbox.items())

            return program

        run_both(factory, n=4, bandwidth=5, mode=Mode.BROADCAST)

    def test_mixed_bfixed_and_bits_broadcast_round(self):
        def factory():
            def program(ctx):
                if ctx.node_id % 2:
                    inbox = yield Outbox.broadcast_uint(ctx.node_id, 4)
                else:
                    inbox = yield Outbox.broadcast(
                        Bits.from_uint(ctx.node_id, 4)
                    )
                return sorted((s, p.to_uint()) for s, p in inbox.items())

            return program

        run_both(factory, n=5, bandwidth=4, mode=Mode.BROADCAST)

    def test_alternating_writers_across_rounds(self):
        # Fixed-width, Bits and again fixed-width rounds with different
        # writers: each round's board holds only that round's words, so a
        # writer that falls silent is gone from the next round's views.
        def factory():
            def program(ctx):
                me = ctx.node_id
                seen = []
                inbox = yield Outbox.broadcast_uint(me + 1, 4)
                seen.append(tuple(inbox.senders()))
                inbox = yield (
                    Outbox.broadcast(Bits.from_uint(me, 3))
                    if me == 0
                    else Outbox.silent()
                )
                seen.append(tuple(inbox.senders()))
                inbox = yield (
                    Outbox.broadcast_uint(me, 4) if me != 1 else Outbox.silent()
                )
                seen.append(tuple(inbox.senders()))
                return seen

            return program

        result = run_both(factory, n=4, bandwidth=4, mode=Mode.BROADCAST)
        for v, seen in enumerate(result.outputs):
            assert seen[0] == tuple(u for u in range(4) if u != v)
            assert seen[1] == ((0,) if v != 0 else ())
            assert seen[2] == tuple(u for u in range(4) if u != v and u != 1)


class TestCongestSparseEquivalence:
    def test_fixed_width_below_density_threshold(self):
        # A ring keeps every fixed-width outbox at 2 messages; its
        # rounds cross the wire as ints all the same, and must match
        # the Bits path byte for byte.
        n = 8
        topo = [[(v - 1) % n, (v + 1) % n] for v in range(n)]

        def factory():
            def program(ctx):
                seen = []
                for r in range(3):
                    outbox = Outbox.fixed_width_map(
                        {dst: (ctx.node_id * 5 + r) % 16 for dst in ctx.neighbors},
                        4,
                    )
                    inbox = yield outbox
                    seen.append(sorted(inbox.uint_items()))
                return seen

            return program

        run_both(factory, n=n, bandwidth=4, mode=Mode.CONGEST, topology=topo)


class TestRandomProtocolFuzz:
    """Seeded random programs, int wire vs Bits path, byte-for-byte."""

    def _fuzz_unicast(self, seed):
        master = random.Random(seed)
        n = master.randint(3, 7)
        rounds = master.randint(2, 5)
        width_menu = [2, 3, 5, 9]
        # One deterministic script per (node, round), drawn up front so
        # both runs replay the identical protocol.
        script = {}
        for v in range(n):
            for r in range(rounds):
                kind = master.choice(["silent", "unicast", "fixed", "fixed_map"])
                dests = [
                    u
                    for u in range(n)
                    if u != v and master.random() < master.random() + 0.3
                ]
                width = master.choice(width_menu)
                values = [master.randrange(1 << width) for _ in dests]
                script[(v, r)] = (kind, dests, values, width)

        def factory():
            def program(ctx):
                transcript = []
                for r in range(rounds):
                    kind, dests, values, width = script[(ctx.node_id, r)]
                    if kind == "silent" or not dests:
                        inbox = yield Outbox.silent()
                    elif kind == "unicast":
                        inbox = yield Outbox.unicast(
                            {
                                d: Bits.from_uint(val, width)
                                for d, val in zip(dests, values)
                            }
                        )
                    elif kind == "fixed":
                        inbox = yield Outbox.fixed_width(dests, values, width)
                    else:
                        inbox = yield Outbox.fixed_width_map(
                            dict(zip(dests, values)), width
                        )
                    transcript.append(
                        [(s, p.to_str()) for s, p in inbox.items()]
                    )
                return transcript

            return program

        run_both(factory, n=n, bandwidth=max(width_menu))

    def _fuzz_broadcast(self, seed):
        master = random.Random(seed)
        n = master.randint(3, 7)
        rounds = master.randint(2, 5)
        script = {}
        for v in range(n):
            for r in range(rounds):
                kind = master.choice(["silent", "broadcast", "bfixed"])
                width = master.choice([2, 4, 7])
                value = master.randrange(1 << width)
                script[(v, r)] = (kind, value, width)

        def factory():
            def program(ctx):
                transcript = []
                for r in range(rounds):
                    kind, value, width = script[(ctx.node_id, r)]
                    if kind == "silent":
                        inbox = yield Outbox.silent()
                    elif kind == "broadcast":
                        inbox = yield Outbox.broadcast(
                            Bits.from_uint(value, width)
                        )
                    else:
                        inbox = yield Outbox.broadcast_uint(value, width)
                    transcript.append(
                        [(s, p.to_str()) for s, p in inbox.items()]
                    )
                return transcript

            return program

        run_both(factory, n=n, bandwidth=7, mode=Mode.BROADCAST)

    def test_unicast_fuzz(self):
        for seed in range(12):
            self._fuzz_unicast(seed)

    def test_broadcast_fuzz(self):
        for seed in range(12):
            self._fuzz_broadcast(seed)


class TestLaneEdgeCases:
    def test_mixed_width_round_falls_back(self):
        # Nodes yield fixed-width outboxes of *different* widths in the
        # same round; the round must take the Bits path and still match
        # the run that takes it under a fault plan exactly.
        def factory():
            def program(ctx):
                width = 3 if ctx.node_id % 2 else 5
                dest = (ctx.node_id + 1) % ctx.n
                inbox = yield Outbox.fixed_width([dest], [ctx.node_id], width)
                return sorted((s, p.to_str()) for s, p in inbox.items())

            return program

        run_both(factory, n=4, bandwidth=5)

    def test_mixed_fixed_and_dict_round(self):
        def factory():
            def program(ctx):
                dest = (ctx.node_id + 1) % ctx.n
                if ctx.node_id % 2:
                    inbox = yield Outbox.fixed_width([dest], [ctx.node_id], 4)
                else:
                    inbox = yield Outbox.unicast(
                        {dest: Bits.from_uint(ctx.node_id, 4)}
                    )
                return sorted((s, p.to_uint()) for s, p in inbox.items())

            return program

        run_both(factory, n=5, bandwidth=4)

    def test_wide_payloads_use_object_lane(self, int_rounds):
        # Payloads wider than a machine word cross as ints too.
        width = 130

        def factory():
            def program(ctx):
                value = (1 << 129) | ctx.node_id
                dests = [v for v in ctx.neighbors]
                inbox = yield Outbox.fixed_width(
                    dests, [value + d for d in dests], width
                )
                return sorted((s, p.to_uint()) for s, p in inbox.items())

            return program

        result = run_both(factory, n=10, bandwidth=width)
        assert result.total_bits == 10 * 9 * width
        # One int round; the Bits-path run adds none.
        assert int_rounds == [width]

    def test_alternating_lane_and_scalar_rounds(self, int_rounds):
        # Fixed-width rounds (the int wire) around a dict round and a
        # silent one.
        def factory():
            def program(ctx):
                me = ctx.node_id
                dests = list(ctx.neighbors)
                dest = (me + 1) % ctx.n
                seen = []
                inbox = yield Outbox.fixed_width(dests, [me] * len(dests), 4)
                seen.append(tuple(inbox.senders()))
                inbox = yield Outbox.unicast({dest: Bits.from_uint(me, 4)})
                seen.append(tuple(inbox.senders()))
                inbox = yield Outbox.fixed_width(dests, [me + 1] * len(dests), 4)
                seen.append(tuple(inbox.senders()))
                inbox = yield Outbox.silent()
                seen.append(tuple(inbox.senders()))
                return seen

            return program

        result = run_both(factory, n=10, bandwidth=4)
        for v, seen in enumerate(result.outputs):
            others = tuple(u for u in range(10) if u != v)
            assert seen == [others, ((v - 1) % 10,), others, ()]
        # Rounds 1 and 3 as ints; the Bits-path run adds none.
        assert int_rounds == [4, 4]


def _stash_value(r, u, v):
    return (r * 100 + u * 7 + v) % 256


def _round_outbox(kind, ctx, r, width):
    """Round ``r``'s outbox of one round kind: node ``u`` sends
    ``_stash_value(r, u, v)`` to every other node ``v`` (a broadcast
    carries ``_stash_value(r, u, 0)``)."""
    me = ctx.node_id
    if kind == "broadcast_uint":
        return Outbox.broadcast_uint(_stash_value(r, me, 0), width)
    dests = list(ctx.neighbors)
    values = [_stash_value(r, me, d) for d in dests]
    if kind == "dense_fixed":
        return Outbox.fixed_width(dests, values, width)
    return Outbox.unicast(
        {d: Bits.from_uint(x, width) for d, x in zip(dests, values)}
    )


class TestInboxLifetime:
    @pytest.mark.parametrize("engine", ["legacy"])
    @pytest.mark.parametrize("kind", ["dict_unicast", "dense_fixed", "broadcast_uint"])
    def test_stashed_inbox_keeps_its_round(self, kind, engine):
        # A program keeps round 1's inbox, unread, and reads it only
        # after round 2 has been delivered.  The fixed-width rounds
        # cross the wire as ints.
        n, width = 10, 8
        mode = Mode.BROADCAST if kind == "broadcast_uint" else Mode.UNICAST

        def program(ctx):
            stash = yield _round_outbox(kind, ctx, 1, width)
            yield _round_outbox(kind, ctx, 2, width)
            return (
                stash.uint_items(),
                [(s, p.to_uint()) for s, p in stash.items()],
                [stash.get(s).to_uint() for s in stash.senders()],
            )

        network = Network(n=n, bandwidth=width, mode=mode, engine=engine)
        result = network.run(program)
        for v, (uints, items, gets) in enumerate(result.outputs):
            expected = [
                (u, _stash_value(1, u, 0 if kind == "broadcast_uint" else v))
                for u in range(n)
                if u != v
            ]
            assert uints == expected
            assert items == expected
            assert gets == [x for _, x in expected]


# -- run_many contract ----------------------------------------------------


def reference_results(program, inputs_list, **net_kwargs):
    """Golden sequence: one legacy-engine run per instance."""
    network = Network(engine="legacy", **net_kwargs)
    return [network.run(program, inputs) for inputs in inputs_list]


def fixed_allto_program(rounds, width=16):
    def program(ctx):
        me = ctx.node_id
        base = 0 if ctx.input is None else int(ctx.input)
        for r in range(rounds):
            dests = list(ctx.neighbors)
            values = [(me * 31 + d * 7 + r + base) % (1 << width) for d in dests]
            yield Outbox.fixed_width(dests, values, width)
        return me

    return program


class TestRepeatedRuns:
    def test_seed_reassignment_invalidates_rng_cache(self):
        def program(ctx):
            yield Outbox.silent()
            return (ctx.rng.random(), ctx.shared_rng.random())

        network = Network(n=3, bandwidth=4, seed=0)
        before = network.run(program)
        network.seed = 1
        after = network.run(program)
        assert before.outputs != after.outputs
        fresh = Network(n=3, bandwidth=4, seed=1).run(program)
        assert after.outputs == fresh.outputs


class TestRunMany:
    def test_matches_sequential_and_legacy(self):
        program = fixed_allto_program(3)
        inputs_list = [[k] * 6 for k in range(5)]
        netw = Network(n=6, bandwidth=16)
        batched = netw.run_many(program, inputs_list)
        sequential = [
            Network(n=6, bandwidth=16).run(program, inputs)
            for inputs in inputs_list
        ]
        golden = reference_results(program, inputs_list, n=6, bandwidth=16)
        assert len(batched) == 5
        for got, seq, want in zip(batched, sequential, golden):
            assert_identical(got, want)
            assert_identical(seq, want)

    def test_empty_and_single(self):
        program = fixed_allto_program(2)
        netw = Network(n=4, bandwidth=16)
        assert netw.run_many(program, []) == []
        (only,) = netw.run_many(program, [None])
        (golden,) = reference_results(program, [None], n=4, bandwidth=16)
        assert_identical(only, golden)

    def test_legacy_engine_runs_sequentially(self):
        program = fixed_allto_program(2)
        netw = Network(n=4, bandwidth=16, engine="legacy")
        results = netw.run_many(program, [None, None])
        golden = reference_results(program, [None, None], n=4, bandwidth=16)
        for got, want in zip(results, golden):
            assert_identical(got, want)

    def test_transcripts_run_sequentially(self):
        program = fixed_allto_program(2)
        netw = Network(n=4, bandwidth=16, record_transcript=True)
        results = netw.run_many(program, [None, None])
        golden = reference_results(
            program, [None, None], n=4, bandwidth=16, record_transcript=True
        )
        for got, want in zip(results, golden):
            assert_identical(got, want)

    def test_input_length_validated_up_front(self):
        from repro.core.errors import ProtocolError

        program = fixed_allto_program(1)
        netw = Network(n=4, bandwidth=16)
        with pytest.raises(ProtocolError):
            netw.run_many(program, [[1, 2, 3]])  # 3 inputs, 4 nodes


class TestRunManyProtocols:
    """Routing, phase, simulation and matmul protocols produce
    byte-identical results under run_many."""

    def test_routing(self):
        from repro.routing import build_schedule, route_program

        n, frame_size = 8, 6
        rng = random.Random(3)
        demand = {}
        for src in range(n):
            for dst in range(n):
                if src != dst and rng.random() < 0.5:
                    demand[(src, dst)] = rng.randint(1, 2)
        schedule = build_schedule(demand, n)
        program = route_program(schedule, frame_size)

        def make_inputs(seed):
            contents = random.Random(seed)
            per_node = [dict() for _ in range(n)]
            for (src, dst), count in demand.items():
                for idx in range(count):
                    per_node[src][(src, dst, idx)] = contents.getrandbits(
                        frame_size
                    )
            return per_node

        inputs_list = [make_inputs(k) for k in range(4)]
        netw = Network(n=n, bandwidth=frame_size)
        batched = netw.run_many(program, inputs_list)
        golden = reference_results(program, inputs_list, n=n, bandwidth=frame_size)
        for got, want in zip(batched, golden):
            assert_identical(got, want)

    def test_phases(self):
        n, max_bits = 6, 11

        def unicast_phase(ctx):
            payloads = {
                dst: Bits.from_uint(
                    (ctx.node_id * 13 + dst + ctx.input) % (1 << max_bits),
                    max_bits,
                )
                for dst in ctx.neighbors
            }
            received = yield from transmit_unicast(ctx, payloads, max_bits=max_bits)
            return sorted((s, p.to_uint()) for s, p in received.items())

        inputs_list = [[k] * n for k in range(4)]
        netw = Network(n=n, bandwidth=4)
        batched = netw.run_many(unicast_phase, inputs_list)
        golden = reference_results(unicast_phase, inputs_list, n=n, bandwidth=4)
        for got, want in zip(batched, golden):
            assert_identical(got, want)

        def broadcast_phase(ctx):
            payload = Bits.from_uint(
                (ctx.node_id * 29 + ctx.input) % (1 << max_bits), max_bits
            )
            received = yield from transmit_broadcast(ctx, payload, max_bits=max_bits)
            return sorted((s, p.to_uint()) for s, p in received.items())

        netb = Network(n=n, bandwidth=4, mode=Mode.BROADCAST)
        batched = netb.run_many(broadcast_phase, inputs_list)
        golden = reference_results(
            broadcast_phase, inputs_list, n=n, bandwidth=4, mode=Mode.BROADCAST
        )
        for got, want in zip(batched, golden):
            assert_identical(got, want)

    def test_simulation(self):
        from repro.circuits.builders import parity_tree
        from repro.simulation import make_program, simulate_circuit_many

        circuit = parity_tree(16, 4)
        rng = random.Random(11)
        vectors = [
            [rng.random() < 0.5 for _ in range(circuit.num_inputs)]
            for _ in range(3)
        ]
        outputs, results, plan = simulate_circuit_many(circuit, 6, vectors)
        program = make_program(plan)
        n = 6
        inputs_list = []
        partition = [i % n for i in range(circuit.num_inputs)]
        for vec in vectors:
            per_node = [dict() for _ in range(n)]
            for position, gid in enumerate(circuit.input_ids):
                per_node[partition[position]][gid] = bool(vec[position])
            inputs_list.append(per_node)
        golden = reference_results(
            program, inputs_list, n=n, bandwidth=plan.bandwidth
        )
        for got, want, vec in zip(results, golden, vectors):
            assert_identical(got, want)
            expected = circuit.evaluate(vec)
            merged = {}
            for node_output in got.outputs:
                if node_output:
                    merged.update(node_output)
            assert all(merged[g] == expected[g] for g in circuit.outputs)

    def test_matmul(self):
        from repro.matmul.distributed import (
            detect_triangle_mm_many,
            triangle_mm_program,
        )

        graphs = [random_graph(6, p, random.Random(i)) for i, p in enumerate((0.2, 0.5, 0.8))]
        outcomes, results, plan = detect_triangle_mm_many(
            graphs, trials=2, circuit_kind="naive"
        )
        program = triangle_mm_program(graphs[0], plan, 2)
        inputs_list = [
            [
                [1 if g.has_edge(v, u) else 0 for u in range(6)]
                for v in range(6)
            ]
            for g in graphs
        ]
        golden = reference_results(
            program, inputs_list, n=6, bandwidth=plan.bandwidth
        )
        for got, want in zip(results, golden):
            assert_identical(got, want)
        for graph, outcome in zip(graphs, outcomes):
            seq_outcome, _, _ = detect_triangle_mm(
                graph, trials=2, circuit_kind="naive", plan=plan
            )
            assert outcome == seq_outcome


class TestRunManyFuzz:
    """Seeded fuzz: random protocols — with one structure for every
    instance, and with a structure that varies per instance — through
    run_many vs sequential runs on the legacy reference, byte-for-byte."""

    def _script_program(self, n, rounds, width_menu, structure_key):
        # Structure is drawn from structure_key; when it includes the
        # instance index, every instance sends along different links.
        def program(ctx):
            instance, payload_seed = ctx.input
            transcript = []
            for r in range(rounds):
                struct_rng = random.Random(str((structure_key(instance), ctx.node_id, r)))
                value_rng = random.Random(str((payload_seed, ctx.node_id, r)))
                kind = struct_rng.choice(["silent", "fixed", "fixed", "unicast"])
                dests = [
                    u
                    for u in range(n)
                    if u != ctx.node_id and struct_rng.random() < 0.6
                ]
                width = struct_rng.choice(width_menu)
                values = [value_rng.randrange(1 << width) for _ in dests]
                if kind == "silent" or not dests:
                    inbox = yield Outbox.silent()
                elif kind == "fixed":
                    inbox = yield Outbox.fixed_width(dests, values, width)
                else:
                    inbox = yield Outbox.unicast(
                        {
                            d: Bits.from_uint(val, width)
                            for d, val in zip(dests, values)
                        }
                    )
                transcript.append([(s, p.to_str()) for s, p in inbox.items()])
            return transcript

        return program

    def _run_case(self, seed, oblivious):
        master = random.Random(seed)
        n = master.randint(3, 7)
        rounds = master.randint(2, 5)
        width_menu = [2, 5, 9]
        instances = master.randint(2, 5)
        structure_key = (lambda _instance: seed) if oblivious else (lambda i: (seed, i))
        program = self._script_program(n, rounds, width_menu, structure_key)
        inputs_list = [
            [(k, (seed, k))] * n for k in range(instances)
        ]
        netw = Network(n=n, bandwidth=max(width_menu))
        batched = netw.run_many(program, inputs_list)
        golden = reference_results(
            program, inputs_list, n=n, bandwidth=max(width_menu)
        )
        for got, want in zip(batched, golden):
            assert_identical(got, want)

    def test_oblivious_fuzz(self):
        for seed in range(8):
            self._run_case(seed, oblivious=True)

    def test_deviating_fuzz(self):
        for seed in range(8):
            self._run_case(seed, oblivious=False)

    def test_broadcast_fuzz(self):
        for seed in range(6):
            master = random.Random(1000 + seed)
            n = master.randint(3, 6)
            rounds = master.randint(2, 4)

            def program(ctx):
                payload_seed = ctx.input
                transcript = []
                for r in range(rounds):
                    struct_rng = random.Random(str((1000 + seed, ctx.node_id, r)))
                    value_rng = random.Random(str((payload_seed, ctx.node_id, r)))
                    width = struct_rng.choice([3, 6])
                    if struct_rng.random() < 0.25:
                        inbox = yield Outbox.silent()
                    else:
                        inbox = yield Outbox.broadcast_uint(
                            value_rng.randrange(1 << width), width
                        )
                    transcript.append(
                        [(s, p.to_str()) for s, p in inbox.items()]
                    )
                return transcript

            inputs_list = [[k] * n for k in range(3)]
            netw = Network(n=n, bandwidth=6, mode=Mode.BROADCAST)
            batched = netw.run_many(program, inputs_list)
            golden = reference_results(
                program, inputs_list, n=n, bandwidth=6, mode=Mode.BROADCAST
            )
            for got, want in zip(batched, golden):
                assert_identical(got, want)
