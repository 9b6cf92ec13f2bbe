"""Engine semantics: modes, bandwidth, rounds, transcripts, determinism."""

from __future__ import annotations

import random

import pytest

from repro.core.bits import Bits
from repro.core.errors import (
    BandwidthExceededError,
    MaxRoundsExceededError,
    ProtocolError,
    TopologyError,
)
from repro.core.network import Mode, Network, Outbox, inbox_uints, run_protocol


def bit(x: int) -> Bits:
    return Bits.from_uint(x, 1)


class TestUnicast:
    def test_pairwise_exchange(self):
        def program(ctx):
            msgs = {v: bit(ctx.node_id % 2) for v in ctx.neighbors}
            inbox = yield Outbox.unicast(msgs)
            return sum(m.to_uint() for _, m in inbox.items())

        result = run_protocol(program, n=4, bandwidth=1)
        assert result.rounds == 1
        # Each node sums the other three parities: 0,2 send 0; 1,3 send 1.
        assert result.outputs == [2, 1, 2, 1]
        assert result.total_bits == 12

    def test_bandwidth_enforced(self):
        def program(ctx):
            yield Outbox.unicast({1 - ctx.node_id: Bits.from_uint(3, 2)})

        with pytest.raises(BandwidthExceededError):
            run_protocol(program, n=2, bandwidth=1)

    def test_self_send_rejected(self):
        def program(ctx):
            yield Outbox.unicast({ctx.node_id: bit(1)})

        with pytest.raises(TopologyError):
            run_protocol(program, n=3, bandwidth=1)

    def test_out_of_range_rejected(self):
        def program(ctx):
            yield Outbox.unicast({99: bit(1)})

        with pytest.raises(TopologyError):
            run_protocol(program, n=3, bandwidth=1)

    def test_broadcast_outbox_rejected_in_unicast(self):
        def program(ctx):
            yield Outbox.broadcast(bit(1))

        with pytest.raises(ProtocolError):
            run_protocol(program, n=3, bandwidth=1)

    def test_multi_round_counting(self):
        def program(ctx):
            for _ in range(5):
                yield Outbox.unicast({(ctx.node_id + 1) % ctx.n: bit(1)})
            return None

        result = run_protocol(program, n=3, bandwidth=1)
        assert result.rounds == 5
        assert result.total_bits == 15


class TestBroadcast:
    def test_blackboard_visibility(self):
        def program(ctx):
            inbox = yield Outbox.broadcast(Bits.from_uint(ctx.node_id, 4))
            return sorted((s, m.to_uint()) for s, m in inbox.items())

        result = run_protocol(program, n=4, bandwidth=4, mode=Mode.BROADCAST)
        for v, output in enumerate(result.outputs):
            assert output == [(u, u) for u in range(4) if u != v]

    def test_blackboard_bits_counted_once(self):
        def program(ctx):
            yield Outbox.broadcast(Bits.from_uint(ctx.node_id % 2, 1))

        result = run_protocol(program, n=5, bandwidth=1, mode=Mode.BROADCAST)
        assert result.total_bits == 5  # one bit per writer, not per reader

    def test_unicast_outbox_rejected(self):
        def program(ctx):
            yield Outbox.unicast({0: bit(1)})

        with pytest.raises(ProtocolError):
            run_protocol(program, n=3, bandwidth=1, mode=Mode.BROADCAST)

    def test_broadcast_bandwidth(self):
        def program(ctx):
            yield Outbox.broadcast(Bits.from_uint(0, 9))

        with pytest.raises(BandwidthExceededError):
            run_protocol(program, n=3, bandwidth=8, mode=Mode.BROADCAST)

    # Fixed-width broadcasts: the legacy engine writes each word once on
    # the round's board, and every node reads it through a view that
    # skips its own word.

    @pytest.mark.parametrize("engine", ["legacy"])
    def test_blackboard_delivery_and_accounting(self, engine):
        n, width = 6, 9

        def program(ctx):
            inbox = yield Outbox.broadcast_uint(ctx.node_id * 7, width)
            return dict(inbox.uint_items())

        result = run_protocol(
            program, n=n, bandwidth=width, mode=Mode.BROADCAST, engine=engine
        )
        assert result.rounds == 1
        # One broadcast of `width` bits costs `width`, counted once.
        assert result.total_bits == n * width
        assert result.blackboard_bits() == n * width
        for v, got in enumerate(result.outputs):
            assert got == {u: u * 7 for u in range(n) if u != v}

    @pytest.mark.parametrize("engine", ["legacy"])
    def test_inbox_api_matches_dict_inbox(self, engine):
        def program(ctx):
            if ctx.node_id == 2:
                inbox = yield Outbox.silent()
            else:
                inbox = yield Outbox.broadcast_uint(5 + ctx.node_id, 4)
            return {
                "senders": inbox.senders(),
                "items": [(s, p.to_str()) for s, p in inbox.items()],
                "len": len(inbox),
                "has_self": ctx.node_id in inbox,
                "get1": None if inbox.get(1) is None else inbox.get(1).to_uint(),
                "get_self": inbox.get(ctx.node_id),
                "get99": inbox.get(99),
            }

        result = run_protocol(
            program, n=3, bandwidth=4, mode=Mode.BROADCAST, engine=engine
        )
        at0 = result.outputs[0]
        assert at0["senders"] == (1,)
        assert at0["items"] == [(1, "0110")]
        assert at0["len"] == 1
        assert not at0["has_self"]
        assert at0["get1"] == 6
        assert at0["get_self"] is None and at0["get99"] is None
        at2 = result.outputs[2]  # the silent node still hears everyone
        assert at2["senders"] == (0, 1)

    @pytest.mark.parametrize("engine", ["legacy"])
    def test_self_broadcast_not_echoed(self, engine):
        def program(ctx):
            inbox = yield Outbox.broadcast_uint(1, 1)
            return ctx.node_id in inbox

        result = run_protocol(
            program, n=4, bandwidth=1, mode=Mode.BROADCAST, engine=engine
        )
        assert result.outputs == [False] * 4

    @pytest.mark.parametrize("engine", ["legacy"])
    def test_transcript_records_one_send_per_writer(self, engine):
        def program(ctx):
            yield Outbox.broadcast_uint(ctx.node_id, 2)

        result = run_protocol(
            program,
            n=3,
            bandwidth=2,
            mode=Mode.BROADCAST,
            record_transcript=True,
            engine=engine,
        )
        assert result.transcript[0].sends == [
            (0, None, Bits.from_uint(0, 2)),
            (1, None, Bits.from_uint(1, 2)),
            (2, None, Bits.from_uint(2, 2)),
        ]

    @pytest.mark.parametrize("engine", ["legacy"])
    def test_wide_payloads(self, engine):
        width = 130

        def program(ctx):
            inbox = yield Outbox.broadcast_uint((1 << 129) | ctx.node_id, width)
            return sorted((s, p.to_uint()) for s, p in inbox.items())

        result = run_protocol(
            program, n=3, bandwidth=width, mode=Mode.BROADCAST, engine=engine
        )
        assert result.total_bits == 3 * width
        assert result.outputs[0] == [(1, (1 << 129) | 1), (2, (1 << 129) | 2)]

    @pytest.mark.parametrize("engine", ["legacy"])
    def test_reused_outbox_across_rounds(self, engine):
        def program(ctx):
            outbox = Outbox.broadcast_uint(ctx.node_id + 1, 6)
            seen = []
            for _ in range(3):
                inbox = yield outbox
                seen.append(sorted(inbox.uint_items()))
            return seen

        result = run_protocol(
            program, n=3, bandwidth=6, mode=Mode.BROADCAST, engine=engine
        )
        assert result.rounds == 3
        assert result.total_bits == 3 * 3 * 6
        for v, seen in enumerate(result.outputs):
            expected = sorted((u, u + 1) for u in range(3) if u != v)
            assert seen == [expected] * 3

    @pytest.mark.parametrize("engine", ["legacy"])
    def test_schedule_broadcast_outbox(self, engine):
        def program(ctx):
            inbox = yield Outbox.broadcast_uint(ctx.node_id + 10, 5)
            return sorted(inbox_uints(inbox))

        result = run_protocol(
            program, n=3, bandwidth=5, mode=Mode.BROADCAST, engine=engine
        )
        assert result.outputs[0] == [(1, 11), (2, 12)]


class TestCongest:
    def test_topology_respected(self):
        topo = [[1], [0, 2], [1]]  # a path

        def program(ctx):
            msgs = {v: bit(1) for v in ctx.neighbors}
            inbox = yield Outbox.unicast(msgs)
            return sorted(inbox.senders())

        result = run_protocol(
            program, n=3, bandwidth=1, mode=Mode.CONGEST, topology=topo
        )
        assert result.outputs == [[1], [0, 2], [1]]

    def test_non_neighbor_rejected(self):
        topo = [[1], [0], []]

        def program(ctx):
            if ctx.node_id == 0:
                yield Outbox.unicast({2: bit(1)})
            else:
                yield Outbox.silent()

        with pytest.raises(TopologyError):
            run_protocol(
                program, n=3, bandwidth=1, mode=Mode.CONGEST, topology=topo
            )

    def test_topology_required(self):
        with pytest.raises(TopologyError):
            Network(n=3, bandwidth=1, mode=Mode.CONGEST)


class TestLifecycle:
    def test_zero_round_protocol(self):
        def program(ctx):
            return ctx.node_id * 2
            yield  # pragma: no cover - makes this a generator

        result = run_protocol(program, n=3, bandwidth=1)
        assert result.rounds == 0
        assert result.outputs == [0, 2, 4]

    def test_staggered_termination(self):
        def program(ctx):
            for _ in range(ctx.node_id + 1):
                yield Outbox.silent()
            return ctx.node_id

        result = run_protocol(program, n=3, bandwidth=1)
        assert result.rounds == 3
        assert result.outputs == [0, 1, 2]

    def test_max_rounds_guard(self):
        def program(ctx):
            while True:
                yield Outbox.silent()

        with pytest.raises(MaxRoundsExceededError):
            run_protocol(program, n=2, bandwidth=1, max_rounds=10)

    def test_non_outbox_yield_rejected(self):
        def program(ctx):
            yield "hello"

        with pytest.raises(ProtocolError):
            run_protocol(program, n=2, bandwidth=1)

    def test_inputs_delivered(self):
        def program(ctx):
            return ctx.input + 1
            yield  # pragma: no cover

        result = run_protocol(program, n=3, bandwidth=1, inputs=[10, 20, 30])
        assert result.outputs == [11, 21, 31]

    @pytest.mark.parametrize("engine", ["legacy"])
    def test_wrong_input_count_rejected_up_front(self, engine):
        # Regression: too-few inputs used to surface as a bare
        # IndexError from deep inside context construction, and extras
        # were silently dropped.
        def program(ctx):
            return ctx.input
            yield  # pragma: no cover

        for bad in ([1, 2], [1, 2, 3, 4]):
            with pytest.raises(ProtocolError, match="one input per node"):
                run_protocol(
                    program, n=3, bandwidth=1, inputs=bad, engine=engine
                )


class TestOutboxValidation:
    def test_outbox_shared_by_several_senders(self):
        # One module-level outbox yielded by every node, round after
        # round, is validated at each yield and delivered for each
        # sender.
        shared = Outbox.fixed_width_map({9: 1}, 4)

        def program(ctx):
            for _ in range(3):
                if ctx.node_id == 9:
                    yield Outbox.silent()
                else:
                    yield shared
            return len(ctx.neighbors)

        result = run_protocol(program, n=10, bandwidth=4)
        assert result.total_bits == 3 * 9 * 4

    def test_revalidated_for_a_new_network(self):
        # Same outbox, two networks with different bandwidths: each
        # yield is validated against the network it runs on, so the
        # second run must fail.
        outbox = Outbox.fixed_width_map({1: 200}, 8)

        def program(ctx):
            if ctx.node_id == 0:
                yield outbox
            else:
                yield Outbox.silent()

        run_protocol(program, n=2, bandwidth=8)
        with pytest.raises(BandwidthExceededError):
            run_protocol(program, n=2, bandwidth=4)


class TestDeterminismAndTranscripts:
    def test_private_rng_deterministic(self):
        def program(ctx):
            value = ctx.rng.randrange(1000)
            yield Outbox.broadcast(Bits.from_uint(value, 10))
            return value

        a = run_protocol(program, n=4, bandwidth=10, mode=Mode.BROADCAST, seed=5)
        b = run_protocol(program, n=4, bandwidth=10, mode=Mode.BROADCAST, seed=5)
        c = run_protocol(program, n=4, bandwidth=10, mode=Mode.BROADCAST, seed=6)
        assert a.outputs == b.outputs
        assert a.outputs != c.outputs

    def test_shared_rng_agrees_across_nodes(self):
        def program(ctx):
            return [ctx.shared_rng.randrange(100) for _ in range(5)]
            yield  # pragma: no cover

        result = run_protocol(program, n=4, bandwidth=1, seed=9)
        assert all(out == result.outputs[0] for out in result.outputs)

    def test_shared_rng_immune_to_interleaving(self):
        # The public-coin contract: node v's k-th draw equals node u's
        # k-th draw, regardless of how draws interleave with rounds.
        # Here each node splits its 8 draws across rounds differently.
        def program(ctx):
            draws = [ctx.shared_rng.randrange(1000) for _ in range(ctx.node_id)]
            yield Outbox.silent()
            draws += [
                ctx.shared_rng.randrange(1000)
                for _ in range(8 - ctx.node_id)
            ]
            return draws

        result = run_protocol(program, n=5, bandwidth=1, seed=3)
        assert all(out == result.outputs[0] for out in result.outputs)

    def test_shared_rng_independent_of_private_rng(self):
        def program(ctx):
            # Private draws must not perturb the shared stream.
            for _ in range(ctx.node_id * 3):
                ctx.rng.random()
            return [ctx.shared_rng.getrandbits(16) for _ in range(4)]
            yield  # pragma: no cover

        result = run_protocol(program, n=4, bandwidth=1, seed=12)
        assert all(out == result.outputs[0] for out in result.outputs)


class TestCoinsOnFirstDraw:
    """A node's coins are cloned from the network's seeded states the
    first time it reads them: the streams do not depend on when a node
    starts drawing, and a program that never draws clones nothing."""

    @pytest.mark.parametrize("engine", ["legacy"])
    def test_first_draw_in_round_three_reads_the_seeded_stream(self, engine):
        def program(ctx):
            for _ in range(2):
                yield Outbox.silent()
            return [ctx.rng.random() for _ in range(3)]

        network = Network(n=4, bandwidth=1, seed=17, engine=engine)
        for _run in range(2):
            result = network.run(program)
            assert result.rounds == 2
            for v, draws in enumerate(result.outputs):
                fresh = random.Random(f"17:node:{v}")
                assert draws == [fresh.random() for _ in range(3)]

    @pytest.mark.parametrize("engine", ["legacy"])
    def test_shared_coin_agrees_whenever_a_node_starts(self, engine):
        # Node v reads the public coin for the first time in round v + 1.
        def program(ctx):
            for _ in range(ctx.node_id):
                yield Outbox.silent()
            return [ctx.shared_rng.getrandbits(16) for _ in range(4)]

        result = Network(n=5, bandwidth=1, seed=4, engine=engine).run(program)
        fresh = random.Random("4:shared")
        assert result.outputs == [[fresh.getrandbits(16) for _ in range(4)]] * 5

    @pytest.mark.parametrize("engine", ["legacy"])
    def test_no_draw_clones_no_state(self, monkeypatch, engine):
        clones = []
        setstate = random.Random.setstate

        def counting(self, state):
            clones.append(self)
            setstate(self, state)

        monkeypatch.setattr(random.Random, "setstate", counting)

        def silent(ctx):
            yield Outbox.silent()
            return ctx.node_id

        def node_two_draws(ctx):
            yield Outbox.silent()
            if ctx.node_id == 2:
                return ctx.rng.random(), ctx.rng.random()

        network = Network(n=6, bandwidth=1, engine=engine)
        network.run(silent)
        assert clones == []
        network.run(node_two_draws)
        assert len(clones) == 1


class TestInboxCaching:
    def test_sorted_views_cached(self):
        observed = {}

        def program(ctx):
            inbox = yield Outbox.unicast(
                {v: bit(1) for v in ctx.neighbors}
            )
            if ctx.node_id == 0:
                observed["items_a"] = inbox.items()
                observed["items_b"] = inbox.items()
                observed["senders_a"] = inbox.senders()
                observed["senders_b"] = inbox.senders()
            return None

        run_protocol(program, n=4, bandwidth=1)
        assert observed["items_a"] is observed["items_b"]
        assert observed["senders_a"] is observed["senders_b"]
        assert observed["senders_a"] == (1, 2, 3)
        assert [s for s, _ in observed["items_a"]] == [1, 2, 3]

    def test_recycled_inboxes_refresh_between_rounds(self):
        # Every round hands each node a fresh inbox; the cached views
        # must not leak across rounds.
        def program(ctx):
            me = ctx.node_id
            inbox = yield Outbox.unicast({(me + 1) % ctx.n: bit(1)})
            first = inbox.senders()
            inbox = yield Outbox.unicast({(me + 2) % ctx.n: bit(1)})
            second = inbox.senders()
            yield Outbox.silent()
            return (first, second)

        result = run_protocol(program, n=5, bandwidth=1)
        for v, (first, second) in enumerate(result.outputs):
            assert first == ((v - 1) % 5,)
            assert second == ((v - 2) % 5,)

    def test_transcript_records_broadcasts(self):
        def program(ctx):
            yield Outbox.broadcast(Bits.from_uint(ctx.node_id % 2, 1))

        result = run_protocol(
            program,
            n=3,
            bandwidth=1,
            mode=Mode.BROADCAST,
            record_transcript=True,
        )
        assert len(result.transcript) == 1
        senders = sorted(s for s, r, _ in result.transcript[0].sends)
        assert senders == [0, 1, 2]
        assert all(r is None for _, r, _ in result.transcript[0].sends)

    def test_transcript_records_unicasts(self):
        def program(ctx):
            yield Outbox.unicast({(ctx.node_id + 1) % ctx.n: bit(1)})

        result = run_protocol(program, n=3, bandwidth=1, record_transcript=True)
        hops = {(s, r) for s, r, _ in result.transcript[0].sends}
        assert hops == {(0, 1), (1, 2), (2, 0)}
