"""The kernel-program layer: declared SPMD rounds vs the generator
engine, byte-for-byte."""

from __future__ import annotations

import os
import random
import re
import subprocess
import sys

import numpy as np
import pytest

from repro.core.bits import Bits
from repro.core.errors import (
    BandwidthExceededError,
    MaxRoundsExceededError,
    ProtocolError,
    TopologyError,
)
from repro.core import kernels
from repro.core.kernels import KernelBuilder, ints_to_rows, rows_to_ints
from repro.core.network import Mode, Network, Outbox
from repro.routing.lenzen import BitRoute, payload_demand
from repro.routing.schedule import build_schedule


def result_tuple(result):
    return (
        result.rounds,
        result.total_bits,
        result.max_round_bits,
        result.outputs,
    )


def echo_sum_programs(n, width, rounds):
    """A generator/kernel twin pair: every node sends ``me*17+r`` to all
    others each round; output is the final round's received sum."""

    def gen_program(ctx):
        me = ctx.node_id
        total = 0
        for r in range(rounds):
            inbox = yield Outbox.fixed_width(
                list(ctx.neighbors),
                [(me * 17 + r) % (1 << width)] * (n - 1),
                width,
            )
            total = sum(value for _, value in inbox.uint_items())
        return total

    builder = KernelBuilder(n, Mode.UNICAST)
    pairs = [(v, [u for u in range(n) if u != v]) for v in range(n)]
    # Receiver of each message, in flat structure order.
    cols = np.asarray([u for _, dests in pairs for u in dests], dtype=np.intp)

    def init(state, kctx):
        state["total"] = np.zeros((kctx.instances, n), dtype=np.int64)

    builder.on_init(init)

    def make_send(r):
        def send(state):
            instances = state["total"].shape[0]
            flat = np.concatenate(
                [
                    np.full(n - 1, (v * 17 + r) % (1 << width), dtype=np.uint64)
                    for v in range(n)
                ]
            )
            return np.broadcast_to(flat, (instances, flat.size)).copy()

        return send

    def recv(state, delivered):
        got = delivered.astype(np.int64)
        total = np.zeros_like(state["total"])
        for k in range(total.shape[0]):
            np.add.at(total[k], cols, got[k])
        state["total"] = total

    for r in range(rounds):
        builder.unicast_round(pairs, width, make_send(r), recv)

    def finish(state, kctx):
        return [
            [int(state["total"][k, v]) for v in range(n)]
            for k in range(kctx.instances)
        ]

    return gen_program, builder.build(finish, name="echo_sum")


class TestUnicastEquivalence:
    def test_matches_legacy(self):
        n, width, rounds = 7, 12, 4
        gen_program, kernel_program = echo_sum_programs(n, width, rounds)
        expected = Network(n=n, bandwidth=width).run(gen_program)
        got = Network(n=n, bandwidth=width, engine="kernel").run(kernel_program)
        assert result_tuple(got) == result_tuple(expected)

    def test_run_many_lockstep(self):
        n, width, rounds = 6, 8, 3
        gen_program, kernel_program = echo_sum_programs(n, width, rounds)
        expected = Network(n=n, bandwidth=width).run(gen_program)
        network = Network(n=n, bandwidth=width)
        results = network.run_many(kernel_program, [None] * 5)
        assert len(results) == 5
        for result in results:
            assert result_tuple(result) == result_tuple(expected)

    def test_kernel_on_legacy_network_still_runs(self):
        # The engine selector does not apply to kernel programs: the
        # kernel path IS the semantics, on either engine setting.
        n, width, rounds = 5, 8, 2
        gen_program, kernel_program = echo_sum_programs(n, width, rounds)
        expected = Network(n=n, bandwidth=width).run(gen_program)
        got = Network(n=n, bandwidth=width, engine="legacy").run(kernel_program)
        assert result_tuple(got) == result_tuple(expected)


class TestBroadcastEquivalence:
    def make_programs(self, n, width, rounds, writers):
        def gen_program(ctx):
            me = ctx.node_id
            heard = 0
            for r in range(rounds):
                outbox = (
                    Outbox.broadcast_uint((me * 5 + r) % (1 << width), width)
                    if me in writers
                    else Outbox.silent()
                )
                inbox = yield outbox
                heard = sum(value for _, value in inbox.uint_items())
            return heard

        builder = KernelBuilder(n, Mode.BROADCAST)

        def init(state, kctx):
            state["heard"] = np.zeros((kctx.instances, n), dtype=np.int64)

        builder.on_init(init)
        writer_arr = np.asarray(sorted(writers), dtype=np.intp)

        def make_send(r):
            def send(state):
                instances = state["heard"].shape[0]
                vals = (
                    (writer_arr.astype(np.uint64) * np.uint64(5) + np.uint64(r))
                    % np.uint64(1 << width)
                )
                return np.broadcast_to(vals, (instances, vals.size)).copy()

            return send

        def recv(state, delivered):
            got = delivered.astype(np.int64)  # (K, writers)
            total = got.sum(axis=1)  # every node hears all writers...
            heard = total[:, None] - np.zeros((1, n), dtype=np.int64)
            # ...except itself (no echo): subtract own word where a
            # writer is also a receiver.
            for j, w in enumerate(writer_arr):
                heard[:, w] -= got[:, j]
            state["heard"] = heard

        for r in range(rounds):
            builder.broadcast_round(sorted(writers), width, make_send(r), recv)

        def finish(state, kctx):
            return [
                [int(state["heard"][k, v]) for v in range(n)]
                for k in range(kctx.instances)
            ]

        return gen_program, builder.build(finish, name="bcast_twin")

    def test_matches_generator(self):
        n, width, rounds = 8, 10, 3
        writers = {0, 2, 3, 6}
        gen_program, kernel_program = self.make_programs(
            n, width, rounds, writers
        )
        expected = Network(n=n, bandwidth=width, mode=Mode.BROADCAST).run(
            gen_program
        )
        got = Network(n=n, bandwidth=width, mode=Mode.BROADCAST).run(
            kernel_program
        )
        assert result_tuple(got) == result_tuple(expected)
        # blackboard accounting: width bits per writer per round
        assert got.total_bits == len(writers) * width * rounds


def test_building_kernel_programs_leaves_numpy_ma_unimported():
    """``KernelBuilder``'s duplicate checks sort and compare instead of
    calling ``np.unique``, whose first call imports ``numpy.ma``: in a
    fresh interpreter, preparing the ``routing`` and ``triangle_mm``
    kernel programs imports no ``numpy.ma``."""
    script = (
        "import random, sys\n"
        "from repro.graphs.generators import random_graph\n"
        "from repro.scenarios.registry import get_protocol\n"
        "for name in ('routing', 'triangle_mm'):\n"
        "    prepared = get_protocol(name).prepare(\n"
        "        8, random_graph(8, 0.5, random.Random(1)), random.Random(2))\n"
        "    assert 'kernel' in prepared.programs\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False"]


class TestValidation:
    def test_duplicate_destination_rejected(self):
        builder = KernelBuilder(4)
        with pytest.raises(ProtocolError, match="twice"):
            builder.unicast_round([(0, [1, 1])], 4, None)

    def test_self_send_rejected(self):
        builder = KernelBuilder(4)
        with pytest.raises(TopologyError, match="itself"):
            builder.unicast_round([(1, [1])], 4, None)

    def test_out_of_range_rejected(self):
        builder = KernelBuilder(4)
        with pytest.raises(TopologyError, match="out-of-range"):
            builder.unicast_round([(0, [4])], 4, None)

    def test_duplicate_sender_rejected(self):
        builder = KernelBuilder(4)
        with pytest.raises(ProtocolError, match="appears twice"):
            builder.unicast_round([(0, [1]), (0, [2])], 4, None)

    def test_width_above_bandwidth_rejected_at_compile(self):
        builder = KernelBuilder(3)
        builder.unicast_round([(0, [1])], 9, lambda state: np.zeros((1, 1), dtype=np.uint64))
        program = builder.build(None)
        with pytest.raises(BandwidthExceededError):
            Network(n=3, bandwidth=8).run(program)

    def test_mode_mismatch_rejected(self):
        builder = KernelBuilder(3)
        builder.unicast_round([(0, [1])], 4, lambda state: np.zeros((1, 1), dtype=np.uint64))
        program = builder.build(None)
        with pytest.raises(ProtocolError, match="network is broadcast"):
            Network(n=3, bandwidth=4, mode=Mode.BROADCAST).run(program)

        builder = KernelBuilder(3, Mode.BROADCAST)
        builder.broadcast_round([0, 1], 4, lambda state: np.zeros((1, 2), dtype=np.uint64))
        program = builder.build(None)
        with pytest.raises(ProtocolError, match="network is unicast"):
            Network(n=3, bandwidth=4).run(program)

        # Even a round-free program must declare a compatible mode.
        program = KernelBuilder(3, Mode.BROADCAST).build(None)
        with pytest.raises(ProtocolError, match="declares broadcast"):
            Network(n=3, bandwidth=4).run(program)

    def test_congest_topology_enforced(self):
        ring = [[(v - 1) % 5, (v + 1) % 5] for v in range(5)]
        builder = KernelBuilder(5, Mode.CONGEST)
        builder.unicast_round(
            [(0, [2])], 4, lambda state: np.zeros((1, 1), dtype=np.uint64)
        )
        program = builder.build(None)
        with pytest.raises(TopologyError, match="non-neighbour"):
            Network(n=5, bandwidth=4, mode=Mode.CONGEST, topology=ring).run(
                program
            )

        builder = KernelBuilder(5, Mode.CONGEST)
        builder.unicast_round(
            [(0, [1, 4])], 4, lambda state: np.zeros((1, 2), dtype=np.uint64)
        )
        program = builder.build(
            lambda state, kctx: [[None] * 5 for _ in range(kctx.instances)]
        )
        result = Network(
            n=5, bandwidth=4, mode=Mode.CONGEST, topology=ring
        ).run(program)
        assert result.total_bits == 8

    def test_wrong_n_rejected(self):
        _gen, kernel_program = echo_sum_programs(4, 8, 1)
        with pytest.raises(ProtocolError, match="n=4"):
            Network(n=5, bandwidth=8).run(kernel_program)

    def test_declared_bandwidth_pinned(self):
        builder = KernelBuilder(3, bandwidth=8)
        builder.unicast_round(
            [(0, [1])], 4, lambda state: np.zeros((1, 1), dtype=np.uint64)
        )
        program = builder.build(None)
        with pytest.raises(ProtocolError, match="built for bandwidth"):
            Network(n=3, bandwidth=16).run(program)

    def test_payload_shape_checked(self):
        builder = KernelBuilder(3)
        builder.unicast_round(
            [(0, [1, 2])], 4, lambda state: np.zeros((1, 1), dtype=np.uint64)
        )
        program = builder.build(None)
        with pytest.raises(ProtocolError, match="shape"):
            Network(n=3, bandwidth=4).run(program)

    def test_payload_width_checked(self):
        builder = KernelBuilder(3)
        builder.unicast_round(
            [(0, [1])], 4, lambda state: np.full((1, 1), 16, dtype=np.uint64)
        )
        program = builder.build(None)
        with pytest.raises(ProtocolError, match="does not fit"):
            Network(n=3, bandwidth=4).run(program)

    def test_heterogeneous_widths_validated_per_message(self):
        builder = KernelBuilder(3)
        builder.unicast_round(
            [(0, [1, 2])],
            4,
            lambda state: np.asarray([[3, 2]], dtype=np.uint64),
            widths=[2, 1],
        )
        program = builder.build(None)
        with pytest.raises(ProtocolError, match="does not fit"):
            Network(n=3, bandwidth=4).run(program)

    @staticmethod
    def wide_program(width, rows, widths=None):
        builder = KernelBuilder(3)
        builder.unicast_round(
            [(0, [1, 2])], width, lambda state: rows, widths=widths
        )
        return builder.build(None)

    @pytest.mark.parametrize("width", [64, 79, 90])
    def test_byte_row_width_checked(self, width):
        nbytes = -(-width // 8)
        fits = ints_to_rows([(1 << width) - 1, 1], nbytes).reshape(1, 2, nbytes)
        result = Network(n=3, bandwidth=width).run(self.wide_program(width, fits))
        assert result.total_bits == 2 * width
        if width == 8 * nbytes:
            return  # a full row has no bit above the width
        over = ints_to_rows([1, 1 << width], nbytes).reshape(1, 2, nbytes)
        with pytest.raises(ProtocolError, match="does not fit"):
            Network(n=3, bandwidth=width).run(self.wide_program(width, over))

    def test_byte_row_heterogeneous_widths_checked(self):
        # A 5-bit message shares a round of 11-byte rows with an 81-bit
        # one: bit 5 of the first is already too wide.
        widths = [5, 81]
        fits = ints_to_rows([31, (1 << 81) - 1], 11).reshape(1, 2, 11)
        program = self.wide_program(81, fits, widths)
        assert Network(n=3, bandwidth=81).run(program).total_bits == 86
        for values in ([32, 1], [1, 1 << 81]):
            over = ints_to_rows(values, 11).reshape(1, 2, 11)
            with pytest.raises(ProtocolError, match="does not fit"):
                Network(n=3, bandwidth=81).run(self.wide_program(81, over, widths))

    def test_byte_row_shape_and_dtype_checked(self):
        short = np.zeros((1, 2, 9), dtype=np.uint8)  # 79 bits need 10 bytes
        with pytest.raises(ProtocolError, match="shape"):
            Network(n=3, bandwidth=79).run(self.wide_program(79, short))
        ints = np.zeros((1, 2), dtype=np.uint64)
        with pytest.raises(ProtocolError, match="malformed"):
            Network(n=3, bandwidth=79).run(self.wide_program(79, ints))

    def test_max_rounds_enforced(self):
        _gen, kernel_program = echo_sum_programs(4, 8, 5)
        with pytest.raises(MaxRoundsExceededError):
            Network(n=4, bandwidth=8, max_rounds=3).run(kernel_program)

    def test_unicast_program_allowed_on_congest(self):
        # CONGEST is unicast restricted to a topology: a unicast-built
        # program runs there, with its rounds topology-checked.
        ring = [[(v - 1) % 4, (v + 1) % 4] for v in range(4)]
        builder = KernelBuilder(4)  # Mode.UNICAST
        builder.unicast_round(
            [(0, [1])], 4, lambda state: np.zeros((1, 1), dtype=np.uint64)
        )
        program = builder.build(None)
        result = Network(
            n=4, bandwidth=4, mode=Mode.CONGEST, topology=ring
        ).run(program)
        assert result.rounds == 1

    def test_trailing_prologue_without_finish(self):
        # before() after the last round wraps into finish; with no
        # explicit finish the program must still yield default outputs.
        builder = KernelBuilder(3)
        builder.unicast_round(
            [(0, [1])], 4, lambda state: np.zeros((1, 1), dtype=np.uint64)
        )
        ran = []
        builder.before(lambda state: ran.append(True))
        program = builder.build()
        result = Network(n=3, bandwidth=4).run(program)
        assert ran == [True]
        assert result.outputs == [None, None, None]

    def test_empty_widths_round_compiles(self):
        # A dynamically empty message list with widths=[] must compile
        # as an empty round, not crash on max() of a zero-size array.
        builder = KernelBuilder(3)
        builder.unicast_round([], 4, lambda state: None, widths=[])
        program = builder.build(
            lambda state, kctx: [[None] * 3 for _ in range(kctx.instances)]
        )
        result = Network(n=3, bandwidth=8).run(program)
        assert result.rounds == 1 and result.total_bits == 0

    def test_numpy_free_core_import(self):
        # repro.core must stay importable without touching numpy; the
        # kernel exports load lazily on first attribute access.
        import subprocess
        import sys

        code = (
            "import sys, repro.core;"
            "assert 'numpy' not in sys.modules;"
            "from repro.core import KernelBuilder;"
            "assert 'numpy' in sys.modules"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
            cwd=__file__.rsplit("/tests/", 1)[0],
        )
        assert proc.returncode == 0, proc.stderr


class TestCompiledInteraction:
    """A kernel program's rounds are compiled where they are declared,
    and every run checks the program against its network: neither
    carries state from one run to the next."""

    def ring_program(self, n, width, rounds):
        """Each node sends ``me*3+r`` to its two ring neighbours each
        round and outputs the sum of the last round's messages."""
        builder = KernelBuilder(n)
        pairs = [(v, [(v - 1) % n, (v + 1) % n]) for v in range(n)]
        srcs = np.repeat(np.arange(n), 2)
        dsts = np.array([d for _v, ds in pairs for d in ds])

        def recv(state, delivered):
            sums = np.zeros((delivered.shape[0], n), dtype=np.uint64)
            np.add.at(sums, (slice(None), dsts), delivered)
            state["sums"] = sums

        for r in range(rounds):

            def send(state, r=r):
                return np.tile((srcs * 3 + r).astype(np.uint64), (state["k"], 1))

            builder.unicast_round(pairs, width, send, recv)
        builder.on_init(lambda state, kctx: state.update(k=kctx.instances))
        return builder.build(
            lambda state, kctx: state["sums"].tolist(), name="ring_sum"
        )

    def test_one_program_checked_on_every_fresh_network(self):
        n, width = 5, 8
        program = self.ring_program(n, width, 2)
        ring = [[(v - 1) % n, (v + 1) % n] for v in range(n)]
        broken = [list(nbrs) for nbrs in ring]
        broken[0].remove(1)
        broken[1].remove(0)

        def congest(topology, **kwargs):
            return Network(
                n=n, bandwidth=width, mode=Mode.CONGEST, topology=topology,
                **kwargs,
            )

        first = congest(ring).run_many(program, [None, None])
        bad = [
            (
                Network(n=n, bandwidth=width - 1),
                BandwidthExceededError,
                "kernel round 0 sends 8-bit messages (bandwidth 7)",
            ),
            (
                Network(n=n, bandwidth=width, mode=Mode.BROADCAST),
                ProtocolError,
                "kernel program declares unicast, network is broadcast",
            ),
            (
                congest(broken),
                TopologyError,
                "node 0 sent to non-neighbour 1 in CONGEST",
            ),
            (
                Network(n=n + 1, bandwidth=width),
                ProtocolError,
                "kernel program declares n=5, network has n=6",
            ),
            (
                congest(ring, max_rounds=1),
                MaxRoundsExceededError,
                "kernel program declares 2 rounds (max_rounds 1)",
            ),
        ]
        for network, error, text in bad:
            with pytest.raises(error, match=f"^{re.escape(text)}$"):
                network.run(program)
        # The good networks still run the program, to the same results.
        again = congest(ring)
        for _ in range(2):
            results = again.run_many(program, [None, None])
            assert [result_tuple(r) for r in results] == [
                result_tuple(r) for r in first
            ]
        # The last round (r = 1) brings 3u + 1 from each neighbour u.
        assert first[0].outputs == [
            3 * ((v - 1) % n) + 3 * ((v + 1) % n) + 2 for v in range(n)
        ]
        clique = Network(n=n, bandwidth=width).run(program)
        assert result_tuple(clique) == result_tuple(first[0])

    def test_running_compiles_nothing(self, monkeypatch):
        _gen, kernel_program = echo_sum_programs(4, 8, 3)
        built = []
        init = kernels.KernelRound.__init__

        def counting(self, *args):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(kernels.KernelRound, "__init__", counting)
        for _ in range(3):
            network = Network(n=4, bandwidth=8, record_transcript=True)
            network.run_many(kernel_program, [None, None])
        assert built == []
        echo_sum_programs(4, 8, 3)
        assert len(built) == 3  # one per declared round

    def test_bandwidth_reassignment_checked_at_next_run(self):
        n = 5
        _gen, kernel_program = echo_sum_programs(n, 8, 2)
        network = Network(n=n, bandwidth=16)
        network.run(kernel_program)
        network.bandwidth = 8
        network.run(kernel_program)
        network.bandwidth = 4
        with pytest.raises(BandwidthExceededError, match=r"\(bandwidth 4\)"):
            network.run(kernel_program)

    def test_mode_reassignment_checked_at_next_run(self):
        n = 5
        _gen, kernel_program = echo_sum_programs(n, 8, 2)
        network = Network(n=n, bandwidth=8)
        network.run(kernel_program)
        network.mode = Mode.BROADCAST
        with pytest.raises(ProtocolError, match="declares unicast"):
            network.run(kernel_program)

    def test_compiled_rounds_match_lane_shape(self):
        n = 4
        _gen, kernel_program = echo_sum_programs(n, 8, 3)
        # Compiled at build(), before any run.
        assert len(kernel_program.rounds) == 3
        for rnd in kernel_program.rounds:
            assert rnd.dsts is not None  # a unicast round
            assert rnd.count == n * (n - 1)
            assert rnd.bits == n * (n - 1) * 8
            assert sorted(rnd.links()) == [
                (v, u) for v in range(n) for u in range(n) if u != v
            ]


class TestPayloadOwnership:
    """The engine copies what ``send`` returns and ``recv`` owns what it
    is handed: neither side's array aliases the other's."""

    def all_to_all(self, n):
        return [(v, [u for u in range(n) if u != v]) for v in range(n)]

    def test_frozen_payload_matches_fresh(self):
        """A read-only array re-sent for the same structure round after
        round is read and validated every round, with results identical
        to a fresh-array run."""
        n, width, rounds = 6, 16, 8
        pairs = self.all_to_all(n)

        def build(freeze):
            builder = KernelBuilder(n)

            def init(state, kctx):
                flat = np.concatenate(
                    [
                        np.full(n - 1, v * 3 + 1, dtype=np.uint64)
                        for v in range(n)
                    ]
                )
                vals = np.broadcast_to(flat, (kctx.instances, flat.size)).copy()
                if freeze:
                    vals.flags.writeable = False
                state["vals"] = vals
                state["seen"] = []

            builder.on_init(init)

            def send(state):
                return state["vals"]

            def recv(state, delivered):
                state["seen"].append(int(delivered.sum()))

            for _ in range(rounds):
                builder.unicast_round(pairs, width, send, recv)

            def finish(state, kctx):
                return [
                    [state["seen"][-1]] * n for _ in range(kctx.instances)
                ]

            return builder.build(finish)

        frozen = Network(n=n, bandwidth=width).run(build(freeze=True))
        fresh = Network(n=n, bandwidth=width).run(build(freeze=False))
        assert result_tuple(frozen) == result_tuple(fresh)

    @pytest.mark.parametrize("mode", [Mode.UNICAST, Mode.BROADCAST])
    def test_recv_mutation_leaves_send_array_alone(self, mode):
        n, width, rounds = 5, 8, 3
        builder = KernelBuilder(n, mode)
        count = n if mode is Mode.BROADCAST else n * (n - 1)

        def init(state, kctx):
            state["payload"] = np.arange(count, dtype=np.uint64)[None, :].repeat(
                kctx.instances, axis=0
            )
            state["seen"] = []

        def send(state):
            return state["payload"]

        def recv(state, delivered):
            assert delivered is not state["payload"]
            state["seen"].append(delivered.copy())
            delivered[...] = 0  # the program owns what it is handed

        builder.on_init(init)
        for _ in range(rounds):
            if mode is Mode.BROADCAST:
                builder.broadcast_round(list(range(n)), width, send, recv)
            else:
                builder.unicast_round(self.all_to_all(n), width, send, recv)
        program = builder.build(
            lambda state, kctx: [[state["seen"]] * n for _ in range(kctx.instances)]
        )
        result = Network(n=n, bandwidth=width, mode=mode).run(program)
        seen = result.outputs[0]
        assert len(seen) == rounds
        for got in seen:
            assert got.tolist() == [list(range(count))]


class TestTranscripts:
    def test_kernel_transcript_matches_generator(self):
        n, width, rounds = 5, 8, 3
        gen_program, kernel_program = echo_sum_programs(n, width, rounds)
        gnet = Network(n=n, bandwidth=width, record_transcript=True)
        knet = Network(n=n, bandwidth=width, record_transcript=True)
        expected = gnet.run(gen_program)
        got = knet.run(kernel_program)
        assert result_tuple(got) == result_tuple(expected)
        assert len(got.transcript) == rounds
        for ours, theirs in zip(got.transcript, expected.transcript):
            assert sorted(ours.sends) == sorted(theirs.sends)
            assert ours.bits() == theirs.bits()


class TestFuzzEquivalence:
    """Seeded random round structures, generator vs kernel twins."""

    def run_case(self, seed):
        rng = random.Random(seed)
        n = rng.randint(3, 9)
        rounds = rng.randint(1, 5)
        # Per round: a width (sometimes past the uint64 limit) and a
        # random sender->dests structure.
        plan = []
        for _ in range(rounds):
            width = rng.choice([1, 3, 8, 31, 63, 64, 90])
            structure = {}
            for v in range(n):
                others = [u for u in range(n) if u != v]
                rng.shuffle(others)
                count = rng.randint(0, n - 1)
                if count:
                    structure[v] = others[:count]
            values = {
                v: [rng.getrandbits(width) for _ in dests]
                for v, dests in structure.items()
            }
            plan.append((width, structure, values))
        bandwidth = max(width for width, _, _ in plan)

        def gen_program(ctx):
            me = ctx.node_id
            heard = []
            for width, structure, values in plan:
                dests = structure.get(me, [])
                outbox = (
                    Outbox.fixed_width(dests, values[me], width)
                    if dests
                    else Outbox.silent()
                )
                inbox = yield outbox
                heard.append(tuple(inbox.uint_items()))
            return heard

        builder = KernelBuilder(n)

        def init(state, kctx):
            state["heard"] = [[] for _ in range(n)]

        builder.on_init(init)
        for width, structure, values in plan:
            pairs = sorted(structure.items())
            flat_vals = [val for v, _ in pairs for val in values[v]]
            flat_links = [
                (v, dest) for v, dests in pairs for dest in dests
            ]

            def send(state, _vals=flat_vals, _width=width):
                if _width > 63:
                    nbytes = -(-_width // 8)
                    return ints_to_rows(_vals, nbytes).reshape(1, -1, nbytes)
                return np.asarray([_vals], dtype=np.uint64)

            def recv(state, delivered, _links=flat_links):
                got = (
                    rows_to_ints(delivered) if delivered.ndim == 3 else delivered
                )[0]
                per_node = [[] for _ in range(n)]
                for (src, dst), value in zip(_links, got):
                    per_node[dst].append((src, int(value)))
                for v in range(n):
                    state["heard"][v].append(
                        tuple(sorted(per_node[v]))
                    )

            builder.unicast_round(pairs, width, send, recv)

        def finish(state, kctx):
            return [list(state["heard"])]

        kernel_program = builder.build(finish)
        expected = Network(n=n, bandwidth=bandwidth).run(gen_program)
        got = Network(n=n, bandwidth=bandwidth).run(kernel_program)
        assert result_tuple(got) == result_tuple(expected), seed

    @pytest.mark.parametrize("seed", range(12))
    def test_fuzz(self, seed):
        self.run_case(seed)


class TestPackHelpers:
    """The bit-matrix routing bridge (:class:`BitRoute`) frames payload
    columns exactly as ``route_payloads`` frames the same bits as one
    ``Bits`` payload, on ``uint64`` frames and on byte-row frames."""

    @pytest.mark.parametrize("length", [0, 1, 7, 8, 9, 64, 65, 200])
    def test_pack_unpack_roundtrip(self, length):
        rng = np.random.default_rng(length)
        rows = rng.integers(0, 2, size=(5, 2 * length + 3), dtype=np.uint8)
        perm = [int(c) for c in rng.permutation(2 * length + 3)]
        order = {(0, 1): perm[:length], (2, 1): perm[length : 2 * length]}
        for frame_size in (16, 63, 64, 79):
            lengths = {pair: len(cols) for pair, cols in order.items()}
            schedule = build_schedule(payload_demand(lengths, frame_size), 3)
            bit_route = BitRoute(order, frame_size, schedule)
            frames = bit_route.pack(rows)
            if frame_size > 63:
                assert frames.shape[2:] == (-(-frame_size // 8),)
                values_of = rows_to_ints(frames)
            else:
                assert frames.dtype == np.uint64
                values_of = frames.tolist()
            for (src, dst), cols in order.items():
                count = -(-length // frame_size)
                slots = [
                    bit_route.route.slot_of[(src, dst, i)] for i in range(count)
                ]
                for row, values in zip(rows, values_of):
                    payload = Bits.from_bools(bool(row[c]) for c in cols)
                    chunks = payload.pad_to(count * frame_size).to_uint_chunks(
                        frame_size
                    )
                    assert [values[slot] for slot in slots] == chunks
            back = np.zeros_like(rows)
            bit_route.unpack(frames, back)
            routed = perm[: 2 * length]
            assert (back[:, routed] == rows[:, routed]).all()
