"""The broadcast phases pinned against their per-receiver reference.

The legacy engine is the one loop that runs the broadcast phases (none
has a kernel twin), so neither the engine-equivalence suites nor a
chaos parity drill can see a change in what a phase returns.  These
tests pin it from outside:

* each node's return value or exception (type and text) equals that of
  the per-receiver loop the phases used to run, kept here as the
  reference, on random boards and on the unicast fan-out;
* a chaos sweep over the broadcast protocols is pinned to the outcomes
  that reference produced.
"""

from __future__ import annotations

import hashlib
from typing import Dict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bits import Bits
from repro.core.errors import DecodeError
from repro.core.faults import FaultPlan
from repro.core.mailbox import Board, BoardInbox, Inbox
from repro.core.network import Context, Mode, Network, Outbox, inbox_uints
from repro.core.phases import (
    _decode_frames,
    _frame_payload,
    header_width,
    phase_length,
    transmit_broadcast,
    transmit_broadcast_redundant,
    transmit_broadcast_uints,
)
from repro.routing.sorting import _adapt_broadcast
from repro.scenarios import ScenarioMatrix


# -- the reference: one receiver decodes every writer it heard ----------


def reference_broadcast(ctx, payload, max_bits):
    rounds = phase_length(max_bits, ctx.bandwidth)
    bandwidth = ctx.bandwidth
    frames = (
        None
        if payload is None
        else _frame_payload(payload, max_bits, rounds, bandwidth)
    )
    columns = []
    for r in range(rounds):
        inbox = yield (
            Outbox.silent()
            if frames is None
            else Outbox.broadcast_uint(frames[r], bandwidth)
        )
        columns.append(dict(inbox_uints(inbox)))
    complete = columns[0].keys()
    for column in columns[1:]:
        complete = complete & column.keys()
    writers = [w for w in columns[0] if w in complete]
    per_writer = zip(*[[column[w] for w in writers] for column in columns])
    return {
        writer: _decode_frames(chunks, bandwidth, max_bits)
        for writer, chunks in zip(writers, per_writer)
    }


def reference_uints(ctx, payload, max_bits):
    received = yield from reference_broadcast(ctx, payload, max_bits)
    board = [None] * ctx.n
    for writer, got in received.items():
        board[writer] = got.to_uint()
    board[ctx.node_id] = None if payload is None else payload.to_uint()
    return tuple(board)


def reference_redundant(ctx, payload, max_bits, copies=3):
    rounds = phase_length(max_bits, ctx.bandwidth)
    bandwidth = ctx.bandwidth
    frames = (
        None
        if payload is None
        else _frame_payload(payload, max_bits, rounds, bandwidth)
    )
    votes: Dict = {}
    for _ in range(copies):
        received: Dict = {}
        for r in range(rounds):
            inbox = yield (
                Outbox.silent()
                if frames is None
                else Outbox.broadcast_uint(frames[r], bandwidth)
            )
            for sender, value in inbox_uints(inbox):
                received.setdefault(sender, []).append(value)
        for sender, chunks in received.items():
            if len(chunks) != rounds:
                continue
            try:
                copy = _decode_frames(chunks, bandwidth, max_bits)
            except DecodeError:
                continue
            key = (len(copy), copy.to_uint())
            counts = votes.setdefault(sender, {})
            counts[key] = counts.get(key, 0) + 1
    result = {}
    for sender, counts in votes.items():
        best = max(counts.values())
        length, value = min(key for key, c in counts.items() if c == best)
        result[sender] = Bits(value, length)
    return result


PAIRS = [
    (transmit_broadcast, reference_broadcast),
    (transmit_broadcast_uints, reference_uints),
    (transmit_broadcast_redundant, reference_redundant),
]


# -- driving every node of a phase over given boards --------------------


#: How a round's words reach node v: the engines' one shared board, or
#: the unicast fan-out's one inbox per receiver.
VIEWS = {
    "board": (Board, BoardInbox),
    "fanout": (
        lambda words: words,
        lambda words, v: Inbox({w: word for w, word in words.items() if w != v}),
    ),
}


def outcome(value=None, exc=None):
    """A comparable outcome; a dict keeps its order."""
    if exc is not None:
        return ("raised", type(exc), str(exc))
    if isinstance(value, dict):
        return ("returned", list(value.items()))
    return ("returned", value)


def drive(phase, case, view):
    """Run ``phase`` at all n nodes of ``case`` in lockstep over its
    rounds' words, with one shared memo; return each node's outcome."""
    n, bandwidth, max_bits, payloads, rounds_words = case
    make_round, read = VIEWS[view]
    memo: Dict = {}
    results = [None] * n
    live = {}
    for v in range(n):
        ctx = Context(
            node_id=v, n=n, bandwidth=bandwidth, mode=Mode.BROADCAST,
            neighbors=tuple(u for u in range(n) if u != v), memo=memo,
        )
        gen = phase(ctx, payloads[v], max_bits)
        try:
            next(gen)
        except Exception as exc:  # noqa: BLE001 - compared below
            results[v] = outcome(exc=exc)
            continue
        live[v] = gen
    for words in rounds_words:
        shared = make_round(dict(words))
        for v, gen in list(live.items()):
            try:
                gen.send(read(shared, v))
            except StopIteration as stop:
                results[v] = outcome(stop.value)
                del live[v]
            except Exception as exc:  # noqa: BLE001 - compared below
                results[v] = outcome(exc=exc)
                del live[v]
    assert not live, "a phase outlived its rounds"
    return results


# -- boards: honest, silent, short of a round, bad header, wide, random --

WRITER_KINDS = ["honest", "silent", "missing_round", "bad_header", "random", "wide"]


@st.composite
def phase_boards(draw, copies=1):
    n = draw(st.integers(min_value=1, max_value=6))
    bandwidth = draw(st.integers(min_value=1, max_value=10))
    max_bits = draw(st.integers(min_value=0, max_value=18))
    rounds = phase_length(max_bits, bandwidth) * copies
    payloads = []
    rounds_words = [dict() for _ in range(rounds)]
    for writer in range(n):
        kind = draw(st.sampled_from(WRITER_KINDS))
        length = draw(st.integers(min_value=0, max_value=max_bits))
        payload = Bits(draw(st.integers(0, (1 << length) - 1)), length)
        payloads.append(None if kind == "silent" else payload)
        frames = _frame_payload(
            payload, max_bits, phase_length(max_bits, bandwidth), bandwidth
        ) * copies
        if kind == "missing_round":
            del_round = draw(st.integers(0, rounds - 1))
        for r in range(rounds):
            word = Bits(frames[r], bandwidth)
            if kind == "silent" or (kind == "missing_round" and r == del_round):
                continue
            if kind == "random":
                word = Bits(draw(st.integers(0, (1 << bandwidth) - 1)), bandwidth)
            elif kind == "wide":
                # Wider than the bandwidth: the decoder's ValueError.
                word = Bits(frames[r] | (1 << bandwidth), bandwidth + 1)
            elif kind == "bad_header" and r % (rounds // copies) == 0:
                # Some bit of the length header, in a copy's first frame.
                bit = draw(st.integers(0, min(header_width(max_bits), bandwidth) - 1))
                if draw(st.booleans()):
                    word = Bits(frames[r] ^ (1 << (bandwidth - 1 - bit)), bandwidth)
            rounds_words[r][writer] = word
    return n, bandwidth, max_bits, payloads, rounds_words


def with_copies(phase, copies):
    def run(ctx, payload, max_bits):
        return phase(ctx, payload, max_bits, copies=copies)

    return run


class TestAgainstReferenceLoop:
    @settings(max_examples=150, deadline=None)
    @given(case=phase_boards(), view=st.sampled_from(sorted(VIEWS)))
    def test_plain_and_board_form(self, case, view):
        for phase, reference in PAIRS[:2]:
            got = drive(phase, case, view)
            assert got == drive(reference, case, view), phase.__name__

    @settings(max_examples=80, deadline=None)
    @given(case=phase_boards(copies=3), view=st.sampled_from(sorted(VIEWS)))
    def test_redundant(self, case, view):
        got = drive(with_copies(transmit_broadcast_redundant, 3), case, view)
        assert got == drive(with_copies(reference_redundant, 3), case, view)

    @pytest.mark.parametrize("view", sorted(VIEWS))
    @pytest.mark.parametrize("pair", PAIRS[:2], ids=["dict", "uints"])
    @pytest.mark.parametrize(
        "kinds",
        [
            # silent writers, node 0 among them
            {0: "silent", 3: "silent"},
            # writer 2 misses the second round of a two-round phase
            {2: "missing_round"},
            # a corrupted length header on one writer ...
            {4: "bad_header"},
            # ... on two, one of them the receiver's own word at node 1
            {1: "bad_header", 3: "bad_header"},
        ],
        ids=["silent", "missing_round", "one_header", "two_headers"],
    )
    def test_listed_cases(self, kinds, pair, view):
        n, bandwidth, max_bits = 5, 7, 9  # two rounds per phase
        rounds = phase_length(max_bits, bandwidth)
        assert rounds == 2
        payloads, rounds_words = [], [dict() for _ in range(rounds)]
        for writer in range(n):
            kind = kinds.get(writer, "honest")
            payload = Bits((writer * 37 + 5) % 512, 9)
            payloads.append(None if kind == "silent" else payload)
            frames = _frame_payload(payload, max_bits, rounds, bandwidth)
            for r in range(rounds):
                if kind == "silent" or (kind == "missing_round" and r == 1):
                    continue
                word = frames[r]
                if kind == "bad_header" and r == 0:
                    # The 4-bit header reads 11 instead of 9.
                    word ^= 1 << (bandwidth - 3)
                rounds_words[r][writer] = Bits(word, bandwidth)
        case = (n, bandwidth, max_bits, payloads, rounds_words)
        got = drive(pair[0], case, view)
        assert got == drive(pair[1], case, view)
        raised = [v for v in range(n) if got[v][0] == "raised"]
        bad = [w for w, kind in kinds.items() if kind == "bad_header"]
        if len(bad) == 2:
            # Node 1 skips its own bad word and meets writer 3's.
            assert raised == list(range(n))
        elif bad:
            # Only the writer of the bad word is spared.
            assert raised == [v for v in range(n) if v not in bad]
        else:
            assert raised == []

    def test_board_tuple_is_shared_and_splices_a_faulted_own_word(self):
        n, bandwidth, max_bits = 4, 8, 5
        payloads = [Bits(v + 1, 5) for v in range(n)]
        words = {
            v: Bits(_frame_payload(payloads[v], max_bits, 1, bandwidth)[0], bandwidth)
            for v in range(n)
        }
        words[2] = Bits(words[2].to_uint() ^ 1, bandwidth)  # node 2's word hit
        case = (n, bandwidth, max_bits, payloads, [words])
        got = drive(transmit_broadcast_uints, case, "board")
        boards = [o[1] for o in got]
        assert boards[0] is boards[1] is boards[3]
        assert boards[0] == (1, 2, 2, 4)
        assert boards[2] == (1, 2, 3, 4) and boards[2] is not boards[0]


class TestFanOut:
    """``_adapt_broadcast`` drives a broadcast phase on a unicast clique:
    every receiver reads an inbox of its own."""

    @pytest.mark.parametrize("engine", ["legacy"])
    @pytest.mark.parametrize(
        "plan",
        [None, FaultPlan(seed=4, corrupt_rate=0.05, drop_rate=0.03)],
        ids=["clean", "chaos"],
    )
    @pytest.mark.parametrize("pair", PAIRS, ids=["dict", "uints", "redundant"])
    def test_matches_reference(self, pair, plan, engine):
        n, max_bits = 12, 20

        def wrapped(phase):
            def factory(ctx):
                def inner(ctx):
                    payload = None if ctx.node_id % 5 == 4 else Bits(
                        (ctx.node_id * 7919) % (1 << max_bits), max_bits
                    )
                    try:
                        value = yield from phase(ctx, payload, max_bits)
                    except Exception as exc:  # noqa: BLE001 - compared
                        return outcome(exc=exc)
                    return outcome(value)

                return inner(ctx)

            def program(ctx):
                return (yield from _adapt_broadcast(ctx, factory))

            return program

        def run(phase):
            network = Network(
                n=n, bandwidth=8, mode=Mode.UNICAST, engine=engine, seed=3,
                fault_plan=plan,
            )
            result = network.run(wrapped(phase))
            return result.outputs, result.faults

        got, want = run(pair[0]), run(pair[1])
        assert got == want
        assert bool(got[1]) == (plan is not None)


# -- the pinned chaos sweep ---------------------------------------------

CHAOS_PLANS = [
    FaultPlan(
        seed=11, corrupt_rate=0.05, drop_rate=0.02, duplicate_rate=0.03,
        delay_rate=0.03, crash_rate=0.04, crash_horizon=10,
    ),
    FaultPlan(
        seed=17, corrupt_rate=0.01, drop_rate=0.005, duplicate_rate=0.02,
        delay_rate=0.02, crash_rate=0.02, crash_horizon=12,
    ),
]


def chaos_sweep(plan: FaultPlan):
    """Each cell's coordinate and ``(status, error_type, error, digest)``."""
    result = ScenarioMatrix(
        protocols=["mst", "subgraph_detection"],
        families=["gnp", "cycle"],
        sizes=[6, 8, 16],
        engines=["legacy"],
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
    """Recorded from the per-receiver loop before the phases shared
    their decode; a change in what a faulted phase returns or raises
    moves a digest."""

    @pytest.mark.parametrize(
        "plan, digest",
        [
            (CHAOS_PLANS[0], "80028e6695e6e5c6"),
            (CHAOS_PLANS[1], "e59363ade0983aaa"),
        ],
        ids=["strong", "weak"],
    )
    def test_outcomes_pinned(self, plan, digest):
        cells = chaos_sweep(plan)
        assert len(cells) == 12
        assert any(faults for _c, _o, faults in cells), "the plan injected nothing"
        assert sweep_digest(cells) == digest, cells

