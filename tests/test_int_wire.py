"""The int wire against the Bits path, as a property over random rounds.

A round whose non-silent senders all yield fixed-width outboxes of one
width crosses the wire as plain ints when no fault plan is active: a
unicast or CONGEST round into :class:`UintInbox` dicts, a CLIQUE-BCAST
round onto a :class:`UintBoard`.  An active plan whose one trigger
never fires sends the same rounds down the Bits path and changes
nothing else, so the two runs must agree on everything a program or a
caller can see.
"""

from __future__ import annotations

import random

from hypothesis import given
from hypothesis import strategies as st

from repro.core.bits import Bits
from repro.core.faults import FaultPlan
from repro.core.mailbox import UintBoard, UintInbox, inbox_source
from repro.core.network import Mode, Network, Outbox

#: Active, so every round takes the Bits path, and never firing.
BITS_PATH = FaultPlan(triggers={(10**9, 0, 1): "drop"})


@st.composite
def fixed_width_runs(draw):
    """``(n, topology, bandwidth, script)``: ``script[r][v]`` is node
    ``v``'s round-``r`` outbox as ``None`` (silent) or ``(dests, values,
    width)``.  A round mostly has one width; some give one node another
    width, which sends the round down the Bits path on every run."""
    n = draw(st.integers(min_value=2, max_value=9))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = random.Random(seed)
    if draw(st.booleans()):
        density = rng.random()
        topology = [set() for _ in range(n)]
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < density:
                    topology[u].add(v)
                    topology[v].add(u)
        neighbours = [sorted(nbrs) for nbrs in topology]
    else:
        topology = None
        neighbours = [[u for u in range(n) if u != v] for v in range(n)]
    widths = draw(
        st.lists(st.integers(min_value=1, max_value=130), min_size=1, max_size=4)
    )
    bandwidth = max(widths) + 1
    script = []
    for width in widths:
        odd = rng.randrange(n) if rng.random() < 0.2 else None
        silent = rng.random()
        outboxes = []
        for v in range(n):
            if rng.random() < silent * 0.6:
                outboxes.append(None)
                continue
            w = width + 1 if v == odd else width
            dests = [u for u in neighbours[v] if rng.random() < 0.7]
            rng.shuffle(dests)
            values = [rng.getrandbits(w) for _ in dests]
            outboxes.append((dests, values, w))
        script.append(outboxes)
    return n, topology, bandwidth, script


def read_inbox(inbox, probes):
    """What a receiver can read of ``inbox``, through every accessor."""
    return (
        inbox.senders(),
        inbox.items(),
        inbox.uint_items(),
        len(inbox),
        [inbox.get(s) for s in probes],
        [s in inbox for s in probes],
    )


def scripted_program(n, script):
    """Node ``v`` yields its scripted outboxes and returns what it read
    through every accessor of each inbox, and the inbox flavours."""
    probes = list(range(-1, n + 1))

    def program(ctx):
        seen, flavours = [], []
        for outboxes in script:
            planned = outboxes[ctx.node_id]
            inbox = yield (
                Outbox.silent() if planned is None else Outbox.fixed_width(*planned)
            )
            seen.append(read_inbox(inbox, probes))
            flavours.append((len(inbox) > 0, type(inbox) is UintInbox))
        return seen, flavours

    return program


def one_width(outboxes):
    widths = {planned[2] for planned in outboxes if planned is not None}
    return len(widths) == 1


def run_both_paths(program, rounds, **network):
    """Run ``program`` with and without the Bits-path plan, with and
    without a transcript, and check that the four runs agree on
    everything a program or a caller can see; return them keyed by
    ``(int wire, recorded)``.  Each program returns ``(seen,
    flavours)``: what it read, and which inbox flavours it got."""
    runs = {}
    for plan in (None, BITS_PATH):
        for record in (False, True):
            runs[plan is None, record] = Network(
                fault_plan=plan, record_transcript=record, **network
            ).run(program)
    reference = runs[False, True]
    assert reference.faults == []
    for (_int_wire, record), result in runs.items():
        assert [seen for seen, _ in result.outputs] == [
            seen for seen, _ in reference.outputs
        ]
        assert result.rounds == reference.rounds == rounds
        assert result.total_bits == reference.total_bits
        assert result.max_round_bits == reference.max_round_bits
        if record:
            assert [rec.sends for rec in result.transcript] == [
                rec.sends for rec in reference.transcript
            ]
        else:
            assert result.transcript is None
    return runs


@given(fixed_width_runs())
def test_int_wire_matches_bits_path(case):
    n, topology, bandwidth, script = case
    runs = run_both_paths(
        scripted_program(n, script),
        len(script),
        n=n,
        bandwidth=bandwidth,
        mode=Mode.UNICAST if topology is None else Mode.CONGEST,
        topology=topology,
    )
    for (int_wire, _record), result in runs.items():
        # Which rounds crossed as ints: on the int wire, every non-empty
        # inbox of a one-width round; on the Bits path, none.
        for v, (_seen, flavours) in enumerate(result.outputs):
            for outboxes, (nonempty, as_ints) in zip(script, flavours):
                assert as_ints == (int_wire and nonempty and one_width(outboxes))


@st.composite
def broadcast_runs(draw):
    """``(n, bandwidth, script)``: ``script[r][v]`` is node ``v``'s
    round-``r`` word as ``None`` (silent), ``("uint", value, width)`` (a
    fixed-width broadcast) or ``("bits", value, length)`` (a
    :class:`Bits` broadcast).  A round mostly has one width; some give
    one node another width, a ``Bits`` word or a zero-length ``Bits``
    word, each of which keeps the round on the ``Bits`` board."""
    n = draw(st.integers(min_value=1, max_value=9))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = random.Random(seed)
    widths = draw(
        st.lists(st.integers(min_value=1, max_value=130), min_size=1, max_size=4)
    )
    bandwidth = max(widths) + 1
    script = []
    for width in widths:
        odd = rng.randrange(n) if rng.random() < 0.3 else None
        odd_word = rng.choice([("uint", width + 1), ("bits", width), ("bits", 0)])
        silent = rng.random()
        words = []
        for v in range(n):
            if rng.random() < silent * 0.6:
                words.append(None)
                continue
            kind, w = odd_word if v == odd else ("uint", width)
            words.append((kind, rng.getrandbits(w) if w else 0, w))
        script.append(words)
    return n, bandwidth, script


def scripted_broadcast_program(n, script):
    """:func:`scripted_program` on a blackboard: node ``v`` writes its
    scripted words and returns what it read of each round, and whether
    the round was an int board."""
    probes = list(range(-1, n + 1))

    def program(ctx):
        seen, flavours = [], []
        for words in script:
            planned = words[ctx.node_id]
            if planned is None:
                outbox = Outbox.silent()
            elif planned[0] == "uint":
                outbox = Outbox.broadcast_uint(planned[1], planned[2])
            else:
                outbox = Outbox.broadcast(Bits(planned[1], planned[2]))
            inbox = yield outbox
            seen.append(read_inbox(inbox, probes))
            flavours.append(type(inbox_source(inbox)) is UintBoard)
        return seen, flavours

    return program


def one_uint_width(words):
    """Whether the round's words are all fixed-width broadcasts of one
    width (a silent round has none)."""
    kinds = {(planned[0], planned[2]) for planned in words if planned is not None}
    return len(kinds) == 1 and next(iter(kinds))[0] == "uint"


@given(broadcast_runs())
def test_int_board_matches_bits_board(case):
    n, bandwidth, script = case
    runs = run_both_paths(
        scripted_broadcast_program(n, script),
        len(script),
        n=n,
        bandwidth=bandwidth,
        mode=Mode.BROADCAST,
    )
    for (int_wire, _record), result in runs.items():
        # Every reader of a round sees one board: an int board exactly
        # when, on the int wire, the round's words are all fixed-width
        # broadcasts of one width.
        for _seen, flavours in result.outputs:
            assert flavours == [
                int_wire and one_uint_width(words) for words in script
            ]
