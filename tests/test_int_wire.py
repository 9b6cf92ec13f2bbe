"""The int wire against the Bits path, as a property over random rounds.

A unicast or CONGEST round whose non-silent senders all yield
fixed-width outboxes of one width crosses the wire as plain ints when no
fault plan is active.  An active plan whose one trigger never fires
sends the same rounds down the Bits path and changes nothing else, so
the two runs must agree on everything a program or a caller can see.
"""

from __future__ import annotations

import random

from hypothesis import given
from hypothesis import strategies as st

from repro.core.faults import FaultPlan
from repro.core.mailbox import UintInbox
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
            seen.append(
                (
                    inbox.senders(),
                    inbox.items(),
                    inbox.uint_items(),
                    len(inbox),
                    [inbox.get(s) for s in probes],
                    [s in inbox for s in probes],
                )
            )
            flavours.append((len(inbox) > 0, type(inbox) is UintInbox))
        return seen, flavours

    return program


def one_width(outboxes):
    widths = {planned[2] for planned in outboxes if planned is not None}
    return len(widths) == 1


@given(fixed_width_runs())
def test_int_wire_matches_bits_path(case):
    n, topology, bandwidth, script = case
    mode = Mode.UNICAST if topology is None else Mode.CONGEST
    runs = {}
    for plan in (None, BITS_PATH):
        for record in (False, True):
            network = Network(
                n=n,
                bandwidth=bandwidth,
                mode=mode,
                topology=topology,
                fault_plan=plan,
                record_transcript=record,
            )
            runs[plan is None, record] = network.run(scripted_program(n, script))
    reference = runs[False, True]
    assert reference.faults == []
    for (int_wire, record), result in runs.items():
        assert [seen for seen, _ in result.outputs] == [
            seen for seen, _ in reference.outputs
        ]
        assert result.rounds == reference.rounds == len(script)
        assert result.total_bits == reference.total_bits
        assert result.max_round_bits == reference.max_round_bits
        if record:
            assert [rec.sends for rec in result.transcript] == [
                rec.sends for rec in reference.transcript
            ]
        else:
            assert result.transcript is None
        # Which rounds crossed as ints: on the int wire, every non-empty
        # inbox of a one-width round; on the Bits path, none.
        for v, (_seen, flavours) in enumerate(result.outputs):
            for outboxes, (nonempty, as_ints) in zip(script, flavours):
                assert as_ints == (int_wire and nonempty and one_width(outboxes))
