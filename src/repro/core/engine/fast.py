"""The fast engine: the legacy loop's delivery plus the unicast lane.

A round in which every non-silent sender yielded a fixed-width unicast
outbox of one width, dense enough to pay for array operations, rides
the unicast lane (:class:`~repro.core.fastlane.FixedLane`).  Every other
round, and every round under an active fault plan, is delivered exactly
as the legacy engine delivers it: :func:`deliver_outbox` per sender
into fresh dicts (one board in a broadcast network, one dict per
receiver otherwise), then the run's
:class:`~repro.core.faults.FaultSession`, then each node's inbox as the
node resumes.  Each round hands out fresh inboxes, so an inbox keeps
its round's messages.

Generator programs have no compiled form here: a generator's round
structure is only observable by running it.  Protocols whose structure
is fixed by ``n`` and public parameters ship a declared
:class:`~repro.core.kernels.KernelProgram` twin for the kernel engine
instead.  Every path lands on results byte-identical to the legacy
engine.
"""

from __future__ import annotations

from typing import Any, List, Optional

from repro.core.engine.delivery import deliver_outbox
from repro.core.mailbox import EMPTY_INBOX, Board, BoardInbox, Inbox

__all__ = ["run_many"]

# A fixed-width round rides the bulk lane only when it averages at least
# this many messages per sender; sparser rounds are cheaper through the
# scalar dict path than through per-sender array operations.
_LANE_DENSITY = 8


def run_many(network: Any, program, inputs_list) -> List[Any]:
    """Run ``program`` once per entry of ``inputs_list``, in order."""
    return [_run(network, program, inputs) for inputs in inputs_list]


def _lane_round(pending):
    """``(senders, width)`` when the unicast lane can deliver the whole
    round, else ``None``: every non-silent sender yielded a fixed-width
    outbox of one width, and the round averages at least
    :data:`_LANE_DENSITY` messages per sender.
    """
    senders = []
    width = None
    messages = 0
    for v, outbox in pending.items():
        kind = outbox.kind
        if kind == "silent":
            continue
        if kind != "fixed":
            return None
        if width is None:
            width = outbox.width
        elif outbox.width != width:
            return None
        senders.append((v, outbox))
        messages += len(outbox.dests)
    if senders and messages >= _LANE_DENSITY * len(senders):
        return senders, width
    return None


def _run(network: Any, program, inputs) -> Any:
    from repro.core.network import Mode, RoundRecord, RunResult

    n = network.n
    outputs, generators, pending = network._start(program, inputs)

    rounds = 0
    total_bits = 0
    max_round_bits = 0
    recording = network.record_transcript
    transcript: Optional[List[Any]] = [] if recording else None
    faults = network._fault_session()
    round_cap = network._round_cap()
    check_outbox = network._check_outbox
    broadcast = network.mode is Mode.BROADCAST
    # A fixed-width outbox reaches only its sender's neighbours, so where
    # every degree is below the lane's density (a sparse CONGEST
    # topology, a clique of at most 8 nodes) no round can ride the lane;
    # nor in a broadcast network, or under an active fault plan, whose
    # rounds are all scalar so that the plan sees each message.
    lane_possible = (
        faults is None
        and not broadcast
        and max(map(len, network._neighbors)) >= _LANE_DENSITY
    )

    while generators:
        if rounds >= round_cap:
            raise network._round_cap_error(rounds)
        rounds += 1
        record = RoundRecord() if recording else None
        lane_round = _lane_round(pending) if lane_possible else None
        board = lane_inboxes = None
        if lane_round is not None:
            # The lane is numpy-backed; importing it here keeps
            # ``import repro.core`` numpy-free until a lane round happens.
            from repro.core.fastlane import FixedLane

            senders, width = lane_round
            round_bits, lane_inboxes = FixedLane(n).deliver(
                senders, width, record
            )
        else:
            boxes: Any = {} if broadcast else [{} for _ in range(n)]
            round_bits = 0
            for v, outbox in pending.items():
                round_bits += deliver_outbox(
                    network, v, outbox, boxes, record, rounds
                )
            if faults is not None:
                faults.apply_scalar(rounds, boxes)
            if broadcast:
                board = Board(boxes)
        total_bits += round_bits
        if round_bits > max_round_bits:
            max_round_bits = round_bits
        if record is not None:
            transcript.append(record)

        pending = {}
        finished = []
        for v, gen in generators.items():
            if board is not None:
                inbox = BoardInbox(board, v)
            elif lane_inboxes is not None:
                inbox = lane_inboxes[v]
            else:
                inbox = Inbox(boxes[v]) if boxes[v] else EMPTY_INBOX
            try:
                pending[v] = check_outbox(v, gen.send(inbox))
            except StopIteration as stop:
                outputs[v] = stop.value
                finished.append(v)
        for v in finished:
            del generators[v]

    return RunResult(
        outputs=outputs,
        rounds=rounds,
        total_bits=total_bits,
        max_round_bits=max_round_bits,
        transcript=transcript,
        faults=faults.events if faults is not None else None,
    )
