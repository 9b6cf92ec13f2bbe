"""The fast engine: the legacy loop's delivery plus two bulk lanes.

A round in which every non-silent sender yielded a fixed-width unicast
outbox of one width, dense enough to pay for array operations, rides
the unicast lane (:class:`~repro.core.fastlane.FixedLane`); a round in
which every non-silent sender yielded a fixed-width broadcast of one
width rides the blackboard lane
(:class:`~repro.core.fastlane.BroadcastLane`).  Every other round, and
every round under an active fault plan, is delivered exactly as the
legacy engine delivers it: :func:`deliver_outbox` per sender into fresh
dicts, then the run's :class:`~repro.core.faults.FaultSession`, then one
:class:`~repro.core.network.Inbox` per receiver.  Each round hands out
fresh inboxes, so an inbox keeps its round's messages.

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

__all__ = ["run_many"]

# A fixed-width round rides the bulk lane only when it averages at least
# this many messages per sender; sparser rounds are cheaper through the
# scalar dict path than through per-sender array operations.
_LANE_DENSITY = 8


def run_many(network: Any, program, inputs_list) -> List[Any]:
    """Run ``program`` once per entry of ``inputs_list``, in order."""
    return [_run(network, program, inputs) for inputs in inputs_list]


def _lane_round(n: int, pending):
    """``(lane, senders, width)`` when a bulk lane can deliver the whole
    round, else ``None``.

    The unicast lane takes the round iff every non-silent sender yielded
    a fixed-width outbox of one width and the round averages at least
    :data:`_LANE_DENSITY` messages per sender; the broadcast lane takes
    it iff every non-silent sender yielded a fixed-width broadcast of
    one width (a broadcast write is always denser than its n-1 scalar
    deliveries, so there is no density threshold).
    """
    senders = []
    kind = None
    width = 0
    messages = 0
    for v, outbox in pending.items():
        this = outbox.kind
        if this == "silent":
            continue
        if this not in ("fixed", "bfixed"):
            return None
        if kind is None:
            kind = this
            width = outbox.width
        elif this != kind or outbox.width != width:
            return None
        senders.append((v, outbox))
        if this == "fixed":
            messages += len(outbox.dests)
    # The lanes are numpy-backed; importing them here keeps
    # ``import repro.core`` numpy-free until a lane round happens.
    if kind == "bfixed":
        from repro.core.fastlane import BroadcastLane

        return BroadcastLane(n), senders, width
    if kind == "fixed" and messages >= _LANE_DENSITY * len(senders):
        from repro.core.fastlane import FixedLane

        return FixedLane(n), senders, width
    return None


def _run(network: Any, program, inputs) -> Any:
    from repro.core.network import EMPTY_INBOX, Inbox, RoundRecord, RunResult

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

    while generators:
        if rounds >= round_cap:
            raise network._round_cap_error(rounds)
        rounds += 1
        record = RoundRecord() if recording else None
        # Under an active fault plan every round is scalar, so the plan
        # sees each delivered message individually.
        lane_round = None if faults is not None else _lane_round(n, pending)
        if lane_round is not None:
            lane, senders, width = lane_round
            round_bits, inboxes = lane.deliver(senders, width, record)
        else:
            dicts = [{} for _ in range(n)]
            round_bits = 0
            for v, outbox in pending.items():
                round_bits += deliver_outbox(
                    network, v, outbox, dicts, record, rounds
                )
            if faults is not None:
                faults.apply_scalar(rounds, dicts)
            inboxes = [Inbox(d) if d else EMPTY_INBOX for d in dicts]
        total_bits += round_bits
        if round_bits > max_round_bits:
            max_round_bits = round_bits
        if record is not None:
            transcript.append(record)

        pending = {}
        finished = []
        for v, gen in generators.items():
            try:
                pending[v] = check_outbox(v, gen.send(inboxes[v]))
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
