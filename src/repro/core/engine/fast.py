"""The fast engine: zero-churn round loop with bulk lanes.

Every generator-program run executes through one validating round loop:
per-round classification dispatches each round to the unicast bulk lane
(:class:`~repro.core.fastlane.FixedLane`), the blackboard bulk lane
(:class:`~repro.core.fastlane.BroadcastLane`) or the scalar path.  The
scalar inbox dicts and their :class:`~repro.core.network.Inbox` views
live for the whole run and are cleared, never reconstructed; each lane
is created on the first round that can use it.  Under an active fault
plan every round takes the scalar path, and the run's
:class:`~repro.core.faults.FaultSession` edits the delivered dicts, as
in the legacy loop.

Generator programs have no compiled form here: a generator's round
structure is only observable by running it.  Protocols whose structure
is fixed by ``n`` and public parameters ship a declared
:class:`~repro.core.kernels.KernelProgram` twin for the kernel engine
instead.  Every path lands on results byte-identical to the legacy
engine.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.core.engine.delivery import deliver_outbox, deliver_round_scalar

__all__ = ["run_many"]

# A fixed-width round rides the bulk lane only when it averages at least
# this many messages per sender; sparser rounds are cheaper through the
# scalar dict path than through per-sender array operations.
_LANE_DENSITY = 8


def run_many(network: Any, program, inputs_list) -> List[Any]:
    """Run ``program`` once per entry of ``inputs_list``, in order."""
    return [_run(network, program, inputs) for inputs in inputs_list]


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

    # Reusable per-round state: the scalar buffers live for the whole
    # run and are cleared, never reconstructed (``scalar_dirty`` says
    # whether a previous scalar round filled them).  Under an active
    # fault plan every round is scalar, so the plan sees each delivered
    # message individually.
    inbox_dicts: List[Dict[int, Any]] = [{} for _ in range(n)]
    inbox_views = [Inbox(d) for d in inbox_dicts]
    scalar_dirty = False
    fixed_list: List[Tuple[int, Any]] = []
    bcast_list: List[Tuple[int, Any]] = []
    lane = None  # FixedLane, allocated on the first bulk round
    blane = None  # BroadcastLane, allocated on the first bulk round
    check_outbox = network._check_outbox

    while generators:
        if rounds >= round_cap:
            raise network._round_cap_error(rounds)
        rounds += 1

        # Classify the round: it can ride the unicast bulk lane iff
        # every non-silent sender yielded a fixed-width outbox of one
        # width AND the round is dense enough that per-sender array
        # operations beat per-message dict writes; it can ride the
        # broadcast lane iff every non-silent sender yielded a
        # fixed-width broadcast of one width (a broadcast write is
        # always denser than its n-1 scalar deliveries, so there is
        # no density threshold).
        fixed_list.clear()
        bcast_list.clear()
        scalar_senders = False
        lane_width = 0
        bcast_width = 0
        fixed_messages = 0
        for v, outbox in pending.items():
            kind = outbox.kind
            if kind == "silent":
                continue
            if kind == "fixed":
                width = outbox.width
                if lane_width == 0:
                    lane_width = width
                elif width != lane_width:
                    scalar_senders = True
                fixed_list.append((v, outbox))
                fixed_messages += outbox.dests.size
            elif kind == "bfixed":
                width = outbox.width
                if bcast_width == 0:
                    bcast_width = width
                elif width != bcast_width:
                    scalar_senders = True
                bcast_list.append((v, outbox))
            else:
                scalar_senders = True
        use_lane = (
            faults is None
            and bool(fixed_list)
            and not scalar_senders
            and not bcast_list
            and fixed_messages >= _LANE_DENSITY * len(fixed_list)
        )
        use_bcast_lane = (
            faults is None
            and bool(bcast_list)
            and not scalar_senders
            and not fixed_list
        )

        record = RoundRecord() if recording else None
        if use_lane:
            if lane is None:
                from repro.core.fastlane import FixedLane

                lane = FixedLane(n)
            round_bits = lane.deliver(fixed_list, lane_width, record)
        elif use_bcast_lane:
            if blane is None:
                from repro.core.fastlane import BroadcastLane

                blane = BroadcastLane(n)
            round_bits = blane.deliver(bcast_list, bcast_width, record)
        else:
            if scalar_dirty:
                for u in range(n):
                    inbox_dicts[u].clear()
                    inbox_views[u]._reset()
            scalar_dirty = True
            if record is not None:
                round_bits = 0
                for v, outbox in pending.items():
                    round_bits += deliver_outbox(
                        network, v, outbox, inbox_dicts, record, rounds
                    )
            else:
                round_bits = deliver_round_scalar(
                    network, pending, inbox_dicts, rounds
                )
            if faults is not None:
                faults.apply_scalar(rounds, inbox_dicts)
        total_bits += round_bits
        if round_bits > max_round_bits:
            max_round_bits = round_bits
        if record is not None:
            transcript.append(record)

        pending = {}
        finished = []
        if use_lane:
            for v, gen in generators.items():
                try:
                    pending[v] = check_outbox(v, gen.send(lane.inbox(v)))
                except StopIteration as stop:
                    outputs[v] = stop.value
                    finished.append(v)
        elif use_bcast_lane:
            for v, gen in generators.items():
                try:
                    pending[v] = check_outbox(v, gen.send(blane.inbox(v)))
                except StopIteration as stop:
                    outputs[v] = stop.value
                    finished.append(v)
        else:
            for v, gen in generators.items():
                buf = inbox_dicts[v]
                inbox = inbox_views[v] if buf else EMPTY_INBOX
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
