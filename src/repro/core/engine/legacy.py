"""The legacy reference engine: per-round allocation, scalar delivery.

This is the original round loop the project started from, kept as the
*executable reference semantics*: every other engine is pinned
byte-for-byte to its results by the equivalence suites.  It allocates
fresh dicts every round — one board in a broadcast network, where each
writer's word is written once and every node reads it through a
:class:`~repro.core.mailbox.BoardInbox`, and otherwise one dict per
receiver — delivers every message through the fully validating scalar
path, and never caches or replays anything: slow, simple, and
obviously correct.

A unicast or CONGEST round whose senders all yielded fixed-width
outboxes of one width crosses the wire as ints when no fault plan is
active: :func:`deliver_outbox` writes each value into its receiver's
dict as it is, and the receiver reads a
:class:`~repro.core.mailbox.UintInbox`.  Every other round, and every
round under an active plan, carries :class:`~repro.core.bits.Bits`.
The ``fast`` engine name runs this same loop.

It executes generator node programs only; kernel programs declare their
round structure instead of yielding it, and the network sends them to
the kernel engine whichever engine it names.
"""

from __future__ import annotations

from typing import Any, List, Optional

from repro.core.engine.delivery import deliver_outbox, int_round_width
from repro.core.mailbox import EMPTY_INBOX, Board, BoardInbox, Inbox, UintInbox

__all__ = ["run_many"]


def run_many(network: Any, program, inputs_list) -> List[Any]:
    """Run ``program`` once per entry of ``inputs_list``, in order."""
    return [_run(network, program, inputs) for inputs in inputs_list]


def _run(network: Any, program, inputs) -> Any:
    from repro.core.network import Mode, RoundRecord, RunResult

    n = network.n
    outputs, generators, pending_outbox = network._start(program, inputs)

    rounds = 0
    total_bits = 0
    max_round_bits = 0
    recording = network.record_transcript
    transcript: Optional[List[Any]] = [] if recording else None
    faults = network._fault_session()
    round_cap = network._round_cap()
    check_outbox = network._check_outbox
    broadcast = network.mode is Mode.BROADCAST
    # An active fault plan acts on Bits, so its rounds never carry ints.
    int_wire = faults is None and not broadcast

    while generators:
        if rounds >= round_cap:
            raise network._round_cap_error(rounds)
        rounds += 1
        boxes: Any = {} if broadcast else [{} for _ in range(n)]
        record = RoundRecord() if recording else None
        round_bits = 0
        width = int_round_width(pending_outbox) if int_wire else None
        as_ints = width is not None
        for v, outbox in pending_outbox.items():
            round_bits += deliver_outbox(
                network, v, outbox, boxes, record, rounds, as_ints
            )
        total_bits += round_bits
        if round_bits > max_round_bits:
            max_round_bits = round_bits
        if record is not None:
            transcript.append(record)
        if faults is not None:
            # Receive-side chaos: the wire (transcript, bit counts)
            # saw the real sends; what each node reads is the plan's
            # business from here on.
            faults.apply_scalar(rounds, boxes)
        board = Board(boxes) if broadcast else None

        pending_outbox = {}
        finished = []
        for v, gen in generators.items():
            if board is not None:
                inbox = BoardInbox(board, v)
            elif not boxes[v]:
                inbox = EMPTY_INBOX
            elif as_ints:
                inbox = UintInbox(boxes[v], width)
            else:
                inbox = Inbox(boxes[v])
            try:
                pending_outbox[v] = check_outbox(v, gen.send(inbox))
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
