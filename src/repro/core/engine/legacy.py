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

It executes generator node programs only; kernel programs declare their
round structure instead of yielding it, and the network sends them to
the kernel engine whichever engine it names.
"""

from __future__ import annotations

from typing import Any, List, Optional

from repro.core.engine.delivery import deliver_outbox
from repro.core.mailbox import EMPTY_INBOX, Board, BoardInbox, Inbox

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
    broadcast = network.mode is Mode.BROADCAST

    while generators:
        if rounds >= round_cap:
            raise network._round_cap_error(rounds)
        rounds += 1
        boxes: Any = {} if broadcast else [{} for _ in range(n)]
        record = RoundRecord() if recording else None
        round_bits = 0
        for v, outbox in pending_outbox.items():
            round_bits += deliver_outbox(
                network, v, outbox, boxes, record, rounds
            )
        total_bits += round_bits
        max_round_bits = max(max_round_bits, round_bits)
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
            else:
                inbox = Inbox(boxes[v]) if boxes[v] else EMPTY_INBOX
            try:
                pending_outbox[v] = network._check_outbox(v, gen.send(inbox))
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
