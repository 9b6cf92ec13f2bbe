"""The sweep worker process: pull cell tasks, execute, report.

Workers are persistent (one process executes many cells — spawn cost is
paid once per worker, not per cell) and deliberately thin: all sweep
policy (retry, backoff, deadlines, quarantine, journaling) lives in the
supervisor; a worker only executes :func:`repro.scenarios.matrix.run_cell`
— a pure function of the cell coordinates — and streams events back.

Event protocol on the shared result queue (tuples, first element tags):

``("start", worker_id, key, attempt)``
    The worker picked up a task; the supervisor starts its deadline.
``("hb", worker_id, key)``
    Heartbeat, emitted every ``heartbeat_interval`` seconds while a cell
    executes; staleness is the supervisor's liveness signal for hangs
    the in-cell round watchdog cannot see (native code, ``prepare``).
``("done", worker_id, key, attempt, cell_dict, seconds)``
    The cell completed (including protocol-level failure — a failed
    :class:`MatrixCell` is still a *completed* execution).
``("error", worker_id, key, attempt, message, traceback_digest)``
    The harness itself raised inside the worker; the supervisor retries.

A worker installs no signal handler.  The supervisor stops workers
with SIGKILL; a SIGTERM from outside ends the worker the same way, and
the supervisor retries its cell like any other crash.

Workers exit when they receive the ``None`` sentinel, or when their
parent disappears (``os.getppid()`` changes — the supervisor was
SIGKILLed and nobody will ever drain the queues; orphaned workers must
not linger).
"""

from __future__ import annotations

import hashlib
import os
import threading
import time
import traceback
from queue import Empty
from typing import Optional, Tuple

__all__ = ["worker_main", "CURRENT_TASK"]

#: ``(key, attempt)`` of the task this worker process is currently
#: executing, or None.  Exposed so chaos-test protocols can condition on
#: the attempt number (e.g. crash only on the first attempt).
CURRENT_TASK: Optional[Tuple[str, int]] = None


def _heartbeat(result_queue, worker_id: int, key: str, interval: float, stop):
    while not stop.wait(interval):
        try:
            result_queue.put(("hb", worker_id, key))
        except Exception:  # noqa: BLE001 - queue torn down; exit quietly
            return


def worker_main(
    worker_id: int,
    task_queue,
    result_queue,
    heartbeat_interval: float = 0.5,
) -> None:
    """Worker process entry point (module-level: spawn-picklable)."""
    global CURRENT_TASK
    parent = os.getppid()
    while True:
        try:
            task = task_queue.get(timeout=1.0)
        except Empty:
            if os.getppid() != parent:
                return  # orphaned: supervisor died without cleanup
            continue
        if task is None:
            return
        (
            key, spec, family_name, n, engine, seed, repeats, verify,
            fault_plan_json, round_limit, attempt,
        ) = task
        CURRENT_TASK = (key, attempt)
        result_queue.put(("start", worker_id, key, attempt))
        stop = threading.Event()
        beat = threading.Thread(
            target=_heartbeat,
            args=(result_queue, worker_id, key, heartbeat_interval, stop),
            daemon=True,
        )
        beat.start()
        try:
            from repro.core.faults import FaultPlan
            from repro.scenarios.matrix import run_cell

            fault_plan = (
                None
                if fault_plan_json is None
                else FaultPlan.from_json(fault_plan_json)
            )
            start = time.perf_counter()  # analysis: allow(wall-clock)
            cell = run_cell(
                spec, family_name, n, engine,
                seed=seed, repeats=repeats, verify=verify,
                fault_plan=fault_plan, round_limit=round_limit,
            )
            seconds = time.perf_counter() - start  # analysis: allow(wall-clock)
            result_queue.put(
                ("done", worker_id, key, attempt, cell.to_dict(), seconds)
            )
        except BaseException as exc:  # noqa: BLE001 - report, don't die
            digest = hashlib.sha256(
                traceback.format_exc().encode()
            ).hexdigest()[:12]
            result_queue.put(
                (
                    "error", worker_id, key, attempt,
                    f"{type(exc).__name__}: {exc}", digest,
                )
            )
            if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                return
        finally:
            stop.set()
            beat.join(timeout=1.0)
            CURRENT_TASK = None
