"""The sweep worker process: pull coordinate tasks, execute, report.

Workers are persistent (one process executes many coordinates — spawn
cost is paid once per worker, not per task) and deliberately thin: all
sweep policy (retry, backoff, deadlines, quarantine, journaling) lives
in the supervisor.  A worker receives the
:class:`~repro.scenarios.matrix.ScenarioMatrix` and its protocol specs
once, at spawn; each task is ``(coordinate, engines, attempt)``, which
the worker runs through
:meth:`~repro.scenarios.matrix.ScenarioMatrix.run_coordinate` — a pure
function of the coordinate — streaming events back.

Events go back over the worker's private pipe (tuples, first element
tags):

``("start", coordinate, attempt)``
    The worker picked up a task; the supervisor starts its deadline.
``("hb", coordinate)``
    Heartbeat, emitted every ``HEARTBEAT_INTERVAL`` seconds while a
    task executes; staleness is the supervisor's liveness signal for
    hangs the in-cell round watchdog cannot see (native code,
    ``prepare``).
``("done", coordinate, attempt, cell_dicts, seconds)``
    The coordinate completed: one :meth:`MatrixCell.to_dict` payload per
    engine of the task (including protocol-level failure — a failed
    cell is still a *completed* execution).
``("error", coordinate, attempt, message, traceback_digest)``
    The harness itself raised inside the worker; the supervisor retries.

A worker installs no signal handler.  The supervisor stops workers
with SIGKILL; a SIGTERM from outside ends the worker the same way, and
the supervisor retries its coordinate like any other crash.

Workers exit when they receive the ``None`` sentinel, or when their
pipe reports end-of-file (the supervisor is gone and nobody will ever
read their events; orphaned workers must not linger).
"""

from __future__ import annotations

import hashlib
import threading
import time
import traceback
from typing import Any, Optional, Tuple

from repro.scenarios.sweep.pool import HEARTBEAT_INTERVAL

__all__ = ["worker_main", "CURRENT_TASK"]

#: ``(coordinate, attempt)`` of the task this worker process is
#: currently executing, or None.  Exposed so chaos-test protocols can
#: condition on the attempt number (e.g. crash only on the first
#: attempt).
CURRENT_TASK: Optional[Tuple[Any, int]] = None


def _heartbeat(send, coord, stop) -> None:
    while not stop.wait(HEARTBEAT_INTERVAL):
        try:
            send(("hb", coord))
        except OSError:  # pipe torn down; exit quietly
            return


def worker_main(conn, matrix, specs) -> None:
    """Worker process entry point (module-level: spawn-picklable)."""
    global CURRENT_TASK
    lock = threading.Lock()  # the heartbeat thread shares the pipe

    def send(event) -> None:
        with lock:
            conn.send(event)

    while True:
        try:
            task = conn.recv()
        except EOFError:
            return  # orphaned: supervisor died without cleanup
        if task is None:
            return
        coord, engines, attempt = task
        CURRENT_TASK = (coord, attempt)
        send(("start", coord, attempt))
        stop = threading.Event()
        beat = threading.Thread(
            target=_heartbeat, args=(send, coord, stop), daemon=True
        )
        beat.start()
        try:
            protocol, family, n = coord
            start = time.perf_counter()  # analysis: allow(wall-clock)
            cells = matrix.run_coordinate(specs[protocol], family, n, engines)
            seconds = time.perf_counter() - start  # analysis: allow(wall-clock)
            send(
                (
                    "done", coord, attempt,
                    [cell.to_dict() for cell in cells], seconds,
                )
            )
        except BaseException as exc:  # noqa: BLE001 - report, don't die
            digest = hashlib.sha256(
                traceback.format_exc().encode()
            ).hexdigest()[:12]
            send(
                (
                    "error", coord, attempt,
                    f"{type(exc).__name__}: {exc}", digest,
                )
            )
            if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                return
        finally:
            stop.set()
            beat.join(timeout=1.0)
            CURRENT_TASK = None
