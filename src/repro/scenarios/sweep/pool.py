"""The supervised worker pool: a sweep's pending coordinates on W processes.

:func:`run_sharded` is the ``workers >= 1`` branch of
:meth:`~repro.scenarios.matrix.ScenarioMatrix.run`.  It spreads the
``(coordinate, engines)`` pairs a sweep still owes across up to ``W``
persistent spawn-context worker processes and supervises them.  Each
worker receives the matrix and its protocol specs once, at spawn; a task
is one coordinate, the engines it still owes and the attempt number, and
the worker runs it through
:meth:`~repro.scenarios.matrix.ScenarioMatrix.run_coordinate`, so a
coordinate is prepared once per attempt however many engines it runs.
The supervisor enforces a wall-clock deadline per task (``cell_timeout``
seconds per cell of the task; SIGKILL on expiry — the backstop for hangs
the in-cell round watchdog cannot see), watches heartbeats, respawns
crashed workers, retries an interrupted coordinate's unjournaled cells
with capped exponential backoff, and after ``max_attempts`` quarantines
them (recorded as ``failed`` cells with ``quarantined=True`` — never
silently dropped).  Completed cells are journaled durably
(:mod:`repro.scenarios.sweep.journal`) so a killed sweep resumes where
it stopped.

The hard invariant is determinism: a coordinate's cells are a pure
function of its coordinates, and every cross-cell verdict is computed at
assembly (:meth:`ScenarioMatrix._finalize_coordinate`), so result
digests are byte-identical across worker counts, scheduling orders,
worker kills, retries and kill-then-resume boundaries.  The chaos hooks
(``chaos_kills`` — SIGKILL the pool's own workers once the count of
completed cells reaches each value — and ``stop_after_cells`` — abandon
the sweep once it reaches that count) exist so tests and CI can prove
that, not just assume it.

Pool-level failure — a protocol spec that cannot cross the process
boundary, a spawn environment that cannot start workers, or a respawn
storm — hands the unfinished coordinates back to the in-process executor
instead of failing the sweep; ``meta["pool"]`` records which executor
actually ran.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import sys
import time
from collections import deque
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.errors import CellTimeoutError, WorkerCrashError
from repro.scenarios.registry import get_protocol

__all__ = ["run_sharded"]

#: Liveness: a busy worker whose last event (start or heartbeat) is
#: older than this is presumed wedged and gets SIGKILLed.
HEARTBEAT_TIMEOUT = 30.0
#: How often a busy worker reports that it is alive.
HEARTBEAT_INTERVAL = 0.5
#: Retry backoff: attempt ``k`` failed waits ``min(BACKOFF_CAP,
#: BACKOFF_BASE * 2 ** (k - 1))`` seconds before attempt ``k + 1``.
BACKOFF_BASE = 0.25
BACKOFF_CAP = 4.0
#: Extra wall-clock allowance before a task's deadline applies when the
#: worker has not yet reported ``start`` (covers spawn/import latency,
#: which is paid once per worker and must not count against the task).
STARTUP_GRACE = 30.0

Coordinate = Tuple[str, str, int]


def _now() -> float:
    # Supervisor scheduling (deadlines, backoff, heartbeats) is harness
    # infrastructure, not protocol behaviour — results never depend on it.
    return time.monotonic()  # analysis: allow(wall-clock)


class _Slot:
    """One worker position: process + private pipe + current task."""

    __slots__ = ("index", "proc", "conn", "task")

    def __init__(self, index: int) -> None:
        self.index = index
        self.proc = None
        self.conn = None
        self.task: Optional[Dict[str, Any]] = None


def run_sharded(
    matrix,
    todo: List[Tuple[Coordinate, List[str]]],
    record: Callable[..., int],
    journal,
    workers: int,
    *,
    cell_timeout: Optional[float] = None,
    max_attempts: int = 3,
    chaos_kills: Optional[Sequence[int]] = None,
    stop_after_cells: Optional[int] = None,
) -> Dict[str, Any]:
    """Run ``todo`` — ``(coordinate, engines)`` pairs of ``matrix`` — on
    a supervised pool of ``min(workers, len(todo))`` processes.

    ``record(cells, attempt)`` marks cells completed and journals them,
    returning how many were new; ``journal`` (or None) takes the
    per-cell attempt lines.  Returns the executor forensics that become
    ``meta["pool"]``.  A ``fallback_reason`` other than None means the
    pool stopped early and the caller runs the unfinished coordinates
    in process.
    """
    from repro.scenarios.matrix import MatrixCell, _cell_coord, _cell_key

    workers = min(workers, len(todo))
    pool_meta: Dict[str, Any] = {
        "executor": "pool",
        "workers": workers,
        "respawns": 0,
        "quarantined": [],
        "interrupted": False,
        "fallback_reason": None,
        "worker_stats": {},
    }
    if not todo:
        return pool_meta

    def fall_back(reason: str) -> Dict[str, Any]:
        pool_meta.update(executor="serial-fallback", fallback_reason=reason)
        return pool_meta

    # Specs cross the process boundary pickled by name (registry.__reduce__);
    # an unpicklable spec (lambda prepare) must surface *here*, as a
    # graceful degradation, not as W crashed workers.
    specs = {name: get_protocol(name) for name in matrix.protocols}
    try:
        pickle.dumps(specs)
    except Exception as exc:  # noqa: BLE001 - any pickle failure degrades
        return fall_back(f"spec not picklable: {exc}")

    try:
        import multiprocessing

        ctx = multiprocessing.get_context("spawn")
    except Exception as exc:  # noqa: BLE001 - no mp support: degrade
        return fall_back(f"cannot create spawn context: {exc}")

    engines_of: Dict[Coordinate, List[str]] = dict(todo)
    unfinished = set(engines_of)
    pending = deque(engines_of)
    chaos = sorted(set(chaos_kills or ()))
    respawn_limit = max(8, 4 * workers) + len(chaos)
    attempts_used: Dict[Coordinate, int] = {}
    retries: List[Tuple[float, int, Coordinate]] = []  # (not_before, attempt, coord)
    stats: Dict[int, Dict[str, float]] = {}
    fresh = 0
    interrupted = False

    def spawn(slot: _Slot) -> None:
        from repro.scenarios.sweep.worker import worker_main

        # A fresh pipe per (re)spawn, private to the worker: a dead
        # worker's pipe may still hold its unfetched task, which the
        # supervisor is about to retry elsewhere, and a worker killed
        # mid-send must not wedge any other worker's channel (a shared
        # multiprocessing.Queue's write lock dies held with its holder).
        if slot.conn is not None:
            slot.conn.close()
        slot.conn, child = ctx.Pipe()
        slot.proc = ctx.Process(
            target=worker_main, args=(child, matrix, specs), daemon=True
        )
        try:
            slot.proc.start()
        finally:
            child.close()
        slot.task = None
        stats.setdefault(
            slot.index, {"cells": 0, "seconds": 0.0, "total_bits": 0, "respawns": -1}
        )["respawns"] += 1

    def kill(slot: _Slot) -> None:
        if slot.proc is not None and slot.proc.is_alive():
            slot.proc.kill()
            slot.proc.join(timeout=10.0)

    def handle_failure(
        coord: Coordinate, exc_type: type, message: str, digest: str
    ) -> None:
        nonlocal fresh
        if coord not in unfinished:
            return
        k = attempts_used[coord] = attempts_used.get(coord, 0) + 1
        protocol, family, n = coord
        keys = {
            engine: _cell_key(matrix.seed, protocol, family, n, engine)
            for engine in engines_of[coord]
        }
        if journal is not None:
            for key in keys.values():
                journal.record_attempt(key, k, exc_type.__name__, message, digest)
        if k < max_attempts:
            delay = min(BACKOFF_CAP, BACKOFF_BASE * (2 ** (k - 1)))
            retries.append((_now() + delay, k + 1, coord))
            return
        unfinished.discard(coord)
        quarantined = [
            MatrixCell(
                protocol=protocol, family=family, n=n, engine=engine,
                status="failed",
                error=str(
                    exc_type(message, coordinate=key, attempts=k,
                             traceback_digest=digest)
                ),
                error_type=exc_type.__name__,
                traceback_digest=digest,
                quarantined=True,
            )
            for engine, key in keys.items()
        ]
        fresh += record(quarantined, k)
        pool_meta["quarantined"].extend(keys.values())

    def fail_inflight(slot: _Slot, exc_type: type, reason: str) -> None:
        task = slot.task
        slot.task = None
        if task is None:
            return
        coord_key = _cell_coord(matrix.seed, *task["coord"])
        digest = hashlib.sha256(
            f"{exc_type.__name__}:{coord_key}".encode()
        ).hexdigest()[:12]
        handle_failure(task["coord"], exc_type, reason, digest)

    def restart(slot: _Slot, exc_type: type, reason: str) -> None:
        """SIGKILL the slot's worker, fail its task and respawn it."""
        kill(slot)
        fail_inflight(slot, exc_type, reason)
        pool_meta["respawns"] += 1
        spawn(slot)

    # Spawn children re-execute the parent's __main__ when it carries a
    # real file path.  A parent run from a pipe/heredoc reports
    # ``__file__ == "<stdin>"``, which the child cannot re-run — hide
    # the phantom path for the duration of the pool so workers start
    # from a clean interpreter instead of crashing on import.
    main_module = sys.modules.get("__main__")
    main_file = getattr(main_module, "__file__", None)
    hide_main_file = main_file is not None and not os.path.exists(main_file)
    if hide_main_file:
        del main_module.__file__

    slots = [_Slot(i) for i in range(workers)]
    try:
        for slot in slots:
            spawn(slot)
    except Exception as exc:  # noqa: BLE001 - cannot start workers: degrade
        for slot in slots:
            kill(slot)
            if slot.conn is not None:
                slot.conn.close()
        if hide_main_file:
            main_module.__file__ = main_file
        return fall_back(f"cannot spawn workers: {exc}")

    degrade_reason: Optional[str] = None
    try:
        while unfinished:
            now = _now()
            # -- assignment: one task per idle, live worker ----------------
            for slot in slots:
                if (
                    slot.task is not None
                    or slot.conn is None
                    or not slot.proc.is_alive()
                ):
                    continue
                ready = [r for r in retries if r[0] <= now]
                if ready:
                    retry = min(ready)
                    retries.remove(retry)
                    _, attempt, coord = retry
                elif pending:
                    coord, attempt = pending.popleft(), 1
                else:
                    continue
                try:
                    slot.conn.send((coord, engines_of[coord], attempt))
                except OSError:
                    pass  # it died: the liveness check fails the task below
                slot.task = {
                    "coord": coord, "assigned_at": now, "started_at": None,
                    "last_event": now,
                }
            # -- event drain ----------------------------------------------
            for slot, event in _drain(slots, timeout=0.05):
                kind, coord = event[:2]
                current = slot.task is not None and slot.task["coord"] == coord
                if kind == "start":
                    if current:
                        slot.task["started_at"] = slot.task["last_event"] = _now()
                elif kind == "hb":
                    if current:
                        slot.task["last_event"] = _now()
                elif kind == "done":
                    _, _, attempt, payloads, seconds = event
                    if current:
                        slot.task = None
                    if coord not in unfinished:
                        continue  # stale duplicate from a killed attempt
                    unfinished.discard(coord)
                    retries[:] = [r for r in retries if r[2] != coord]
                    cells = [MatrixCell.from_dict(payload) for payload in payloads]
                    new = record(cells, attempt)
                    fresh += new
                    st = stats[slot.index]
                    st["cells"] += new
                    st["seconds"] += seconds
                    st["total_bits"] += sum(cell.total_bits or 0 for cell in cells)
                    while chaos and fresh >= chaos[0]:
                        chaos.pop(0)
                        victim = next(
                            (s for s in slots if s.task is not None), slot
                        )
                        restart(
                            victim, WorkerCrashError,
                            "worker killed by chaos harness",
                        )
                    if (
                        stop_after_cells is not None
                        and fresh >= stop_after_cells
                    ):
                        interrupted = True
                        break
                elif kind == "error":
                    _, _, attempt, message, digest = event
                    if current:
                        slot.task = None
                    handle_failure(coord, WorkerCrashError, message, digest)
            if interrupted:
                break
            # -- liveness / deadlines -------------------------------------
            now = _now()
            for slot in slots:
                if not slot.proc.is_alive():
                    restart(
                        slot, WorkerCrashError,
                        f"worker {slot.index} died "
                        f"(exitcode {slot.proc.exitcode})",
                    )
                    continue
                task = slot.task
                if task is None:
                    continue
                if cell_timeout is not None:
                    size = len(engines_of[task["coord"]])
                    budget = cell_timeout * size
                    started = task["started_at"]
                    deadline = (
                        started + budget
                        if started is not None
                        else task["assigned_at"] + budget + STARTUP_GRACE
                    )
                    if now > deadline:
                        restart(
                            slot, CellTimeoutError,
                            f"task of {size} cell(s) exceeded its {budget:g}s "
                            f"deadline ({cell_timeout:g}s per cell)",
                        )
                        continue
                if now - task["last_event"] > HEARTBEAT_TIMEOUT:
                    restart(
                        slot, WorkerCrashError,
                        f"worker {slot.index} heartbeat lost "
                        f"(> {HEARTBEAT_TIMEOUT}s)",
                    )
            if pool_meta["respawns"] > respawn_limit:
                degrade_reason = (
                    f"respawn storm: {pool_meta['respawns']} respawns "
                    f"exceeded limit {respawn_limit}"
                )
                break
    finally:
        if hide_main_file:
            main_module.__file__ = main_file
        for slot in slots:
            try:
                slot.conn.send(None)
            except (AttributeError, OSError):  # teardown best-effort
                pass
        deadline = _now() + 5.0
        for slot in slots:
            slot.proc.join(timeout=max(0.1, deadline - _now()))
            if slot.proc.is_alive():
                slot.proc.kill()
                slot.proc.join(timeout=5.0)
            if slot.conn is not None:
                slot.conn.close()

    if degrade_reason is not None:
        # Pool-level failure: the caller finishes the remaining
        # coordinates in process.
        pool_meta["executor"] = "pool+serial-degraded"
        pool_meta["fallback_reason"] = degrade_reason
    pool_meta["interrupted"] = interrupted
    pool_meta["worker_stats"] = {
        str(wid): st for wid, st in sorted(stats.items())
    }
    return pool_meta


def _drain(slots: List[_Slot], timeout: float) -> List[Tuple[_Slot, Tuple]]:
    """Every event the workers have sent, as ``(slot, event)`` pairs,
    blocking up to ``timeout`` for the first.  A pipe that fails — its
    worker died, perhaps mid-message — is closed; the liveness check
    then fails the worker's task and respawns it."""
    from multiprocessing.connection import wait

    by_conn = {slot.conn: slot for slot in slots if slot.conn is not None}
    events: List[Tuple[_Slot, Tuple]] = []
    for conn in wait(list(by_conn), timeout):
        slot = by_conn[conn]
        try:
            while conn.poll():
                events.append((slot, conn.recv()))
        except (EOFError, OSError, pickle.UnpicklingError):
            conn.close()
            slot.conn = None
    return events
