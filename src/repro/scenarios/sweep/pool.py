"""The supervised worker pool: sharded, fault-tolerant sweep execution.

:func:`run_sharded` fans a :class:`~repro.scenarios.matrix.ScenarioMatrix`
across ``W`` persistent spawn-context worker processes and supervises
them: per-cell wall-clock deadlines (SIGKILL on expiry — the backstop
for hangs the in-cell round watchdog cannot see), heartbeat liveness,
automatic respawn of crashed workers, capped-exponential-backoff retry
of interrupted cells, and a poison-cell quarantine after ``max_attempts``
(quarantined cells are recorded on the result as ``failed`` cells with
``quarantined=True`` — never silently dropped).  Completed cells are
journaled durably (:mod:`repro.scenarios.sweep.journal`) so a killed
sweep resumes where it stopped.  "Sharded" means spread across workers:
the cell is the unit of work and of recovery, so an interrupted cell is
re-run from the start on its next attempt.

The hard invariant is determinism: a cell is a pure function of its
coordinates (:func:`repro.scenarios.matrix.run_cell`), and every
cross-cell verdict is recomputed deterministically at assembly
(:meth:`ScenarioMatrix._finalize_coordinate`), so result digests are
byte-identical across worker counts, scheduling orders, worker kills,
retries and kill-then-resume boundaries.  The chaos hooks
(``chaos_kills`` — SIGKILL the pool's own workers at chosen points —
and ``stop_after_cells`` — abandon the sweep mid-flight) exist so tests
and CI can prove that, not just assume it.

Pool-level failure — a protocol spec that cannot cross the process
boundary, a spawn environment that cannot start workers, or a respawn
storm — degrades to the in-process serial runner instead of failing the
sweep, mirroring the engine subsystem's kernel → fast → legacy chain;
``meta["pool"]`` records which executor actually ran.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import sys
import time
from collections import deque
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.errors import (
    CellTimeoutError,
    SweepResumeError,
    WorkerCrashError,
)
from repro.scenarios.registry import get_protocol

__all__ = ["run_sharded", "run_journaled_serial"]

#: Liveness: a busy worker whose last event (start or heartbeat) is
#: older than this is presumed wedged and gets SIGKILLed.
HEARTBEAT_TIMEOUT = 30.0
#: Extra wall-clock allowance before a cell's deadline applies when the
#: worker has not yet reported ``start`` (covers spawn/import latency,
#: which is paid once per worker and must not count against the cell).
STARTUP_GRACE = 30.0


def _now() -> float:
    # Supervisor scheduling (deadlines, backoff, heartbeats) is harness
    # infrastructure, not protocol behaviour — results never depend on it.
    return time.monotonic()  # analysis: allow(wall-clock)


class _Slot:
    """One worker position: process + private task queue + current task."""

    __slots__ = ("index", "proc", "queue", "task", "spawned_at")

    def __init__(self, index: int) -> None:
        self.index = index
        self.proc = None
        self.queue = None
        self.task: Optional[Dict[str, Any]] = None
        self.spawned_at = 0.0


def _journal_setup(matrix, meta, journal, resume_from):
    """Resolve the journal/resume arguments into (handle, replayed)."""
    from repro.scenarios.sweep.journal import SweepJournal

    if resume_from is not None:
        if journal is not None and journal != resume_from:
            raise SweepResumeError(
                "journal= and resume_from= name different files; resume "
                "appends to the journal it replays"
            )
        handle, loaded = SweepJournal.resume(resume_from, meta)
        return handle, dict(loaded.cells)
    if journal is not None:
        return SweepJournal(journal, meta).open(), {}
    return None, {}


def run_journaled_serial(
    matrix,
    *,
    journal: Optional[str] = None,
    resume_from: Optional[str] = None,
):
    """The serial runner with journal/resume plumbing attached — used
    directly by ``run(journal=..., resume_from=...)`` without workers,
    and as the resume target after a pool run was killed."""
    meta = matrix._meta()
    handle, replayed = _journal_setup(matrix, meta, journal, resume_from)
    keys = set(matrix.cell_keys())
    replay = {k: v for k, v in replayed.items() if k in keys}
    def record(key, cell):
        payload = cell.to_dict()
        handle.record_cell(key, payload, attempt=payload.get("attempts") or 1)

    on_cell = record if handle is not None else None
    try:
        result = matrix._run_serial(on_cell=on_cell, replay=replay or None)
    finally:
        if handle is not None:
            handle.close()
    result.meta["journal"] = handle.path if handle is not None else None
    result.meta["replayed_cells"] = len(replay)
    return result


def run_sharded(
    matrix,
    workers: int,
    *,
    journal: Optional[str] = None,
    resume_from: Optional[str] = None,
    cell_timeout: Optional[float] = None,
    max_attempts: int = 3,
    backoff_base: float = 0.25,
    backoff_cap: float = 4.0,
    heartbeat_interval: float = 0.5,
    chaos_kills: Optional[Sequence[int]] = None,
    stop_after_cells: Optional[int] = None,
):
    """Run ``matrix`` on a supervised pool of ``workers`` processes.

    See the module docstring for semantics; returns the same
    :class:`~repro.scenarios.matrix.MatrixResult` shape as the serial
    runner, with ``meta["pool"]`` carrying executor forensics
    (per-worker accounting, respawns, quarantined keys, replay counts).
    """
    from repro.scenarios.matrix import _cell_key

    if workers < 1:
        raise ValueError("workers must be at least 1")
    if max_attempts < 1:
        raise ValueError("max_attempts must be at least 1")
    meta = matrix._meta()
    handle, replayed = _journal_setup(matrix, meta, journal, resume_from)
    all_keys = matrix.cell_keys()
    replay = {k: v for k, v in replayed.items() if k in set(all_keys)}

    # Per-key task coordinates, in canonical order.
    task_info: Dict[str, Tuple[str, str, int, str]] = {}
    for protocol, family, n in matrix.coordinates():
        for engine in matrix.ordered_engines():
            key = _cell_key(matrix.seed, protocol, family, n, engine)
            task_info[key] = (protocol, family, n, engine)

    pool_meta: Dict[str, Any] = {
        "executor": "pool",
        "workers": workers,
        "respawns": 0,
        "replayed": len(replay),
        "quarantined": [],
        "interrupted": False,
        "fallback_reason": None,
        "worker_stats": {},
    }
    meta["pool"] = pool_meta
    meta["journal"] = handle.path if handle is not None else None

    completed: Dict[str, Dict[str, Any]] = dict(replay)
    pending = deque(k for k in all_keys if k not in completed)

    def serial_fallback(reason: str):
        pool_meta["executor"] = "serial-fallback"
        pool_meta["fallback_reason"] = reason
        try:
            _run_keys_serially(matrix, list(pending), task_info, completed, handle)
        finally:
            if handle is not None:
                handle.close()
        return _assemble(matrix, meta, completed, task_info)

    # Specs cross the process boundary pickled by name (registry.__reduce__);
    # an unpicklable spec (lambda prepare) must surface *here*, as a
    # graceful degradation, not as W crashed workers.
    try:
        for name in matrix.protocols:
            pickle.dumps(get_protocol(name))
    except Exception as exc:  # noqa: BLE001 - any pickle failure degrades
        return serial_fallback(f"spec not picklable: {exc}")

    if not pending:
        if handle is not None:
            handle.close()
        return _assemble(matrix, meta, completed, task_info)

    try:
        import multiprocessing

        ctx = multiprocessing.get_context("spawn")
        result_queue = ctx.Queue()
    except Exception as exc:  # noqa: BLE001 - no mp support: degrade
        return serial_fallback(f"cannot create spawn context: {exc}")

    fault_plan_json = (
        matrix.fault_plan.to_json() if matrix.fault_plan is not None else None
    )
    chaos_set = set(chaos_kills or ())
    respawn_limit = max(8, 4 * workers) + len(chaos_set)
    attempts_used: Dict[str, int] = {}
    retries: List[Tuple[float, int, str]] = []  # (not_before, attempt, key)
    stats: Dict[int, Dict[str, float]] = {}
    fresh = 0
    interrupted = False

    def spawn(slot: _Slot) -> None:
        from repro.scenarios.sweep.worker import worker_main

        # A fresh queue per (re)spawn: a dead worker's queue may still
        # hold its unfetched task, which the supervisor is about to
        # retry elsewhere — the replacement must not double-execute it.
        if slot.queue is not None:
            slot.queue.cancel_join_thread()
            slot.queue.close()
        slot.queue = ctx.Queue()
        slot.proc = ctx.Process(
            target=worker_main,
            args=(slot.index, slot.queue, result_queue, heartbeat_interval),
            daemon=True,
        )
        slot.proc.start()
        slot.spawned_at = _now()
        slot.task = None
        stats.setdefault(
            slot.index, {"cells": 0, "seconds": 0.0, "total_bits": 0, "respawns": -1}
        )["respawns"] += 1

    def kill(slot: _Slot) -> None:
        if slot.proc is not None and slot.proc.is_alive():
            slot.proc.kill()
            slot.proc.join(timeout=10.0)

    def handle_failure(key: str, exc_type: type, message: str, digest: str) -> None:
        nonlocal fresh
        if key in completed:
            return
        attempts_used[key] = attempts_used.get(key, 0) + 1
        k = attempts_used[key]
        if handle is not None:
            handle.record_attempt(key, k, exc_type.__name__, message, digest)
        if k >= max_attempts:
            protocol, family, n, engine = task_info[key]
            err = exc_type(message, coordinate=key, attempts=k,
                           traceback_digest=digest)
            quarantined = {
                "protocol": protocol, "family": family, "n": n,
                "engine": engine, "status": "failed",
                "error": str(err), "error_type": exc_type.__name__,
                "traceback_digest": digest, "attempts": k,
                "quarantined": True,
            }
            completed[key] = quarantined
            pool_meta["quarantined"].append(key)
            if handle is not None:
                handle.record_cell(key, quarantined, attempt=k)
            fresh += 1
        else:
            delay = min(backoff_cap, backoff_base * (2 ** (k - 1)))
            retries.append((_now() + delay, k + 1, key))

    def fail_inflight(slot: _Slot, exc_type: type, reason: str) -> None:
        task = slot.task
        slot.task = None
        if task is None:
            return
        digest = hashlib.sha256(
            f"{exc_type.__name__}:{task['key']}".encode()
        ).hexdigest()[:12]
        handle_failure(task["key"], exc_type, reason, digest)

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
        if hide_main_file:
            main_module.__file__ = main_file
        return serial_fallback(f"cannot spawn workers: {exc}")

    total = len(all_keys)
    degrade_reason: Optional[str] = None
    try:
        while len(completed) < total:
            now = _now()
            # -- assignment: one task per idle, live worker ----------------
            for slot in slots:
                if slot.task is not None or not slot.proc.is_alive():
                    continue
                key = attempt = None
                ready = [r for r in retries if r[0] <= now]
                if ready:
                    ready.sort()
                    retries.remove(ready[0])
                    _, attempt, key = ready[0]
                elif pending:
                    key, attempt = pending.popleft(), 1
                if key is None:
                    continue
                protocol, family, n, engine = task_info[key]
                slot.queue.put(
                    (
                        key, get_protocol(protocol), family, n, engine,
                        matrix.seed, matrix.repeats, matrix.verify,
                        fault_plan_json, matrix.cell_round_limit, attempt,
                    )
                )
                slot.task = {
                    "key": key, "attempt": attempt,
                    "assigned_at": now, "started_at": None, "last_event": now,
                }
            # -- event drain ----------------------------------------------
            events = _drain(result_queue, timeout=0.05)
            for event in events:
                kind, wid = event[0], event[1]
                slot = slots[wid]
                if kind == "start":
                    _, _, key, attempt = event
                    if slot.task is not None and slot.task["key"] == key:
                        slot.task["started_at"] = _now()
                        slot.task["last_event"] = _now()
                elif kind == "hb":
                    _, _, key = event
                    if slot.task is not None and slot.task["key"] == key:
                        slot.task["last_event"] = _now()
                elif kind == "done":
                    _, _, key, attempt, cell_dict, seconds = event
                    if slot.task is not None and slot.task["key"] == key:
                        slot.task = None
                    if key in completed:
                        continue  # stale duplicate from a killed attempt
                    cell_dict["attempts"] = attempt
                    completed[key] = cell_dict
                    retries[:] = [r for r in retries if r[2] != key]
                    if handle is not None:
                        handle.record_cell(key, cell_dict, attempt=attempt)
                    st = stats.setdefault(
                        wid,
                        {"cells": 0, "seconds": 0.0, "total_bits": 0, "respawns": 0},
                    )
                    st["cells"] += 1
                    st["seconds"] += seconds
                    st["total_bits"] += cell_dict.get("total_bits") or 0
                    fresh += 1
                    if fresh in chaos_set:
                        victim = next(
                            (s for s in slots if s.task is not None), slot
                        )
                        kill(victim)
                        fail_inflight(
                            victim, WorkerCrashError,
                            "worker killed by chaos harness",
                        )
                        pool_meta["respawns"] += 1
                        spawn(victim)
                    if (
                        stop_after_cells is not None
                        and fresh >= stop_after_cells
                    ):
                        interrupted = True
                        break
                elif kind == "error":
                    _, _, key, attempt, message, digest = event
                    if slot.task is not None and slot.task["key"] == key:
                        slot.task = None
                    handle_failure(key, WorkerCrashError, message, digest)
            if interrupted:
                break
            # -- liveness / deadlines -------------------------------------
            now = _now()
            for slot in slots:
                if not slot.proc.is_alive():
                    fail_inflight(
                        slot, WorkerCrashError,
                        f"worker {slot.index} died "
                        f"(exitcode {slot.proc.exitcode})",
                    )
                    pool_meta["respawns"] += 1
                    spawn(slot)
                    continue
                task = slot.task
                if task is None:
                    continue
                if cell_timeout is not None:
                    started = task["started_at"]
                    deadline = (
                        started + cell_timeout
                        if started is not None
                        else task["assigned_at"] + cell_timeout + STARTUP_GRACE
                    )
                    if now > deadline:
                        kill(slot)
                        fail_inflight(
                            slot, CellTimeoutError,
                            f"cell exceeded {cell_timeout}s deadline",
                        )
                        pool_meta["respawns"] += 1
                        spawn(slot)
                        continue
                if now - task["last_event"] > HEARTBEAT_TIMEOUT:
                    kill(slot)
                    fail_inflight(
                        slot, WorkerCrashError,
                        f"worker {slot.index} heartbeat lost "
                        f"(> {HEARTBEAT_TIMEOUT}s)",
                    )
                    pool_meta["respawns"] += 1
                    spawn(slot)
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
                slot.queue.put(None)
            except Exception:  # noqa: BLE001 - teardown best-effort
                pass
        deadline = _now() + 5.0
        for slot in slots:
            slot.proc.join(timeout=max(0.1, deadline - _now()))
            if slot.proc.is_alive():
                slot.proc.kill()
                slot.proc.join(timeout=5.0)
        for slot in slots:
            slot.queue.cancel_join_thread()
            slot.queue.close()
        result_queue.cancel_join_thread()
        result_queue.close()

    if degrade_reason is not None:
        # Pool-level failure: finish the remaining cells in-process, the
        # same graceful-degradation posture as the engine chain.
        pool_meta["executor"] = "pool+serial-degraded"
        pool_meta["fallback_reason"] = degrade_reason
        remaining = [k for k in all_keys if k not in completed]
        _run_keys_serially(matrix, remaining, task_info, completed, handle)

    if handle is not None:
        handle.close()
    pool_meta["interrupted"] = interrupted
    pool_meta["worker_stats"] = {
        str(wid): st for wid, st in sorted(stats.items())
    }
    return _assemble(
        matrix, meta, completed, task_info, partial=interrupted
    )


def _drain(result_queue, timeout: float) -> List[Tuple[Any, ...]]:
    """All currently available events (blocking briefly for the first)."""
    from queue import Empty

    events: List[Tuple[Any, ...]] = []
    try:
        events.append(result_queue.get(timeout=timeout))
        while True:
            events.append(result_queue.get_nowait())
    except Empty:
        pass
    return events


def _run_keys_serially(matrix, keys, task_info, completed, handle) -> None:
    """Execute ``keys`` in-process (fallback / degradation path)."""
    from repro.scenarios.matrix import run_cell

    for key in keys:
        if key in completed:
            continue
        protocol, family, n, engine = task_info[key]
        cell = run_cell(
            get_protocol(protocol), family, n, engine,
            seed=matrix.seed, repeats=matrix.repeats, verify=matrix.verify,
            fault_plan=matrix.fault_plan, round_limit=matrix.cell_round_limit,
        )
        payload = cell.to_dict()
        completed[key] = payload
        if handle is not None:
            handle.record_cell(key, payload)


def _assemble(matrix, meta, completed, task_info, partial: bool = False):
    """Build the MatrixResult: rebuild cells in canonical order and
    recompute every cross-cell verdict.  Deterministic given the cell
    payloads, which is why pooled, serial, replayed and degraded runs
    all produce byte-identical digests."""
    from repro.scenarios.matrix import MatrixCell, MatrixResult, _cell_key

    result = MatrixResult(meta=meta)
    for protocol, family, n in matrix.coordinates():
        cells = []
        for engine in matrix.ordered_engines():
            key = _cell_key(matrix.seed, protocol, family, n, engine)
            if key in completed:
                cells.append(MatrixCell.from_dict(completed[key]))
        if not cells:
            continue
        # An interrupted sweep may hold only part of a coordinate; the
        # cells are kept (the journal has them) and the cross-cell
        # verdicts are recomputed over whatever engines did run — the
        # resumed run recomputes them again over the full set.
        matrix._finalize_coordinate(get_protocol(protocol), family, n, cells)
        result.cells.extend(cells)
    return result
