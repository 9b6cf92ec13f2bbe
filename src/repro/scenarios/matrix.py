"""The scenario-matrix runner: problem × graph family × n × engine.

The complexity-theoretic program around the congested clique frames
results as sweeps — a protocol family evaluated over instance families
and sizes, compared across models.  :class:`ScenarioMatrix` is that
experiment surface on top of the engine subsystem: it takes protocol
names (from :mod:`repro.scenarios.registry`), graph family names (from
:mod:`repro.scenarios.families`), sizes and engine names, runs every
cell, and records per-cell timing, round/bit accounting, a canonical
output digest, validation status, and whether the cell's digest matches
the legacy reference engine's — the executable statement that all
backends compute the same function.

Self-checking execution
-----------------------

Two orthogonal chaos facilities ride the sweep:

* ``verify="cross-engine"`` re-runs every ok cell on a second engine
  and compares digests — a structured divergence report
  (:meth:`MatrixResult.fault_reports`) instead of a silent wrong
  answer.
* ``fault_plan=`` executes every cell under a deterministic
  :class:`~repro.core.faults.FaultPlan` **and** once more without it
  (the clean baseline): a cell whose injected faults moved the digest,
  failed validation, or diverged cross-engine counts as *detected*;
  :meth:`MatrixResult.silent_passes` lists injected-but-undetected
  cells, which a chaos CI job asserts empty.

Resilient execution
-------------------

Every cell runs under a default ``Network(round_limit=)`` watchdog
(:data:`DEFAULT_CELL_ROUND_LIMIT`), so a livelocked protocol surfaces
as a structured ``failed`` cell with ``error_type="RoundLimitExceeded"``
instead of stalling the sweep.  :meth:`ScenarioMatrix.run` accepts the
sharded-executor keywords (``workers=``, ``journal=``, ``resume_from=``,
``cell_timeout=``): passing ``workers`` fans cells across the
supervised worker pool of :mod:`repro.scenarios.sweep`; ``journal``
records every completed cell durably and ``resume_from`` replays a
prior journal, skipping completed cells.  Cell execution is a pure
function of the cell coordinates (module-level :func:`run_cell`), which
is what makes digests byte-identical across worker counts, scheduling
orders and kill/resume boundaries.

Results serialize to JSON (:meth:`MatrixResult.to_dict` /
:meth:`MatrixResult.write`), which is what the benchmark harness and
the CI smoke sweep consume.  Failed cells persist the exception type
and a traceback digest so chaos runs stay debuggable from the JSON
alone.
"""

from __future__ import annotations

import hashlib
import json
import time
import traceback
from dataclasses import dataclass, field, fields
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.scenarios.families import get_family
from repro.scenarios.registry import get_protocol

__all__ = [
    "MatrixCell",
    "MatrixResult",
    "ScenarioMatrix",
    "cell_checkpoint_dir",
    "instance_graph",
    "merge_shard_payloads",
    "plan_shards",
    "run_cell",
    "run_cell_shard",
    "DEFAULT_CELL_ROUND_LIMIT",
]

#: The engine the matrix prefers as ground truth for digests; sweeps
#: that exclude it fall back to the first engine that ran the cell.
REFERENCE_ENGINE = "legacy"

#: Default per-cell round watchdog: far above any registered protocol's
#: round count at sweep sizes, far below the engine's 1e6 safety budget.
#: A protocol that livelocks (e.g. a retransmission loop under chaos)
#: becomes a structured ``failed`` cell with
#: ``error_type="RoundLimitExceeded"`` instead of a stalled sweep.
DEFAULT_CELL_ROUND_LIMIT = 50_000


def _cell_coord(seed: int, protocol: str, family: str, n: int) -> str:
    return f"{seed}:{protocol}:{family}:{n}"


def _cell_key(seed: int, protocol: str, family: str, n: int, engine: str) -> str:
    """The per-(coordinate, engine) identity used by sweep journals and
    the worker pool — one completed journal line per key."""
    return f"{_cell_coord(seed, protocol, family, n)}:{engine}"


def cell_checkpoint_dir(base: str, key: str) -> str:
    """Where one cell's mid-run snapshots live under a sweep's
    ``checkpoint_dir``: one subdirectory per cell key (``:`` is not
    portable in path components, so it is flattened to ``_``).  Shared
    by the serial runner, the pool worker and the worker's post-success
    cleanup — all three must agree on the location."""
    import os

    return os.path.join(base, key.replace(":", "_"))


def instance_graph(seed: int, protocol: str, family: str, n: int):
    """The exact graph instance a sweep cell ran on — the same coord
    derivation :meth:`ScenarioMatrix.run` uses, exposed so callers
    (benchmarks, reports) never re-implement the convention."""
    import random

    from repro.scenarios.families import get_family

    return get_family(family).build(
        n, random.Random(_cell_coord(seed, protocol, family, n))
    )


def _digest(summary: Any, result: Any) -> str:
    """Canonical digest of one cell's observable behaviour."""
    blob = repr(
        (summary, result.rounds, result.total_bits, result.max_round_bits)
    ).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _instance_records(prepared, runs) -> List[Tuple[Any, int, int, int]]:
    """Per-instance observable records of one ``run_many`` sweep: the
    canonical summary plus the round/bit accounting, one tuple per
    instance.  Records are a pure function of the instance (never of
    chunk or shard boundaries), which is what makes K-sharded cells
    merge byte-identically."""
    return [
        (prepared.summarize(run), run.rounds, run.total_bits, run.max_round_bits)
        for run in runs
    ]


def _records_digest(records) -> str:
    """Canonical digest of a multi-instance cell: the ordered tuple of
    per-instance records.  The K-shard merge concatenates shard records
    in instance order before digesting, so the merged digest equals the
    serial (unsharded) runner's by construction."""
    return hashlib.sha256(repr(tuple(records)).encode()).hexdigest()[:16]


def plan_shards(
    total: int, shard_k: Optional[int], n: int
) -> List[Tuple[int, int]]:
    """Split a K-instance cell into ``[lo, hi)`` instance ranges of at
    most ``shard_k`` instances each.

    Shard boundaries align with the engines' existing K-chunk seam
    (:func:`repro.core.engine.delivery.batch_chunk_size`): when the
    requested shard size exceeds one chunk it is rounded down to a whole
    number of chunks, so a shard never splits a chunk that the unsharded
    runner would have executed as one stacked batch.  (Per-instance
    results are chunk-invariant either way; alignment keeps the sharded
    execution's chunk geometry a subset of the serial runner's.)
    """
    from repro.core.engine.delivery import batch_chunk_size

    if shard_k is None or shard_k < 1:
        return [(0, total)]
    size = shard_k
    chunk = batch_chunk_size(n)
    if size > chunk:
        size = (size // chunk) * chunk
    return [(lo, min(lo + size, total)) for lo in range(0, total, size)]


def _failure_fields(cell: "MatrixCell", exc: BaseException) -> None:
    """Persist a debuggable failure record on ``cell``: message, type
    and a short digest of the traceback (stable enough to dedupe crash
    signatures across a sweep without shipping whole stacks in JSON)."""
    cell.status = "failed"
    cell.error = f"{type(exc).__name__}: {exc}"
    cell.error_type = type(exc).__name__
    cell.traceback_digest = hashlib.sha256(
        traceback.format_exc().encode()
    ).hexdigest()[:12]


@dataclass
class MatrixCell:
    """One (protocol, family, n, engine) execution."""

    protocol: str
    family: str
    n: int
    engine: str
    status: str  # "ok" | "unsupported" | "failed"
    seconds: Optional[float] = None
    rounds: Optional[int] = None
    total_bits: Optional[int] = None
    max_round_bits: Optional[int] = None
    digest: Optional[str] = None
    validated: Optional[bool] = None
    matches_reference: Optional[bool] = None
    error: Optional[str] = None
    #: Failure forensics (satellite of the chaos work: a failed cell is
    #: debuggable from the JSON record alone).
    error_type: Optional[str] = None
    traceback_digest: Optional[str] = None
    #: Chaos fields — populated only when the sweep carries a FaultPlan.
    fault_count: Optional[int] = None
    clean_digest: Optional[str] = None
    detected: Optional[bool] = None
    #: Cross-engine verification fields (``verify="cross-engine"``).
    verify_engine: Optional[str] = None
    verify_digest: Optional[str] = None
    verify_match: Optional[bool] = None
    #: Graceful degradation, if the planned backend failed mid-sweep.
    engine_fallback: Optional[str] = None
    #: Static-analysis verdict for the cell's (protocol, family, n)
    #: coordinate (``ScenarioMatrix(analyze=True)``): None = not run.
    analysis_ok: Optional[bool] = None
    analysis_violations: Optional[List[str]] = None
    #: Sharded-executor forensics: how many attempts the supervisor
    #: spent on this cell (None = single-shot serial execution), and
    #: whether it landed in the poison quarantine after exhausting them.
    attempts: Optional[int] = None
    quarantined: Optional[bool] = None
    #: Checkpoint provenance (checkpointed sweeps only): the round the
    #: run resumed from (None = fresh start) and how many snapshots the
    #: cell flushed.
    resumed_from_round: Optional[int] = None
    checkpoints: Optional[int] = None
    #: Persistent schedule-cache traffic (populated only when the sweep
    #: ran with ``schedule_cache=``): disk hits/misses across the cell's
    #: sample networks, evictions (explicit + corrupt), and how many
    #: genuinely fresh compilations the cell paid for — zero on a warm
    #: cache, which is what the bench's ``zero_copy`` gate asserts.
    cache_hits: Optional[int] = None
    cache_misses: Optional[int] = None
    cache_evictions: Optional[int] = None
    schedule_compiles: Optional[int] = None
    #: Multi-instance (``run_many``) cells: how many instances the cell
    #: covers, and — when the sweep split it — how many K-shards were
    #: merged to produce it (None = executed unsharded).
    instances: Optional[int] = None
    shards: Optional[int] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "protocol": self.protocol,
            "family": self.family,
            "n": self.n,
            "engine": self.engine,
            "status": self.status,
            "seconds": self.seconds,
            "rounds": self.rounds,
            "total_bits": self.total_bits,
            "max_round_bits": self.max_round_bits,
            "digest": self.digest,
            "validated": self.validated,
            "matches_reference": self.matches_reference,
            "error": self.error,
            "error_type": self.error_type,
            "traceback_digest": self.traceback_digest,
            "fault_count": self.fault_count,
            "clean_digest": self.clean_digest,
            "detected": self.detected,
            "verify_engine": self.verify_engine,
            "verify_digest": self.verify_digest,
            "verify_match": self.verify_match,
            "engine_fallback": self.engine_fallback,
            "analysis_ok": self.analysis_ok,
            "analysis_violations": self.analysis_violations,
            "attempts": self.attempts,
            "quarantined": self.quarantined,
            "resumed_from_round": self.resumed_from_round,
            "checkpoints": self.checkpoints,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_evictions": self.cache_evictions,
            "schedule_compiles": self.schedule_compiles,
            "instances": self.instances,
            "shards": self.shards,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "MatrixCell":
        """Rebuild a cell from :meth:`to_dict` output (journal replay,
        worker-pool transport).  Unknown keys are ignored so journals
        written by another schema version still replay."""
        names = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in names})

    def key(self, seed: int) -> str:
        """This cell's journal identity under sweep seed ``seed``."""
        return _cell_key(seed, self.protocol, self.family, self.n, self.engine)


@dataclass
class MatrixResult:
    """All cells of one sweep plus the sweep's coordinates."""

    meta: Dict[str, Any]
    cells: List[MatrixCell] = field(default_factory=list)

    def ok_cells(self) -> List[MatrixCell]:
        return [cell for cell in self.cells if cell.status == "ok"]

    def mismatches(self) -> List[MatrixCell]:
        """Cells whose digest differs from the legacy reference (or that
        failed validation/execution/cross-engine verification)."""
        return [
            cell
            for cell in self.cells
            if cell.status == "failed"
            or cell.matches_reference is False
            or cell.validated is False
            or cell.verify_match is False
            or cell.analysis_ok is False
        ]

    def quarantined(self) -> List[MatrixCell]:
        """Poison cells: the sharded executor exhausted its retry budget
        on them (worker crashes, deadline kills).  Always a subset of
        :meth:`mismatches` — quarantine is never silent."""
        return [cell for cell in self.cells if cell.quarantined]

    def injected_cells(self) -> List[MatrixCell]:
        """Cells that actually received at least one injected fault."""
        return [cell for cell in self.cells if (cell.fault_count or 0) > 0]

    def silent_passes(self) -> List[MatrixCell]:
        """The chaos sweep's cardinal sin: cells whose injected faults
        left no observable trace (digest equal to the clean baseline,
        validation green, cross-engine agreement).  A chaos CI job
        asserts this list is empty."""
        return [
            cell
            for cell in self.injected_cells()
            if cell.detected is False
        ]

    def fault_reports(self) -> List[Dict[str, Any]]:
        """Structured per-cell divergence reports: every cell that
        failed, failed validation, mismatched the reference, diverged
        cross-engine or diverged from its clean baseline, with the
        reasons flagged explicitly."""
        reports: List[Dict[str, Any]] = []
        for cell in self.cells:
            flags = []
            if cell.status == "failed":
                flags.append("execution-failed")
            if cell.quarantined:
                flags.append("quarantined")
            if cell.validated is False:
                flags.append("validation-failed")
            if cell.matches_reference is False:
                flags.append("reference-digest-mismatch")
            if cell.verify_match is False:
                flags.append("cross-engine-divergence")
            if (
                cell.clean_digest is not None
                and cell.digest is not None
                and cell.digest != cell.clean_digest
            ):
                flags.append("diverged-from-clean-run")
            if not flags:
                continue
            reports.append(
                {
                    "protocol": cell.protocol,
                    "family": cell.family,
                    "n": cell.n,
                    "engine": cell.engine,
                    "flags": flags,
                    "fault_count": cell.fault_count,
                    "error": cell.error,
                    "error_type": cell.error_type,
                    "traceback_digest": cell.traceback_digest,
                }
            )
        return reports

    def to_dict(self) -> Dict[str, Any]:
        return {
            "meta": self.meta,
            "cells": [cell.to_dict() for cell in self.cells],
        }

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


# -- cell execution (module-level: pure functions of the coordinates, --
# -- picklable across the worker-pool process boundary) ----------------


def _note_cache(cell: MatrixCell, network: Any) -> None:
    """Accumulate one sample network's persistent schedule-cache traffic
    onto the cell (no-op when the sweep runs without a cache)."""
    cache = getattr(network, "schedule_cache", None)
    if cache is None:
        return
    stats = cache.stats
    cell.cache_hits = (cell.cache_hits or 0) + stats["hits"]
    cell.cache_misses = (cell.cache_misses or 0) + stats["misses"]
    cell.cache_evictions = (
        (cell.cache_evictions or 0)
        + stats["evictions"]
        + stats["corrupt_evictions"]
    )
    cell.schedule_compiles = (
        (cell.schedule_compiles or 0) + network.schedule_stats["compiled"]
    )


def _execute_cell(
    spec,
    prepared,
    family_name: str,
    n: int,
    engine: str,
    cell_seed: int,
    *,
    repeats: int = 1,
    verify: Optional[str] = None,
    fault_plan: Optional[Any] = None,
    round_limit: Optional[int] = DEFAULT_CELL_ROUND_LIMIT,
    checkpoint_dir: Optional[str] = None,
    checkpoint_every_rounds: Optional[int] = None,
    checkpoint_every_seconds: Optional[float] = None,
    preempt: Optional[Any] = None,
    on_snapshot: Optional[Callable[[int, str, str], None]] = None,
    schedule_cache: Optional[str] = None,
    lane_arena: Optional[Any] = None,
) -> MatrixCell:
    """Run one prepared (protocol, family, n) instance on one engine.

    ``checkpoint_dir`` (already cell-specific — see
    :func:`cell_checkpoint_dir`) enables mid-run snapshot/restore on the
    first timing sample: the run resumes from the newest valid snapshot
    when one exists, flushes new ones per the ``checkpoint_every_*``
    policy, and honours ``preempt`` (flush + :class:`RunPreempted`,
    which propagates to the supervisor instead of completing the cell).
    Chaos cells skip checkpointing — snapshots of fault-corrupted state
    must never be resumable.
    """
    from repro.core.errors import RunPreempted
    from repro.core.network import Network

    cell = MatrixCell(
        protocol=spec.name, family=family_name, n=n, engine=engine,
        status="unsupported",
    )
    if engine not in spec.engines:
        return cell
    flavour = spec.program_for(engine)
    program = prepared.programs.get(flavour)
    if program is None:
        return cell
    if getattr(prepared, "instances", None) is not None:
        return _execute_many_cell(
            cell, spec, prepared, program, engine, cell_seed,
            repeats=repeats, verify=verify, fault_plan=fault_plan,
            round_limit=round_limit, schedule_cache=schedule_cache,
            lane_arena=lane_arena,
        )[0]
    chaos = fault_plan is not None and fault_plan.is_active
    checkpointing = checkpoint_dir is not None and not chaos

    def network_kwargs() -> Dict[str, Any]:
        # A fresh network per sample keeps cells independent: no
        # compiled-schedule carry-over between engines or repeats beyond
        # what one run legitimately builds.  The per-cell seed applies
        # unless the prepare hook pinned its own; the default round
        # watchdog applies unless the hook set its own limit.  The
        # persistent schedule cache is the deliberate exception: it is
        # *meant* to be shared across cells, engines and processes.
        kwargs = dict(prepared.network_kwargs)
        kwargs.setdefault("seed", cell_seed)
        if round_limit is not None:
            kwargs.setdefault("round_limit", round_limit)
        if schedule_cache is not None:
            kwargs.setdefault("schedule_cache", schedule_cache)
        if lane_arena is not None:
            kwargs.setdefault("lane_allocator", lane_arena)
        return kwargs

    try:
        best: Optional[float] = None
        summary = digest = run = None
        for sample in range(repeats):
            kwargs = network_kwargs()
            if chaos:
                kwargs["fault_plan"] = fault_plan
            network = Network(engine=engine, **kwargs)
            run_kwargs: Dict[str, Any] = {}
            if checkpointing and sample == 0:
                # Snapshot/restore applies to the first sample only:
                # a later repeat resuming from the first's snapshots
                # would time a partial run.  Resumption is
                # digest-identical, so the cross-repeat determinism
                # check below still holds.
                from repro.core.checkpoint import CheckpointPolicy

                run_kwargs["checkpoint"] = CheckpointPolicy(
                    checkpoint_dir,
                    every_rounds=checkpoint_every_rounds,
                    every_seconds=checkpoint_every_seconds,
                    preempt=preempt,
                    on_snapshot=on_snapshot,
                )
                run_kwargs["resume_from"] = "auto"
            start = time.perf_counter()  # analysis: allow(wall-clock)
            run = network.run(
                program, inputs=prepared.inputs, **run_kwargs
            )
            elapsed = time.perf_counter() - start  # analysis: allow(wall-clock)
            if run_kwargs:
                stats = network.checkpoint_stats
                cell.checkpoints = stats["snapshots"]
                if run.resume is not None:
                    cell.resumed_from_round = run.resume["round"]
            _note_cache(cell, network)
            sample_summary = prepared.summarize(run)
            sample_digest = _digest(sample_summary, run)
            if digest is not None and sample_digest != digest:
                raise AssertionError(
                    "nondeterministic cell: digest changed across repeats"
                )
            summary, digest = sample_summary, sample_digest
            if best is None or elapsed < best:
                best = elapsed
        cell.status = "ok"
        cell.seconds = best
        cell.rounds = run.rounds
        cell.total_bits = run.total_bits
        cell.max_round_bits = run.max_round_bits
        cell.digest = digest
        if run.fallback is not None:
            cell.engine_fallback = (
                f"{run.fallback['from']}->{run.fallback['to']}"
            )
        if chaos:
            cell.fault_count = len(run.faults or ())
            # Clean baseline: the same cell, same seed, no plan.  Its
            # digest is what "the faults changed the answer" is
            # measured against.
            clean = Network(engine=engine, **network_kwargs()).run(
                program, inputs=prepared.inputs
            )
            cell.clean_digest = _digest(prepared.summarize(clean), clean)
        if prepared.validate is not None:
            try:
                prepared.validate(summary)
                cell.validated = True
            except AssertionError as exc:
                cell.validated = False
                cell.error = str(exc)
        if verify == "cross-engine":
            _verify_cell(
                cell, spec, prepared, cell_seed, digest,
                fault_plan=fault_plan, round_limit=round_limit,
            )
    except RunPreempted:
        # Preemption is not a cell outcome: the run flushed its final
        # snapshot and must surface to the supervisor (which retries the
        # cell from that snapshot), not complete as a failed cell.
        raise
    except Exception as exc:  # noqa: BLE001 - cell isolation is the point
        _failure_fields(cell, exc)
    return cell


def _verify_cell(
    cell: MatrixCell,
    spec,
    prepared,
    cell_seed: int,
    digest: Optional[str],
    *,
    fault_plan: Optional[Any] = None,
    round_limit: Optional[int] = DEFAULT_CELL_ROUND_LIMIT,
) -> None:
    """Re-run one ok cell on a second engine and compare digests.

    Prefers the legacy reference engine as the witness; a cell that
    already ran on legacy is checked against the next engine the
    protocol supports.  A witness failure counts as a divergence
    (``verify_match=False``) — self-checking must not fail open.
    """
    from repro.core.network import Network

    witness = next(
        (
            name
            for name in [REFERENCE_ENGINE]
            + [e for e in spec.engines if e != REFERENCE_ENGINE]
            if name != cell.engine and name in spec.engines
        ),
        None,
    )
    if witness is None:
        return
    program = prepared.programs.get(spec.program_for(witness))
    if program is None:
        return
    cell.verify_engine = witness
    try:
        kwargs = dict(prepared.network_kwargs)
        kwargs.setdefault("seed", cell_seed)
        if round_limit is not None:
            kwargs.setdefault("round_limit", round_limit)
        if fault_plan is not None and fault_plan.is_active:
            kwargs["fault_plan"] = fault_plan
        run = Network(engine=witness, **kwargs).run(
            program, inputs=prepared.inputs
        )
        cell.verify_digest = _digest(prepared.summarize(run), run)
        cell.verify_match = cell.verify_digest == digest
    except Exception as exc:  # noqa: BLE001 - divergence, not crash
        cell.verify_match = False
        if cell.error is None:
            cell.error = f"verify[{witness}] {type(exc).__name__}: {exc}"


# -- multi-instance (run_many) cells and K-sharding ---------------------


def _execute_many_cell(
    cell: MatrixCell,
    spec,
    prepared,
    program,
    engine: str,
    cell_seed: int,
    *,
    repeats: int = 1,
    verify: Optional[str] = None,
    fault_plan: Optional[Any] = None,
    round_limit: Optional[int] = DEFAULT_CELL_ROUND_LIMIT,
    schedule_cache: Optional[str] = None,
    lane_arena: Optional[Any] = None,
    lo: Optional[int] = None,
    hi: Optional[int] = None,
) -> Tuple[MatrixCell, Optional[List[Tuple[Any, int, int, int]]]]:
    """Run instances ``[lo, hi)`` of a multi-instance cell through one
    ``run_many`` sweep and return ``(cell, per-instance records)``.

    With the default full range this *is* the cell (digest over all K
    records); with a sub-range it is one K-shard, whose records the
    supervisor concatenates via :func:`merge_shard_payloads`.  Mid-run
    checkpointing does not apply here — the shard boundary is the
    resumption unit for multi-instance cells.
    """
    from repro.core.network import Network

    instances = prepared.instances
    lo = 0 if lo is None else lo
    hi = len(instances) if hi is None else hi
    chaos = fault_plan is not None and fault_plan.is_active

    def network_kwargs() -> Dict[str, Any]:
        kwargs = dict(prepared.network_kwargs)
        kwargs.setdefault("seed", cell_seed)
        if round_limit is not None:
            kwargs.setdefault("round_limit", round_limit)
        if schedule_cache is not None:
            kwargs.setdefault("schedule_cache", schedule_cache)
        if lane_arena is not None:
            kwargs.setdefault("lane_allocator", lane_arena)
        return kwargs

    records: Optional[List[Tuple[Any, int, int, int]]] = None
    try:
        best: Optional[float] = None
        digest = runs = None
        for _sample in range(repeats):
            kwargs = network_kwargs()
            if chaos:
                kwargs["fault_plan"] = fault_plan
            network = Network(engine=engine, **kwargs)
            start = time.perf_counter()  # analysis: allow(wall-clock)
            runs = network.run_many(program, instances[lo:hi])
            elapsed = time.perf_counter() - start  # analysis: allow(wall-clock)
            _note_cache(cell, network)
            sample_records = _instance_records(prepared, runs)
            sample_digest = _records_digest(sample_records)
            if digest is not None and sample_digest != digest:
                raise AssertionError(
                    "nondeterministic cell: digest changed across repeats"
                )
            records, digest = sample_records, sample_digest
            if best is None or elapsed < best:
                best = elapsed
        cell.status = "ok"
        cell.seconds = best
        cell.rounds = records[0][1] if records else 0
        cell.total_bits = sum(rec[2] for rec in records)
        cell.max_round_bits = max((rec[3] for rec in records), default=0)
        cell.digest = digest
        cell.instances = hi - lo
        fallbacks = [run.fallback for run in runs if run.fallback is not None]
        if fallbacks:
            cell.engine_fallback = (
                f"{fallbacks[0]['from']}->{fallbacks[0]['to']}"
            )
        if chaos:
            cell.fault_count = sum(len(run.faults or ()) for run in runs)
            clean_runs = Network(engine=engine, **network_kwargs()).run_many(
                program, instances[lo:hi]
            )
            cell.clean_digest = _records_digest(
                _instance_records(prepared, clean_runs)
            )
        if prepared.validate_instance is not None:
            try:
                for k, rec in enumerate(records):
                    prepared.validate_instance(lo + k, rec[0])
                cell.validated = True
            except AssertionError as exc:
                cell.validated = False
                cell.error = str(exc)
        if verify == "cross-engine":
            _verify_many_cell(
                cell, spec, prepared, cell_seed, digest, lo, hi,
                fault_plan=fault_plan, round_limit=round_limit,
            )
    except Exception as exc:  # noqa: BLE001 - cell isolation is the point
        _failure_fields(cell, exc)
        records = None
    return cell, records


def _verify_many_cell(
    cell: MatrixCell,
    spec,
    prepared,
    cell_seed: int,
    digest: Optional[str],
    lo: int,
    hi: int,
    *,
    fault_plan: Optional[Any] = None,
    round_limit: Optional[int] = DEFAULT_CELL_ROUND_LIMIT,
) -> None:
    """Cross-engine witness for a multi-instance cell: re-run the same
    instance range on a second engine and compare record digests."""
    from repro.core.network import Network

    witness = next(
        (
            name
            for name in [REFERENCE_ENGINE]
            + [e for e in spec.engines if e != REFERENCE_ENGINE]
            if name != cell.engine and name in spec.engines
        ),
        None,
    )
    if witness is None:
        return
    program = prepared.programs.get(spec.program_for(witness))
    if program is None:
        return
    cell.verify_engine = witness
    try:
        kwargs = dict(prepared.network_kwargs)
        kwargs.setdefault("seed", cell_seed)
        if round_limit is not None:
            kwargs.setdefault("round_limit", round_limit)
        if fault_plan is not None and fault_plan.is_active:
            kwargs["fault_plan"] = fault_plan
        runs = Network(engine=witness, **kwargs).run_many(
            program, prepared.instances[lo:hi]
        )
        cell.verify_digest = _records_digest(_instance_records(prepared, runs))
        cell.verify_match = cell.verify_digest == digest
    except Exception as exc:  # noqa: BLE001 - divergence, not crash
        cell.verify_match = False
        if cell.error is None:
            cell.error = f"verify[{witness}] {type(exc).__name__}: {exc}"


def _shard_payload(
    spec,
    prepared,
    family_name: str,
    n: int,
    engine: str,
    cell_seed: int,
    lo: int,
    hi: int,
    *,
    repeats: int = 1,
    round_limit: Optional[int] = DEFAULT_CELL_ROUND_LIMIT,
    schedule_cache: Optional[str] = None,
    lane_arena: Optional[Any] = None,
) -> Dict[str, Any]:
    """Execute one K-shard of a prepared multi-instance cell and return
    its transportable payload: the shard's partial cell record plus the
    per-instance records the merge concatenates."""
    cell = MatrixCell(
        protocol=spec.name, family=family_name, n=n, engine=engine,
        status="unsupported",
    )
    records = None
    if engine in spec.engines:
        program = prepared.programs.get(spec.program_for(engine))
        if program is not None:
            cell, records = _execute_many_cell(
                cell, spec, prepared, program, engine, cell_seed,
                repeats=repeats, round_limit=round_limit,
                schedule_cache=schedule_cache, lane_arena=lane_arena,
                lo=lo, hi=hi,
            )
    return {"lo": lo, "hi": hi, "cell": cell.to_dict(), "records": records}


def run_cell_shard(
    spec,
    family_name: str,
    n: int,
    engine: str,
    *,
    seed: int = 0,
    lo: int,
    hi: int,
    repeats: int = 1,
    round_limit: Optional[int] = DEFAULT_CELL_ROUND_LIMIT,
    schedule_cache: Optional[str] = None,
    lane_arena: Optional[Any] = None,
) -> Dict[str, Any]:
    """Worker-pool entry point for one K-shard: rebuild the cell's graph
    and prepared scenario from the coordinates (exactly as
    :func:`run_cell` does — shards must see the identical instance
    payloads in every process), then execute instances ``[lo, hi)``."""
    import random

    coord = _cell_coord(seed, spec.name, family_name, n)
    cell_seed = int.from_bytes(hashlib.sha256(coord.encode()).digest()[:4], "big")
    rng = random.Random(coord)
    try:
        graph = get_family(family_name).build(n, rng)
        prepared = spec.prepare(n, graph, rng)
        if prepared.instances is None:
            raise ValueError(
                f"protocol {spec.name!r} is not multi-instance; cannot shard"
            )
    except Exception as exc:  # noqa: BLE001 - isolate the shard
        cell = MatrixCell(
            protocol=spec.name, family=family_name, n=n, engine=engine,
            status="failed",
        )
        _failure_fields(cell, exc)
        return {"lo": lo, "hi": hi, "cell": cell.to_dict(), "records": None}
    return _shard_payload(
        spec, prepared, family_name, n, engine, cell_seed, lo, hi,
        repeats=repeats, round_limit=round_limit,
        schedule_cache=schedule_cache, lane_arena=lane_arena,
    )


def merge_shard_payloads(
    spec, family_name: str, n: int, engine: str, payloads: Sequence[Dict[str, Any]]
) -> MatrixCell:
    """Deterministically merge K-shard payloads into the cell the serial
    runner would have produced.

    Records concatenate in instance order and the digest covers the full
    ordered tuple — byte-identical to the unsharded ``run_many`` cell,
    because each record is a pure function of its instance.  Failure is
    sticky (any failed shard fails the cell); instrumentation fields
    (seconds, cache counters) sum across shards.
    """
    ordered = sorted(payloads, key=lambda p: p["lo"])
    shard_cells = [MatrixCell.from_dict(p["cell"]) for p in ordered]
    cell = MatrixCell(
        protocol=spec.name, family=family_name, n=n, engine=engine,
        status="ok",
    )
    cell.shards = len(ordered)
    failed = next((c for c in shard_cells if c.status == "failed"), None)
    if failed is not None:
        cell.status = "failed"
        cell.error = failed.error
        cell.error_type = failed.error_type
        cell.traceback_digest = failed.traceback_digest
        return cell
    if all(c.status == "unsupported" for c in shard_cells):
        cell.status = "unsupported"
        return cell
    records: List[Any] = []
    for payload in ordered:
        records.extend(payload["records"] or ())
    cell.digest = _records_digest(records)
    cell.rounds = records[0][1] if records else 0
    cell.total_bits = sum(rec[2] for rec in records)
    cell.max_round_bits = max((rec[3] for rec in records), default=0)
    cell.seconds = sum(c.seconds or 0.0 for c in shard_cells)
    cell.instances = sum(c.instances or 0 for c in shard_cells)
    verdicts = [c.validated for c in shard_cells]
    if any(v is False for v in verdicts):
        cell.validated = False
        cell.error = next(
            (c.error for c in shard_cells if c.validated is False), None
        )
    elif all(v is True for v in verdicts):
        cell.validated = True
    for name in ("cache_hits", "cache_misses", "cache_evictions",
                 "schedule_compiles"):
        values = [getattr(c, name) for c in shard_cells]
        if any(v is not None for v in values):
            setattr(cell, name, sum(v or 0 for v in values))
    fallback = next(
        (c.engine_fallback for c in shard_cells
         if c.engine_fallback is not None),
        None,
    )
    cell.engine_fallback = fallback
    return cell


def run_cell(
    spec,
    family_name: str,
    n: int,
    engine: str,
    *,
    seed: int = 0,
    repeats: int = 1,
    verify: Optional[str] = None,
    fault_plan: Optional[Any] = None,
    round_limit: Optional[int] = DEFAULT_CELL_ROUND_LIMIT,
    checkpoint_dir: Optional[str] = None,
    checkpoint_every_rounds: Optional[int] = None,
    checkpoint_every_seconds: Optional[float] = None,
    preempt: Optional[Any] = None,
    on_snapshot: Optional[Callable[[int, str, str], None]] = None,
    schedule_cache: Optional[str] = None,
    lane_arena: Optional[Any] = None,
) -> MatrixCell:
    """Execute one sweep cell from scratch: build the instance graph,
    prepare the scenario, run it on ``engine``.

    ``checkpoint_dir`` is the sweep-level base directory; this function
    derives the cell's own snapshot directory from its journal key
    (:func:`cell_checkpoint_dir`), so an interrupted attempt's snapshots
    are found again by any later attempt in any process.

    This is the worker-pool entry point, and deliberately a pure
    function of the cell coordinates: the graph rng, the network seed
    and the protocol instance all derive from
    ``(seed, protocol, family, n)`` exactly as the serial runner derives
    them, so a cell computed in any process, under any scheduling, at
    any attempt yields the identical :class:`MatrixCell` digest.
    """
    import random

    if engine not in spec.engines:
        # Decided before anything is built: an engine the protocol does
        # not support is unsupported whatever the instance looks like.
        return MatrixCell(
            protocol=spec.name, family=family_name, n=n, engine=engine,
            status="unsupported",
        )
    coord = _cell_coord(seed, spec.name, family_name, n)
    # Stable across processes (unlike hash(), which is salted): the
    # cell's network seed must not change between runs or the digests
    # stop being comparable.
    cell_seed = int.from_bytes(hashlib.sha256(coord.encode()).digest()[:4], "big")
    rng = random.Random(coord)
    try:
        graph = get_family(family_name).build(n, rng)
        prepared = spec.prepare(n, graph, rng)
    except Exception as exc:  # noqa: BLE001 - isolate the cell
        cell = MatrixCell(
            protocol=spec.name, family=family_name, n=n, engine=engine,
            status="failed",
        )
        _failure_fields(cell, exc)
        return cell
    cell_dir = None
    if checkpoint_dir is not None:
        cell_dir = cell_checkpoint_dir(
            checkpoint_dir,
            _cell_key(seed, spec.name, family_name, n, engine),
        )
    return _execute_cell(
        spec, prepared, family_name, n, engine, cell_seed,
        repeats=repeats, verify=verify, fault_plan=fault_plan,
        round_limit=round_limit,
        checkpoint_dir=cell_dir,
        checkpoint_every_rounds=checkpoint_every_rounds,
        checkpoint_every_seconds=checkpoint_every_seconds,
        preempt=preempt, on_snapshot=on_snapshot,
        schedule_cache=schedule_cache, lane_arena=lane_arena,
    )


class ScenarioMatrix:
    """Sweep registered protocols over graph families, sizes and engines.

    Parameters
    ----------
    protocols, families:
        Names from the protocol / graph-family registries.
    sizes:
        Problem sizes ``n`` (one network per cell).
    engines:
        Engine names to run each cell on; defaults to every registered
        backend.  Cells whose protocol does not support an engine are
        recorded with ``status="unsupported"`` rather than skipped
        silently.
    seed:
        Base seed; each (protocol, family, n) coordinate derives its own
        instance rng and network seed from it, so cells are reproducible
        in isolation and identical across engines (which is what makes
        the cross-engine digest comparison meaningful).
    repeats:
        Timing samples per cell (best-of); results are checked on every
        sample and must stay identical.
    verify:
        ``"cross-engine"`` re-runs every ok cell once on a second engine
        (preferring the legacy reference) and records
        ``verify_engine``/``verify_digest``/``verify_match`` — the
        self-checking execution mode.  ``None`` (default) skips it.
    fault_plan:
        An optional :class:`~repro.core.faults.FaultPlan` applied to
        every cell.  Each faulted cell also runs a clean (no-plan)
        baseline on the same network coordinates; the pair of digests is
        what decides ``detected``.
    cell_round_limit:
        Per-cell round watchdog wired into every cell's network as
        ``Network(round_limit=)`` (default
        :data:`DEFAULT_CELL_ROUND_LIMIT`); ``None`` disables it.  A
        prepare hook that pins its own ``round_limit`` wins.
    """

    def __init__(
        self,
        protocols: Sequence[str],
        families: Sequence[str],
        sizes: Sequence[int],
        engines: Optional[Sequence[str]] = None,
        seed: int = 0,
        repeats: int = 1,
        verify: Optional[str] = None,
        fault_plan: Optional[Any] = None,
        analyze: bool = False,
        cell_round_limit: Optional[int] = DEFAULT_CELL_ROUND_LIMIT,
    ) -> None:
        from repro.core.engine.planner import ENGINES

        if engines is None:
            engines = sorted(ENGINES)
        for engine in engines:
            if engine not in ENGINES:
                raise ValueError(
                    f"unknown engine {engine!r}; known: {sorted(ENGINES)}"
                )
        if verify not in (None, "cross-engine"):
            raise ValueError(
                f"unknown verify mode {verify!r}; use None or 'cross-engine'"
            )
        if fault_plan is not None:
            fault_plan.validate()
        if cell_round_limit is not None and cell_round_limit < 1:
            raise ValueError("cell_round_limit must be at least 1 round")
        self.protocols = [get_protocol(name).name for name in protocols]
        self.families = [get_family(name).name for name in families]
        self.sizes = list(sizes)
        self.engines = list(engines)
        self.seed = seed
        self.repeats = max(1, repeats)
        self.verify = verify
        self.fault_plan = fault_plan
        #: When true, every (protocol, family, n) coordinate also runs
        #: the static verifier (structure + bandwidth budget) and
        #: its cells carry ``analysis_ok`` / ``analysis_violations``.
        self.analyze = analyze
        self.cell_round_limit = cell_round_limit

    # -- sweep geometry ---------------------------------------------------

    def coordinates(self) -> List[Tuple[str, str, int]]:
        """The (protocol, family, n) coordinates of this sweep, in the
        canonical (serial) execution order."""
        return [
            (protocol, family, n)
            for protocol in self.protocols
            for family in self.families
            for n in self.sizes
        ]

    def ordered_engines(self) -> List[str]:
        """Engines in execution order: the reference engine first so
        every other cell can be compared against its digest."""
        return sorted(self.engines, key=lambda e: e != REFERENCE_ENGINE)

    def cell_keys(self) -> List[str]:
        """Journal identity of every cell, in canonical order."""
        return [
            _cell_key(self.seed, protocol, family, n, engine)
            for protocol, family, n in self.coordinates()
            for engine in self.ordered_engines()
        ]

    def _meta(self) -> Dict[str, Any]:
        return {
            "protocols": self.protocols,
            "families": self.families,
            "sizes": self.sizes,
            "engines": self.engines,
            "seed": self.seed,
            "repeats": self.repeats,
            "reference_engine": REFERENCE_ENGINE,
            "verify": self.verify,
            "fault_plan": (
                self.fault_plan.to_dict()
                if self.fault_plan is not None
                else None
            ),
            "analyze": self.analyze,
            "cell_round_limit": self.cell_round_limit,
        }

    # -- execution --------------------------------------------------------

    def run(
        self,
        *,
        workers: Optional[int] = None,
        journal: Optional[str] = None,
        resume_from: Optional[str] = None,
        cell_timeout: Optional[float] = None,
        max_attempts: int = 3,
        chaos_kills: Optional[Sequence[int]] = None,
        stop_after_cells: Optional[int] = None,
        checkpoint_dir: Optional[str] = None,
        checkpoint_every_rounds: Optional[int] = None,
        checkpoint_every_seconds: Optional[float] = None,
        schedule_cache: Optional[str] = None,
        shard_k: Optional[int] = None,
    ) -> MatrixResult:
        """Run the sweep and return its :class:`MatrixResult`.

        With no arguments this is the in-process serial runner — the
        zero-overhead default path.  ``workers=W`` dispatches cells to
        the supervised worker pool of :mod:`repro.scenarios.sweep`
        (per-cell wall-clock deadlines via ``cell_timeout`` seconds,
        crash/timeout retry with capped backoff, quarantine after
        ``max_attempts``); ``journal=`` appends every completed cell to
        a durable JSONL journal, and ``resume_from=`` replays a prior
        journal's completed cells instead of re-executing them.
        Digests are byte-identical across all of these execution shapes.
        ``chaos_kills`` / ``stop_after_cells`` are the chaos-drill hooks
        the resilience tests and the CI chaos-pool job use.

        ``checkpoint_dir=`` enables mid-run checkpointing for every
        cell (snapshots under a per-cell subdirectory, flushed every
        ``checkpoint_every_rounds`` rounds and/or
        ``checkpoint_every_seconds`` seconds): an interrupted attempt's
        next attempt resumes from the newest valid snapshot instead of
        from scratch.  Deliberately *not* part of the sweep's journal
        fingerprint — where snapshots live does not change what the
        cells compute, so a checkpointed sweep can resume a plain
        sweep's journal and vice versa.

        ``schedule_cache=`` names a directory for the persistent
        compiled-schedule cache: kernel-engine cells store their
        compiled lane structures there and later cells — in this run, a
        resumed run, or any pool worker — load them instead of
        recompiling (cells gain ``cache_hits``/``cache_misses``
        counters; legacy and fast cells never touch it).
        ``shard_k=`` splits each multi-instance cell into K-shards of at
        most that many instances (aligned to the engines' K-chunk seam)
        so the pool spreads one cell across workers; the merged cell is
        digest-identical to the unsharded runner.  Neither knob is part
        of the journal fingerprint — like ``checkpoint_dir``, they change
        how cells execute, never what they compute.
        """
        if workers is not None:
            from repro.scenarios.sweep import run_sharded

            return run_sharded(
                self,
                workers=workers,
                journal=journal,
                resume_from=resume_from,
                cell_timeout=cell_timeout,
                max_attempts=max_attempts,
                chaos_kills=chaos_kills,
                stop_after_cells=stop_after_cells,
                checkpoint_dir=checkpoint_dir,
                checkpoint_every_rounds=checkpoint_every_rounds,
                checkpoint_every_seconds=checkpoint_every_seconds,
                schedule_cache=schedule_cache,
                shard_k=shard_k,
            )
        if journal is not None or resume_from is not None:
            from repro.scenarios.sweep import run_journaled_serial

            return run_journaled_serial(
                self, journal=journal, resume_from=resume_from,
                checkpoint_dir=checkpoint_dir,
                checkpoint_every_rounds=checkpoint_every_rounds,
                checkpoint_every_seconds=checkpoint_every_seconds,
                schedule_cache=schedule_cache,
                shard_k=shard_k,
            )
        return self._run_serial(
            checkpoint_dir=checkpoint_dir,
            checkpoint_every_rounds=checkpoint_every_rounds,
            checkpoint_every_seconds=checkpoint_every_seconds,
            schedule_cache=schedule_cache,
            shard_k=shard_k,
        )

    def _run_serial(
        self,
        on_cell: Optional[Callable[[str, MatrixCell], None]] = None,
        replay: Optional[Dict[str, Dict[str, Any]]] = None,
        checkpoint_dir: Optional[str] = None,
        checkpoint_every_rounds: Optional[int] = None,
        checkpoint_every_seconds: Optional[float] = None,
        schedule_cache: Optional[str] = None,
        shard_k: Optional[int] = None,
    ) -> MatrixResult:
        """The in-process serial runner.

        ``on_cell(key, cell)`` is invoked for every *freshly executed*
        cell as soon as it completes (the journal hook); ``replay`` maps
        cell keys to recorded :meth:`MatrixCell.to_dict` payloads that
        are rebuilt instead of re-executed (the resume hook).

        ``shard_k`` makes the serial runner execute eligible
        multi-instance cells shard by shard and merge — same code path
        as the pool's merge, which is how the K-sharding digest identity
        is provable in-process.
        """
        import random

        result = MatrixResult(meta=self._meta())
        ordered = self.ordered_engines()
        for protocol_name, family_name, n in self.coordinates():
            spec = get_protocol(protocol_name)
            family = get_family(family_name)
            coord = _cell_coord(self.seed, protocol_name, family_name, n)
            cell_seed = int.from_bytes(
                hashlib.sha256(coord.encode()).digest()[:4], "big"
            )
            replayed: Dict[str, MatrixCell] = {}
            pending: List[str] = []
            cells: List[MatrixCell] = []
            for engine in ordered:
                key = _cell_key(self.seed, protocol_name, family_name, n, engine)
                if replay is not None and key in replay:
                    replayed[engine] = MatrixCell.from_dict(replay[key])
                elif engine in spec.engines:
                    pending.append(engine)
                else:
                    # Unsupported is decided before the instance is
                    # built, so a bad instance cannot turn it into a
                    # failure.
                    cell = MatrixCell(
                        protocol=protocol_name, family=family_name, n=n,
                        engine=engine, status="unsupported",
                    )
                    cells.append(cell)
                    if on_cell is not None:
                        on_cell(key, cell)
            if pending:
                rng = random.Random(coord)
                try:
                    graph = family.build(n, rng)
                    prepared = spec.prepare(n, graph, rng)
                except Exception as exc:  # noqa: BLE001 - isolate the cell
                    prepared = None
                    for engine in pending:
                        cell = MatrixCell(
                            protocol=protocol_name,
                            family=family_name,
                            n=n,
                            engine=engine,
                            status="failed",
                        )
                        _failure_fields(cell, exc)
                        cells.append(cell)
                        if on_cell is not None:
                            on_cell(cell.key(self.seed), cell)
                if prepared is not None:
                    for engine in pending:
                        cell_dir = None
                        if checkpoint_dir is not None:
                            cell_dir = cell_checkpoint_dir(
                                checkpoint_dir,
                                _cell_key(
                                    self.seed, protocol_name, family_name,
                                    n, engine,
                                ),
                            )
                        if self._shardable(spec, engine, shard_k, cell_dir):
                            cell = self._run_sharded_cell(
                                spec, prepared, family_name, n, engine,
                                cell_seed, shard_k=shard_k,
                                schedule_cache=schedule_cache,
                            )
                        else:
                            cell = _execute_cell(
                                spec, prepared, family_name, n, engine,
                                cell_seed,
                                repeats=self.repeats,
                                verify=self.verify,
                                fault_plan=self.fault_plan,
                                round_limit=self.cell_round_limit,
                                checkpoint_dir=cell_dir,
                                checkpoint_every_rounds=checkpoint_every_rounds,
                                checkpoint_every_seconds=checkpoint_every_seconds,
                                schedule_cache=schedule_cache,
                            )
                        cells.append(cell)
                        if on_cell is not None:
                            on_cell(cell.key(self.seed), cell)
            cells.extend(replayed.values())
            self._finalize_coordinate(spec, family_name, n, cells)
            result.cells.extend(cells)
        return result

    def _shardable(
        self, spec, engine: str, shard_k: Optional[int],
        cell_dir: Optional[str],
    ) -> bool:
        """Whether one cell is eligible for K-sharding: a multi-instance
        protocol on a supported engine, with no per-cell chaos, witness
        or checkpointing riding along (those stay whole-cell concerns —
        the shard is purely an execution split)."""
        return (
            shard_k is not None
            and spec.instances > 1
            and engine in spec.engines
            and self.verify is None
            and self.fault_plan is None
            and cell_dir is None
        )

    def _run_sharded_cell(
        self, spec, prepared, family_name: str, n: int, engine: str,
        cell_seed: int, *, shard_k: int,
        schedule_cache: Optional[str] = None,
    ) -> MatrixCell:
        """Serial K-sharding: execute each shard in turn and merge —
        digest-identical to the unsharded cell by construction."""
        payloads = [
            _shard_payload(
                spec, prepared, family_name, n, engine, cell_seed, lo, hi,
                repeats=self.repeats, round_limit=self.cell_round_limit,
                schedule_cache=schedule_cache,
            )
            for lo, hi in plan_shards(spec.instances, shard_k, n)
        ]
        return merge_shard_payloads(spec, family_name, n, engine, payloads)

    def _finalize_coordinate(
        self, spec, family_name: str, n: int, cells: List[MatrixCell]
    ) -> None:
        """Stamp the cross-cell verdicts on one coordinate's cells:
        reference-digest comparison, the chaos detection verdict, the
        static-analysis verdict, and the caller's engine order.

        Deterministic given the cells' digests and statuses, so it is
        recomputed identically whether the cells were just executed,
        replayed from a journal, or assembled from pool workers.
        """
        # Prefer the legacy digest as ground truth; a sweep that
        # excludes legacy still cross-checks the cells it ran against
        # the first one (mismatches() must never be vacuously empty
        # just because the reference engine was left out).
        by_engine = {cell.engine: cell for cell in cells}
        reference_digest: Optional[str] = next(
            (
                by_engine[engine].digest
                for engine in self.ordered_engines()
                if engine in by_engine and by_engine[engine].status == "ok"
            ),
            None,
        )
        for cell in cells:
            if cell.status == "ok" and reference_digest is not None:
                cell.matches_reference = cell.digest == reference_digest
        # Chaos detection verdict: a faulted cell counts as detected iff
        # *any* check tripped — the run failed outright, validation
        # rejected the summary, the digest diverged from the clean
        # baseline, the cross-engine verify disagreed, or the cell broke
        # ranks with the sweep's reference digest.  Cells whose schedule
        # injected nothing stay None: there was no corruption to detect.
        if self.fault_plan is not None and self.fault_plan.is_active:
            for cell in cells:
                if cell.status == "unsupported":
                    continue
                if cell.status == "failed":
                    cell.detected = True
                elif cell.fault_count:
                    cell.detected = (
                        cell.validated is False
                        or (
                            cell.clean_digest is not None
                            and cell.digest != cell.clean_digest
                        )
                        or cell.verify_match is False
                        or cell.matches_reference is False
                    )
        # Static-analysis verdict for the coordinate: one verifier run
        # per (protocol, family, n), stamped on every engine cell (the
        # verdict is engine-free — structure and budgets are
        # protocol properties).
        if self.analyze:
            from repro.analysis.verifier import analyze_protocol

            analysis = analyze_protocol(
                spec, n, family=family_name, seed=self.seed
            )
            violations = list(analysis.violations)
            if analysis.error is not None:
                violations.append(analysis.error)
            for cell in cells:
                cell.analysis_ok = analysis.ok
                cell.analysis_violations = violations
        # Report in the caller's engine order.
        order = {name: i for i, name in enumerate(self.engines)}
        cells.sort(key=lambda cell: order[cell.engine])
