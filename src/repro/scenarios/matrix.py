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

Every cell is judged from its own run and its coordinate's
``prepare``; nothing runs a cell twice to check it:

* **Bandwidth budget** — right after ``prepare``,
  :meth:`ScenarioMatrix.run_coordinate` checks the prepared network
  ``bandwidth`` against the spec's
  :class:`~repro.analysis.budget.BandwidthBudget`.  An over-budget
  coordinate fails every supported cell with
  :class:`~repro.core.errors.BandwidthExceededError` before any engine
  runs (every engine rejects a message wider than that bandwidth, so
  this one check bounds every message).
* **Reference digest** — the cell of the coordinate's first supported
  engine in :meth:`ScenarioMatrix.ordered_engines` (legacy when it is
  swept) is the reference.  Every ok cell records whether its digest
  matches it; when the reference cell failed, no ok cell matches.  To
  witness a cell on another engine, list that engine in ``engines``.
* ``fault_plan=`` executes every cell under a deterministic
  :class:`~repro.core.faults.FaultPlan` **and** once more without it
  (the clean baseline): a cell whose injected faults moved the digest,
  failed validation, or broke ranks with the reference counts as
  *detected*; :meth:`MatrixResult.silent_passes` lists
  injected-but-undetected cells, which a chaos CI job asserts empty.

Resilient execution
-------------------

Every cell's network gets a round bound, ``Network(max_rounds=)`` set
from :data:`DEFAULT_CELL_ROUND_LIMIT`, so a livelocked protocol
surfaces as a structured ``failed`` cell with
``error_type="MaxRoundsExceededError"`` instead of stalling the sweep.
:meth:`ScenarioMatrix.run` is one executor over one per-coordinate
function, :meth:`ScenarioMatrix.run_coordinate`, which prepares a
(protocol, family, n) instance once and runs it on every engine the
coordinate still owes.  ``workers=0`` (the default) runs the coordinates in
process; ``workers=W`` hands them to the supervised worker pool of
:mod:`repro.scenarios.sweep` (with per-cell deadlines via
``cell_timeout=``).  ``journal=`` records every completed cell durably
and ``resume_from=`` replays a prior journal, skipping completed cells.
A coordinate's cells are a pure function of its coordinates and the
matrix's cell settings, which is what makes digests byte-identical
across worker counts, scheduling orders and kill/resume boundaries.

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
from dataclasses import asdict, dataclass, field, fields
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.errors import BandwidthExceededError
from repro.scenarios.families import get_family
from repro.scenarios.registry import get_protocol

__all__ = [
    "MatrixCell",
    "MatrixResult",
    "ScenarioMatrix",
    "instance_graph",
    "DEFAULT_CELL_ROUND_LIMIT",
]

#: The engine the matrix prefers as ground truth for digests; sweeps
#: that exclude it take the first supported engine they sweep.
REFERENCE_ENGINE = "legacy"

#: Default per-cell round bound: far above any registered protocol's
#: round count at sweep sizes, far below the network's default
#: ``max_rounds`` of 1e6.  A protocol that livelocks (e.g. a
#: retransmission loop under chaos) becomes a structured ``failed`` cell
#: with ``error_type="MaxRoundsExceededError"`` instead of a stalled
#: sweep.
DEFAULT_CELL_ROUND_LIMIT = 50_000


def _cell_coord(seed: int, protocol: str, family: str, n: int) -> str:
    return f"{seed}:{protocol}:{family}:{n}"


def _cell_key(seed: int, protocol: str, family: str, n: int, engine: str) -> str:
    """The per-(coordinate, engine) identity used by sweep journals and
    the worker pool — one completed journal line per key."""
    return f"{_cell_coord(seed, protocol, family, n)}:{engine}"


def instance_graph(seed: int, protocol: str, family: str, n: int):
    """The exact graph instance a sweep cell ran on — the same coord
    derivation :meth:`ScenarioMatrix.run` uses, exposed so callers
    (benchmarks, reports) never re-implement the convention."""
    import random

    from repro.scenarios.families import get_family

    return get_family(family).build(
        n, random.Random(_cell_coord(seed, protocol, family, n))
    )


def _distinct(axis: str, values: List[Any]) -> List[Any]:
    """``values``, once it is checked that none repeats: a repeated
    value would name the same cells twice, and the sweep would run and
    journal them twice."""
    seen = set()
    for value in values:
        if value in seen:
            raise ValueError(f"{axis} {value!r} is listed more than once")
        seen.add(value)
    return values


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
    #: Wall time of the engine run (best of ``repeats``).
    seconds: Optional[float] = None
    #: Wall time of the coordinate's instance build plus
    #: ``spec.prepare``, shared by its supported cells.  A prepare hook
    #: that reuses a plan held for this n reads close to 0 here.
    prepare_seconds: Optional[float] = None
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
    #: Worker-pool forensics: how many attempts the supervisor spent
    #: on this cell (None = run in process), and whether it landed in
    #: the poison quarantine after exhausting them.
    attempts: Optional[int] = None
    quarantined: Optional[bool] = None
    #: Multi-instance (``run_many``) cells: how many instances the cell
    #: covers.
    instances: Optional[int] = None

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

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
        """Cells that failed, failed validation, or do not match their
        coordinate's reference cell."""
        return [
            cell
            for cell in self.cells
            if cell.status == "failed"
            or cell.matches_reference is False
            or cell.validated is False
        ]

    def quarantined(self) -> List[MatrixCell]:
        """Poison cells: the worker pool exhausted its retry budget
        on them (worker crashes, deadline kills).  Always a subset of
        :meth:`mismatches` — quarantine is never silent."""
        return [cell for cell in self.cells if cell.quarantined]

    def injected_cells(self) -> List[MatrixCell]:
        """Cells that actually received at least one injected fault."""
        return [cell for cell in self.cells if (cell.fault_count or 0) > 0]

    def silent_passes(self) -> List[MatrixCell]:
        """The chaos sweep's cardinal sin: cells whose injected faults
        left no observable trace (digest equal to the clean baseline,
        validation green, reference agreement).  A chaos CI job asserts
        this list is empty."""
        return [
            cell
            for cell in self.injected_cells()
            if cell.detected is False
        ]

    def fault_reports(self) -> List[Dict[str, Any]]:
        """Structured per-cell divergence reports: every cell that
        failed, failed validation, mismatched the reference or diverged
        from its clean baseline, with the reasons flagged explicitly."""
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


# -- cell execution (pure functions of the coordinates, so a coordinate --
# -- run in any process yields the same cells) ---------------------------


def _run_records(
    prepared,
    program,
    engine: str,
    cell_seed: int,
    round_limit: Optional[int],
    fault_plan: Optional[Any] = None,
):
    """One run of a prepared cell on ``engine``: ``(runs, records,
    digest, seconds)``.

    A single-instance cell is ``[network.run(...)]`` and a
    multi-instance cell is ``network.run_many(...)``.  Each record is
    one instance's canonical summary plus its round/bit accounting, a
    pure function of the instance (never of the kernel engine's chunk
    boundaries).  The digest covers the one record of a single-instance
    cell and the ordered tuple of records of a multi-instance cell;
    ``seconds`` times the engine run alone.

    A fresh network per run keeps cells independent.  The per-cell
    seed applies unless the prepare hook pinned its own, and
    ``round_limit`` becomes the network's ``max_rounds`` unless the hook
    set its own.
    """
    from repro.core.network import Network

    kwargs = dict(prepared.network_kwargs)
    kwargs.setdefault("seed", cell_seed)
    if round_limit is not None:
        kwargs.setdefault("max_rounds", round_limit)
    if fault_plan is not None:
        kwargs["fault_plan"] = fault_plan
    network = Network(engine=engine, **kwargs)
    start = time.perf_counter()  # analysis: allow(wall-clock)
    if prepared.instances is None:
        runs = [network.run(program, inputs=prepared.inputs)]
    else:
        runs = network.run_many(program, prepared.instances)
    seconds = time.perf_counter() - start  # analysis: allow(wall-clock)
    records = [
        (prepared.summarize(run), run.rounds, run.total_bits, run.max_round_bits)
        for run in runs
    ]
    blob = records[0] if prepared.instances is None else tuple(records)
    digest = hashlib.sha256(repr(blob).encode()).hexdigest()[:16]
    return runs, records, digest, seconds


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
        Timing samples per cell (best-of, at least 1); results are
        checked on every sample and must stay identical.
    fault_plan:
        An optional :class:`~repro.core.faults.FaultPlan` applied to
        every cell.  Each faulted cell also runs a clean (no-plan)
        baseline on the same network coordinates; the pair of digests is
        what decides ``detected``.
    cell_round_limit:
        Per-cell round bound, wired into every cell's network as
        ``Network(max_rounds=)`` (default
        :data:`DEFAULT_CELL_ROUND_LIMIT`); ``None`` leaves the network's
        default.  A prepare hook that pins its own ``max_rounds`` wins.
    """

    def __init__(
        self,
        protocols: Sequence[str],
        families: Sequence[str],
        sizes: Sequence[int],
        engines: Optional[Sequence[str]] = None,
        seed: int = 0,
        repeats: int = 1,
        fault_plan: Optional[Any] = None,
        cell_round_limit: Optional[int] = DEFAULT_CELL_ROUND_LIMIT,
    ) -> None:
        from repro.core.engine import ENGINES

        if engines is None:
            engines = sorted(ENGINES)
        for engine in engines:
            if engine not in ENGINES:
                raise ValueError(
                    f"unknown engine {engine!r}; known: {sorted(ENGINES)}"
                )
        if repeats < 1:
            raise ValueError(f"repeats must be at least 1, got {repeats}")
        if fault_plan is not None:
            fault_plan.validate()
        if cell_round_limit is not None and cell_round_limit < 1:
            raise ValueError("cell_round_limit must be at least 1 round")
        self.protocols = _distinct(
            "protocol", [get_protocol(name).name for name in protocols]
        )
        self.families = _distinct(
            "family", [get_family(name).name for name in families]
        )
        self.sizes = _distinct("size", list(sizes))
        self.engines = _distinct("engine", list(engines))
        self.seed = seed
        self.repeats = repeats
        self.fault_plan = fault_plan
        self.cell_round_limit = cell_round_limit

    # -- sweep geometry ---------------------------------------------------

    def coordinates(self) -> List[Tuple[str, str, int]]:
        """The (protocol, family, n) coordinates of this sweep, in the
        canonical (serial) execution order: protocol, then size, then
        family.  A protocol's coordinates at one n run back to back, so
        a prepare hook that holds what depends on n alone (the Theorem 2
        protocols' compiled plans) builds it once per size."""
        return [
            (protocol, family, n)
            for protocol in self.protocols
            for n in self.sizes
            for family in self.families
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
            "fault_plan": (
                self.fault_plan.to_dict()
                if self.fault_plan is not None
                else None
            ),
            "cell_round_limit": self.cell_round_limit,
        }

    # -- execution --------------------------------------------------------

    def run(
        self,
        *,
        workers: int = 0,
        journal: Optional[str] = None,
        resume_from: Optional[str] = None,
        cell_timeout: Optional[float] = None,
        max_attempts: int = 3,
        chaos_kills: Optional[Sequence[int]] = None,
        stop_after_cells: Optional[int] = None,
    ) -> MatrixResult:
        """Run the sweep and return its :class:`MatrixResult`.

        One executor over :meth:`run_coordinate`: ``workers=0`` (the
        default) runs every pending coordinate in this process;
        ``workers=W`` runs them on the supervised worker pool of
        :mod:`repro.scenarios.sweep` (a wall-clock deadline of
        ``cell_timeout`` seconds per cell, crash/timeout retry with
        capped backoff, quarantine after ``max_attempts``), which hands
        whatever it cannot run back to the in-process executor.
        ``journal=`` appends every completed cell to a durable JSONL
        journal, and ``resume_from=`` replays a prior journal's
        completed cells instead of re-executing them.  Digests are
        byte-identical across all of these execution shapes.
        ``chaos_kills`` / ``stop_after_cells`` are the pool's chaos-drill
        hooks, which the resilience tests and the CI chaos-pool job use;
        like ``cell_timeout`` they need ``workers >= 1``.

        The coordinate is the unit of work and the cell the unit of
        recovery: an interrupted coordinate re-runs the cells its journal
        has not recorded, from the start.
        """
        from repro.core.errors import SweepResumeError
        from repro.scenarios.sweep.journal import SweepJournal

        if workers < 0:
            raise ValueError("workers must be at least 0")
        if workers == 0:
            if cell_timeout is not None:
                raise ValueError(
                    "cell_timeout needs workers >= 1: the in-process executor "
                    "cannot enforce a wall-clock deadline"
                )
            for hook, value in (
                ("chaos_kills", chaos_kills),
                ("stop_after_cells", stop_after_cells),
            ):
                if value is not None:
                    raise ValueError(
                        f"{hook} needs workers >= 1: it is a chaos-drill "
                        "hook of the worker pool"
                    )
        if max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        meta = self._meta()
        if resume_from is not None:
            if journal is not None and journal != resume_from:
                raise SweepResumeError(
                    "journal= and resume_from= name different files; resume "
                    "appends to the journal it replays"
                )
            handle, loaded = SweepJournal.resume(resume_from, meta)
            replayed = loaded.cells
        elif journal is not None:
            handle, replayed = SweepJournal(journal, meta).open(), {}
        else:
            handle, replayed = None, {}
        wanted = set(self.cell_keys())
        completed = {
            key: MatrixCell.from_dict(payload)
            for key, payload in replayed.items()
            if key in wanted
        }
        meta["journal"] = None if handle is None else handle.path
        meta["replayed_cells"] = len(completed)

        def record(cells: List[MatrixCell], attempt: Optional[int] = None) -> int:
            """Mark ``cells`` completed and journal them; returns how
            many were new (a killed attempt's late duplicate is not)."""
            fresh = 0
            for cell in cells:
                key = cell.key(self.seed)
                if key in completed:
                    continue
                cell.attempts = attempt
                completed[key] = cell
                if handle is not None:
                    handle.record_cell(key, cell.to_dict(), attempt=attempt or 1)
                fresh += 1
            return fresh

        try:
            todo = self._pending(completed)
            if workers:
                from repro.scenarios.sweep.pool import run_sharded

                pool = meta["pool"] = run_sharded(
                    self, todo, record, handle, workers,
                    cell_timeout=cell_timeout,
                    max_attempts=max_attempts,
                    chaos_kills=chaos_kills,
                    stop_after_cells=stop_after_cells,
                )
                todo = (
                    [] if pool["fallback_reason"] is None
                    else self._pending(completed)
                )
            for (protocol, family, n), engines in todo:
                record(
                    self.run_coordinate(get_protocol(protocol), family, n, engines)
                )
        finally:
            if handle is not None:
                handle.close()
        return self._assemble(meta, completed)

    def run_coordinate(
        self, spec, family_name: str, n: int, engines: Sequence[str]
    ) -> List[MatrixCell]:
        """Run one (protocol, family, n) coordinate on ``engines`` — the
        sweep's unit of work, in process and in a pool worker alike.

        Engines the protocol does not support are marked unsupported
        before anything is built, so a bad instance cannot turn them
        into failures.  The instance is then built and ``spec.prepare``
        called once; together they are timed into every supported
        cell's ``prepare_seconds``.  A prepared network ``bandwidth`` over the spec's
        ``bandwidth_budget`` fails every remaining cell with
        :class:`~repro.core.errors.BandwidthExceededError` before any
        engine runs.  Every remaining engine then runs on that prepared
        instance.  The result is a pure function of the coordinate and
        this matrix's cell settings: the graph rng, the network seed and
        the protocol instance all derive from ``(seed, protocol, family,
        n)``, so any process, scheduling order or attempt yields the same
        cells.  They come back in ``engines`` order, without the
        cross-cell verdicts :meth:`_finalize_coordinate` stamps.
        """
        import random

        cells = [
            MatrixCell(
                protocol=spec.name, family=family_name, n=n, engine=engine,
                status="unsupported",
            )
            for engine in engines
        ]
        supported = [cell for cell in cells if cell.engine in spec.engines]
        if not supported:
            return cells
        coord = _cell_coord(self.seed, spec.name, family_name, n)
        # Stable across processes (unlike hash(), which is salted): the
        # cell's network seed must not change between runs or the digests
        # stop being comparable.
        cell_seed = int.from_bytes(hashlib.sha256(coord.encode()).digest()[:4], "big")
        rng = random.Random(coord)
        try:
            start = time.perf_counter()  # analysis: allow(wall-clock)
            graph = get_family(family_name).build(n, rng)
            prepared = spec.prepare(n, graph, rng)
            prepare_seconds = time.perf_counter() - start  # analysis: allow(wall-clock)
            for cell in supported:
                cell.prepare_seconds = prepare_seconds
            bandwidth = int(prepared.network_kwargs.get("bandwidth", 0))
            try:
                spec.bandwidth_budget.check(n, bandwidth)
            except BandwidthExceededError as exc:
                raise BandwidthExceededError(f"{spec.name}: {exc}") from None
        except Exception as exc:  # noqa: BLE001 - isolate the coordinate
            for cell in supported:
                _failure_fields(cell, exc)
            return cells
        for cell in supported:
            self._run_cell(cell, spec, prepared, cell_seed)
        return cells

    def _run_cell(self, cell: MatrixCell, spec, prepared, cell_seed: int) -> None:
        """Run a prepared coordinate on ``cell.engine`` and record the
        outcome on ``cell``: best-of-``repeats`` timing, accounting,
        digest, the clean fault baseline and validation."""
        plan = self.fault_plan
        if plan is not None and not plan.is_active:
            plan = None
        try:
            program = spec.program(prepared, cell.engine)
            best: Optional[float] = None
            digest = None
            for _sample in range(self.repeats):
                runs, records, sample_digest, seconds = _run_records(
                    prepared, program, cell.engine, cell_seed,
                    self.cell_round_limit, plan,
                )
                if digest is not None and sample_digest != digest:
                    raise AssertionError(
                        "nondeterministic cell: digest changed across repeats"
                    )
                digest = sample_digest
                if best is None or seconds < best:
                    best = seconds
            cell.status = "ok"
            cell.seconds = best
            cell.rounds = records[0][1] if records else 0
            cell.total_bits = sum(record[2] for record in records)
            cell.max_round_bits = max((record[3] for record in records), default=0)
            cell.digest = digest
            if prepared.instances is not None:
                cell.instances = len(prepared.instances)
            if plan is not None:
                cell.fault_count = sum(len(run.faults or ()) for run in runs)
                # Clean baseline: the same cell, same seed, no plan.  Its
                # digest is what "the faults changed the answer" is
                # measured against.
                cell.clean_digest = _run_records(
                    prepared, program, cell.engine, cell_seed,
                    self.cell_round_limit,
                )[2]
            single = prepared.instances is None
            validate = prepared.validate if single else prepared.validate_instance
            if validate is not None:
                try:
                    if single:
                        validate(records[0][0])
                    else:
                        for k, record in enumerate(records):
                            validate(k, record[0])
                    cell.validated = True
                except AssertionError as exc:
                    cell.validated = False
                    cell.error = str(exc)
        except Exception as exc:  # noqa: BLE001 - cell isolation is the point
            _failure_fields(cell, exc)

    def _pending(
        self, completed: Dict[str, MatrixCell]
    ) -> List[Tuple[Tuple[str, str, int], List[str]]]:
        """Every coordinate that still owes cells, with the engines it
        owes them on, in canonical order."""
        todo = []
        for protocol, family, n in self.coordinates():
            engines = [
                engine
                for engine in self.ordered_engines()
                if _cell_key(self.seed, protocol, family, n, engine)
                not in completed
            ]
            if engines:
                todo.append(((protocol, family, n), engines))
        return todo

    def _assemble(
        self, meta: Dict[str, Any], completed: Dict[str, MatrixCell]
    ) -> MatrixResult:
        """Build the result from the completed cells in canonical order
        and stamp every cross-cell verdict.  Deterministic given the
        cells, which is why in-process, pooled, replayed and degraded
        runs all produce byte-identical digests.  An interrupted sweep
        may hold only part of a coordinate; its cells are kept (the
        journal has them) and the verdicts are computed over whatever
        engines did run — the resumed run computes them again over the
        full set."""
        result = MatrixResult(meta=meta)
        for protocol, family, n in self.coordinates():
            cells = [
                completed[key]
                for key in (
                    _cell_key(self.seed, protocol, family, n, engine)
                    for engine in self.ordered_engines()
                )
                if key in completed
            ]
            if cells:
                self._finalize_coordinate(cells)
                result.cells.extend(cells)
        return result

    def _finalize_coordinate(self, cells: List[MatrixCell]) -> None:
        """Stamp the cross-cell verdicts on one coordinate's cells:
        reference-digest comparison, the chaos detection verdict, and the
        caller's engine order.

        Deterministic given the cells' digests and statuses, so it is
        recomputed identically whether the cells were just executed,
        replayed from a journal, or assembled from pool workers.
        """
        # The reference is the cell of the first supported engine in
        # execution order: legacy when the sweep includes it, else the
        # first engine it sweeps (mismatches() must never be vacuously
        # empty just because legacy was left out).  A failed reference
        # vouches for nothing, so then no ok cell matches it.
        by_engine = {cell.engine: cell for cell in cells}
        reference = next(
            (
                by_engine[engine]
                for engine in self.ordered_engines()
                if engine in by_engine
                and by_engine[engine].status != "unsupported"
            ),
            None,
        )
        if reference is not None:
            for cell in cells:
                if cell.status == "ok":
                    cell.matches_reference = (
                        reference.status == "ok"
                        and cell.digest == reference.digest
                    )
        # Chaos detection verdict: a faulted cell counts as detected iff
        # *any* check tripped — the run failed outright, validation
        # rejected the summary, the digest diverged from the clean
        # baseline, or the cell broke ranks with the reference.  Cells
        # whose schedule injected nothing stay None: there was no
        # corruption to detect.
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
                        or cell.matches_reference is False
                    )
        # Report in the caller's engine order.
        order = {name: i for i, name in enumerate(self.engines)}
        cells.sort(key=lambda cell: order[cell.engine])
