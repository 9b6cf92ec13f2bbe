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
    "instance_graph",
    "run_cell",
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
    instance.  Records are a pure function of the instance, never of
    the kernel engine's chunk boundaries."""
    return [
        (prepared.summarize(run), run.rounds, run.total_bits, run.max_round_bits)
        for run in runs
    ]


def _records_digest(records) -> str:
    """Canonical digest of a multi-instance cell: the ordered tuple of
    per-instance records."""
    return hashlib.sha256(repr(tuple(records)).encode()).hexdigest()[:16]


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
    #: Multi-instance (``run_many``) cells: how many instances the cell
    #: covers.
    instances: Optional[int] = None

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
            "instances": self.instances,
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


def _cell_network_kwargs(
    prepared, cell_seed: int, round_limit: Optional[int]
) -> Dict[str, Any]:
    """Network arguments for one of a cell's runs.  A fresh network per
    run keeps cells independent: no compiled-schedule carry-over between
    engines or repeats beyond what one run legitimately builds.  The
    per-cell seed applies unless the prepare hook pinned its own; the
    default round watchdog applies unless the hook set its own limit."""
    kwargs = dict(prepared.network_kwargs)
    kwargs.setdefault("seed", cell_seed)
    if round_limit is not None:
        kwargs.setdefault("round_limit", round_limit)
    return kwargs


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
) -> MatrixCell:
    """Run one prepared (protocol, family, n) instance on one engine."""
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
            round_limit=round_limit,
        )
    chaos = fault_plan is not None and fault_plan.is_active

    try:
        best: Optional[float] = None
        summary = digest = run = None
        for _sample in range(repeats):
            kwargs = _cell_network_kwargs(prepared, cell_seed, round_limit)
            if chaos:
                kwargs["fault_plan"] = fault_plan
            network = Network(engine=engine, **kwargs)
            start = time.perf_counter()  # analysis: allow(wall-clock)
            run = network.run(program, inputs=prepared.inputs)
            elapsed = time.perf_counter() - start  # analysis: allow(wall-clock)
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
            clean = Network(
                engine=engine,
                **_cell_network_kwargs(prepared, cell_seed, round_limit),
            ).run(program, inputs=prepared.inputs)
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
        kwargs = _cell_network_kwargs(prepared, cell_seed, round_limit)
        if fault_plan is not None and fault_plan.is_active:
            kwargs["fault_plan"] = fault_plan
        network = Network(engine=witness, **kwargs)
        if getattr(prepared, "instances", None) is None:
            run = network.run(program, inputs=prepared.inputs)
            cell.verify_digest = _digest(prepared.summarize(run), run)
        else:
            runs = network.run_many(program, prepared.instances)
            cell.verify_digest = _records_digest(
                _instance_records(prepared, runs)
            )
        cell.verify_match = cell.verify_digest == digest
    except Exception as exc:  # noqa: BLE001 - divergence, not crash
        cell.verify_match = False
        if cell.error is None:
            cell.error = f"verify[{witness}] {type(exc).__name__}: {exc}"


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
) -> MatrixCell:
    """Run every instance of a multi-instance cell through one
    ``run_many`` sweep; the digest covers the ordered per-instance
    records."""
    from repro.core.network import Network

    instances = prepared.instances
    chaos = fault_plan is not None and fault_plan.is_active
    try:
        best: Optional[float] = None
        digest = records = runs = None
        for _sample in range(repeats):
            kwargs = _cell_network_kwargs(prepared, cell_seed, round_limit)
            if chaos:
                kwargs["fault_plan"] = fault_plan
            network = Network(engine=engine, **kwargs)
            start = time.perf_counter()  # analysis: allow(wall-clock)
            runs = network.run_many(program, instances)
            elapsed = time.perf_counter() - start  # analysis: allow(wall-clock)
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
        cell.instances = len(instances)
        fallbacks = [run.fallback for run in runs if run.fallback is not None]
        if fallbacks:
            cell.engine_fallback = (
                f"{fallbacks[0]['from']}->{fallbacks[0]['to']}"
            )
        if chaos:
            cell.fault_count = sum(len(run.faults or ()) for run in runs)
            clean_runs = Network(
                engine=engine,
                **_cell_network_kwargs(prepared, cell_seed, round_limit),
            ).run_many(program, instances)
            cell.clean_digest = _records_digest(
                _instance_records(prepared, clean_runs)
            )
        if prepared.validate_instance is not None:
            try:
                for k, rec in enumerate(records):
                    prepared.validate_instance(k, rec[0])
                cell.validated = True
            except AssertionError as exc:
                cell.validated = False
                cell.error = str(exc)
        if verify == "cross-engine":
            _verify_cell(
                cell, spec, prepared, cell_seed, digest,
                fault_plan=fault_plan, round_limit=round_limit,
            )
    except Exception as exc:  # noqa: BLE001 - cell isolation is the point
        _failure_fields(cell, exc)
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
) -> MatrixCell:
    """Execute one sweep cell from scratch: build the instance graph,
    prepare the scenario, run it on ``engine``.

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
    return _execute_cell(
        spec, prepared, family_name, n, engine, cell_seed,
        repeats=repeats, verify=verify, fault_plan=fault_plan,
        round_limit=round_limit,
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

        The cell is the unit of work and of recovery: a cell interrupted
        by a crash or a kill is re-run from the start, and a resumed
        sweep re-runs exactly the cells its journal has not recorded.
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
            )
        if journal is not None or resume_from is not None:
            from repro.scenarios.sweep import run_journaled_serial

            return run_journaled_serial(
                self, journal=journal, resume_from=resume_from
            )
        return self._run_serial()

    def _run_serial(
        self,
        on_cell: Optional[Callable[[str, MatrixCell], None]] = None,
        replay: Optional[Dict[str, Dict[str, Any]]] = None,
    ) -> MatrixResult:
        """The in-process serial runner.

        ``on_cell(key, cell)`` is invoked for every *freshly executed*
        cell as soon as it completes (the journal hook); ``replay`` maps
        cell keys to recorded :meth:`MatrixCell.to_dict` payloads that
        are rebuilt instead of re-executed (the resume hook).
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
                        cell = _execute_cell(
                            spec, prepared, family_name, n, engine,
                            cell_seed,
                            repeats=self.repeats,
                            verify=self.verify,
                            fault_plan=self.fault_plan,
                            round_limit=self.cell_round_limit,
                        )
                        cells.append(cell)
                        if on_cell is not None:
                            on_cell(cell.key(self.seed), cell)
            cells.extend(replayed.values())
            self._finalize_coordinate(spec, family_name, n, cells)
            result.cells.extend(cells)
        return result

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
