"""Structured experiment surface: protocols × graph families × engines.

The congested-clique literature states results as sweeps — a problem
evaluated over instance families and sizes, across models and
algorithms.  This package turns that shape into code on top of the
engine subsystem (:mod:`repro.core.engine`):

* :mod:`repro.scenarios.registry` — the **protocol registry**: name →
  :class:`~repro.scenarios.registry.ProtocolSpec` with a program
  factory per flavour (generator / kernel), an input builder, the
  engines the protocol supports, and ground-truth validators.  Ships
  routing, circuit simulation, matmul triangle detection, subgraph
  detection and MST; open for registration.
* :mod:`repro.scenarios.families` — named graph-instance families
  (``gnp``, ``sparse``, ``complete``, ``cycle``, ``bipartite``).
* :mod:`repro.scenarios.matrix` — the
  :class:`~repro.scenarios.matrix.ScenarioMatrix` runner: sweeps
  problem × family × n × engine, records per-cell timing and bit
  accounting, validates against ground truth, digests outputs, and
  checks every backend against the legacy reference engine.  JSON in,
  JSON out — the benchmark harness and CI smoke sweep are thin callers.
  One executor runs every sweep: a (protocol, family, n) coordinate is
  the unit of work (prepared once, then run on each engine it owes by
  :meth:`~repro.scenarios.matrix.ScenarioMatrix.run_coordinate`), in
  process by default.
* :mod:`repro.scenarios.sweep` — **resilient execution**:
  ``run(workers=W)`` hands coordinates to a supervised spawn-context
  worker pool with per-cell deadlines, crash retry with backoff, a
  poison-cell quarantine, and a durable JSONL journal
  (``journal=`` / ``resume_from=``) that makes killed sweeps resumable
  with byte-identical digests.  The cell is the unit of recovery: an
  interrupted coordinate re-runs the cells its journal lacks, from the
  start.  ``python -m repro.scenarios`` is the CLI over all of it.

Engine contract (shared with :mod:`repro.core.engine`): a cell names
its engine explicitly and runs on ``Network(engine=...)``, whose
kernel-flavour programs always run on the kernel engine.  Unsupported
combinations are *recorded* as unsupported, never silently skipped, so
a sweep's JSON always states the full capability surface it covered;
an engine that raises leaves a ``failed`` cell with its ``error_type``.
"""

from repro.scenarios.families import (
    FAMILIES,
    GraphFamily,
    family_names,
    get_family,
    register_family,
)
from repro.scenarios.matrix import (
    DEFAULT_CELL_ROUND_LIMIT,
    MatrixCell,
    MatrixResult,
    ScenarioMatrix,
)
from repro.scenarios.registry import (
    PROTOCOLS,
    PreparedScenario,
    ProtocolSpec,
    capability_matrix,
    get_protocol,
    protocol_names,
    register_protocol,
)

__all__ = [
    "GraphFamily",
    "FAMILIES",
    "register_family",
    "get_family",
    "family_names",
    "ProtocolSpec",
    "PreparedScenario",
    "PROTOCOLS",
    "register_protocol",
    "get_protocol",
    "protocol_names",
    "capability_matrix",
    "ScenarioMatrix",
    "MatrixCell",
    "MatrixResult",
    "DEFAULT_CELL_ROUND_LIMIT",
]
