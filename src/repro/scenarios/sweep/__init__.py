"""Resilient sweep execution.

The package behind ``ScenarioMatrix.run(workers=..., journal=...,
resume_from=..., cell_timeout=...)``: the supervised persistent worker
pool that runs a sweep's coordinates at ``workers >= 1``
(:mod:`~repro.scenarios.sweep.pool`), the thin worker process it drives
(:mod:`~repro.scenarios.sweep.worker`), and the durable JSONL execution
journal that makes sweeps resumable at cell granularity
(:mod:`~repro.scenarios.sweep.journal`).  Every executor — in process,
pooled, or the pool's in-process fallback — runs a coordinate through
:meth:`~repro.scenarios.matrix.ScenarioMatrix.run_coordinate`.
"""

from repro.scenarios.sweep.journal import (
    LoadedJournal,
    SweepJournal,
    sweep_fingerprint,
    verify_journal,
)

__all__ = [
    "LoadedJournal",
    "SweepJournal",
    "sweep_fingerprint",
    "verify_journal",
]
