"""Resilient sharded sweep execution.

The package behind ``ScenarioMatrix.run(workers=..., journal=...,
resume_from=..., cell_timeout=...)``: a supervised persistent worker
pool (:mod:`~repro.scenarios.sweep.pool`), the thin worker process it
drives (:mod:`~repro.scenarios.sweep.worker`), and the durable JSONL
execution journal that makes sweeps resumable at cell granularity
(:mod:`~repro.scenarios.sweep.journal`).
"""

from repro.scenarios.sweep.journal import (
    LoadedJournal,
    SweepJournal,
    sweep_fingerprint,
    verify_journal,
)
from repro.scenarios.sweep.pool import run_journaled_serial, run_sharded

__all__ = [
    "LoadedJournal",
    "SweepJournal",
    "sweep_fingerprint",
    "verify_journal",
    "run_journaled_serial",
    "run_sharded",
]
