"""Durable execution journal for sweep runs.

One JSONL file per sweep: a leading ``meta`` line binding the journal to
its sweep (a fingerprint over the sweep's defining parameters), then one
``cell`` line per *completed* cell and one ``attempt`` line per failed
attempt the supervisor retried.  Appends are atomic at the line level —
each record is written as a single ``write()`` of one newline-terminated
line, flushed and fsynced before the supervisor considers the cell
durable — so a SIGKILL at any instant loses at most the line being
written, and :func:`SweepJournal.load` tolerates exactly one torn
trailing line (anything worse is corruption and raises
:class:`~repro.core.errors.SweepResumeError`).

Resume (:meth:`SweepJournal.load`) replays completed cells by their
journal key (``seed:protocol:family:n:engine``): the runner rebuilds the
recorded :class:`~repro.scenarios.matrix.MatrixCell` instead of
re-executing, and re-derives all cross-cell verdicts, so a resumed
sweep's digests are byte-identical to an uninterrupted run.  Quarantined
cells are journaled like any other completed cell and therefore *not*
retried on resume — delete the journal (or resume into a new one) to
re-attempt poison cells.  Load skips record kinds it does not read, so
a journal carrying lines this version no longer writes still resumes.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Dict, List, Optional, TextIO

from repro.core.errors import SweepResumeError

__all__ = ["SweepJournal", "sweep_fingerprint", "verify_journal"]

_SCHEMA = 1


def sweep_fingerprint(meta: Dict[str, Any]) -> str:
    """Identity of a sweep for resume purposes: a digest over the
    parameters that determine every cell's coordinates and behaviour.
    Two sweeps with the same fingerprint execute the same cells with the
    same seeds, so replaying one's journal into the other is sound."""
    blob = json.dumps(meta, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


class SweepJournal:
    """Append-side handle on a sweep journal file."""

    def __init__(self, path: str, meta: Dict[str, Any]) -> None:
        self.path = path
        self.meta = meta
        self.fingerprint = sweep_fingerprint(meta)
        self._fh: Optional[TextIO] = None

    # -- writing ----------------------------------------------------------

    def open(self, *, overwrite: bool = False) -> "SweepJournal":
        """Create the journal file and write its meta line.

        Refuses to clobber an existing non-empty journal unless
        ``overwrite`` is set: a journal on disk is a record someone
        may intend to resume, and losing it silently is exactly the
        failure mode this module exists to prevent.
        """
        if (
            not overwrite
            and os.path.exists(self.path)
            and os.path.getsize(self.path) > 0
        ):
            raise SweepResumeError(
                f"journal {self.path!r} already exists; pass resume_from= "
                "to continue it or remove it to start over"
            )
        self._fh = open(self.path, "w")
        self._append(
            {
                "kind": "meta",
                "schema": _SCHEMA,
                "fingerprint": self.fingerprint,
                "sweep": self.meta,
            }
        )
        return self

    def record_cell(self, key: str, cell: Dict[str, Any], attempt: int = 1) -> None:
        """Durably record one completed cell (``cell`` is the
        :meth:`MatrixCell.to_dict` payload, pre-finalize)."""
        self._append(
            {"kind": "cell", "key": key, "attempt": attempt, "cell": cell}
        )

    def record_attempt(
        self,
        key: str,
        attempt: int,
        error_type: str,
        error: str,
        traceback_digest: Optional[str] = None,
    ) -> None:
        """Record one failed attempt (crash, deadline kill) — the cell's
        durable attempt history, kept even after the cell completes."""
        self._append(
            {
                "kind": "attempt",
                "key": key,
                "attempt": attempt,
                "error_type": error_type,
                "error": error,
                "traceback_digest": traceback_digest,
            }
        )

    def _append(self, record: Dict[str, Any]) -> None:
        if self._fh is None:
            raise SweepResumeError(f"journal {self.path!r} is not open")
        self._fh.write(json.dumps(record, sort_keys=True) + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "SweepJournal":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- reading ----------------------------------------------------------

    @classmethod
    def load(
        cls, path: str, expected_meta: Optional[Dict[str, Any]] = None
    ) -> "LoadedJournal":
        """Parse a journal for resume.

        Checks the meta line's fingerprint against ``expected_meta``
        (the resuming sweep's parameters) when given — resuming a
        journal into a different sweep raises
        :class:`~repro.core.errors.SweepResumeError` rather than
        silently mixing incomparable cells.
        """
        try:
            with open(path) as fh:
                lines = fh.read().splitlines()
        except OSError as exc:
            raise SweepResumeError(
                f"cannot read journal {path!r}: {exc}"
            ) from exc
        if not lines:
            raise SweepResumeError(f"journal {path!r} is empty")
        records: List[Dict[str, Any]] = []
        torn_line = False
        for i, line in enumerate(lines):
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as exc:
                if i == len(lines) - 1:
                    # A torn trailing line is the expected residue of a
                    # kill mid-append; that cell simply re-executes.
                    torn_line = True
                    break
                raise SweepResumeError(
                    f"journal {path!r} is corrupt at line {i + 1}"
                ) from exc
        if not records or records[0].get("kind") != "meta":
            raise SweepResumeError(
                f"journal {path!r} has no meta line; not a sweep journal"
            )
        meta = records[0]
        if meta.get("schema") != _SCHEMA:
            raise SweepResumeError(
                f"journal {path!r} has schema {meta.get('schema')!r}, "
                f"expected {_SCHEMA}"
            )
        if expected_meta is not None:
            expected = sweep_fingerprint(expected_meta)
            if meta.get("fingerprint") != expected:
                raise SweepResumeError(
                    f"journal {path!r} belongs to a different sweep "
                    f"(fingerprint {meta.get('fingerprint')!r}, this sweep "
                    f"is {expected!r})"
                )
        cells: Dict[str, Dict[str, Any]] = {}
        cell_lines: Dict[str, int] = {}
        attempts: Dict[str, List[Dict[str, Any]]] = {}
        for record in records[1:]:
            kind = record.get("kind")
            key = record.get("key")
            if kind == "cell" and key is not None:
                cells[key] = record["cell"]
                cell_lines[key] = cell_lines.get(key, 0) + 1
            elif kind == "attempt" and key is not None:
                attempts.setdefault(key, []).append(record)
        return LoadedJournal(
            path=path,
            meta=meta["sweep"],
            fingerprint=meta["fingerprint"],
            cells=cells,
            cell_lines=cell_lines,
            attempts=attempts,
            torn_line=torn_line,
        )

    @classmethod
    def resume(
        cls, path: str, meta: Dict[str, Any]
    ) -> "tuple[SweepJournal, LoadedJournal]":
        """Open ``path`` for continued appending after replaying it.

        Returns the loaded state plus a fresh journal handle whose file
        already contains the prior records (append mode — the meta line
        is not rewritten).
        """
        loaded = cls.load(path, expected_meta=meta)
        journal = cls(path, meta)
        journal._fh = open(path, "a")
        return journal, loaded


class LoadedJournal:
    """Parsed journal state: completed cells and attempt history."""

    def __init__(
        self,
        path: str,
        meta: Dict[str, Any],
        fingerprint: str,
        cells: Dict[str, Dict[str, Any]],
        cell_lines: Dict[str, int],
        attempts: Dict[str, List[Dict[str, Any]]],
        torn_line: bool = False,
    ) -> None:
        self.path = path
        self.meta = meta
        self.fingerprint = fingerprint
        #: key -> recorded cell payload (last record wins on duplicates).
        self.cells = cells
        #: key -> number of ``cell`` lines seen (the zero-re-execution
        #: assertion in tests/CI checks every count is exactly 1).
        self.cell_lines = cell_lines
        #: key -> failed-attempt records, in journal order.
        self.attempts = attempts
        #: Whether the file ended in a torn (kill-mid-append) line.
        self.torn_line = torn_line

    def duplicate_keys(self) -> List[str]:
        """Cells recorded more than once — nonempty means a completed
        cell was re-executed, the invariant resume exists to prevent."""
        return sorted(k for k, count in self.cell_lines.items() if count > 1)


def verify_journal(path: str) -> Dict[str, Any]:
    """Structural health report for one sweep journal — the engine
    behind ``python -m repro.scenarios --journal-verify``.

    Always returns a report dict (never raises): ``ok`` is True iff the
    journal parsed (fingerprint line intact, schema known, no mid-file
    corruption) *and* no completed cell was recorded twice.  A torn
    trailing line is reported but does not fail the check — it is the
    expected residue of a kill mid-append.
    """
    report: Dict[str, Any] = {
        "path": path,
        "ok": False,
        "error": None,
        "fingerprint": None,
        "cells": 0,
        "failed_attempts": 0,
        "duplicate_keys": [],
        "torn_line": False,
    }
    try:
        loaded = SweepJournal.load(path)
    except SweepResumeError as exc:
        report["error"] = str(exc)
        return report
    duplicates = loaded.duplicate_keys()
    report.update(
        ok=not duplicates,
        fingerprint=loaded.fingerprint,
        cells=len(loaded.cells),
        failed_attempts=sum(len(v) for v in loaded.attempts.values()),
        duplicate_keys=duplicates,
        torn_line=loaded.torn_line,
    )
    if duplicates:
        report["error"] = (
            f"{len(duplicates)} cell(s) recorded more than once: "
            "a completed cell was re-executed"
        )
    return report
