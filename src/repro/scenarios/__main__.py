"""CLI for the scenario matrix: ``python -m repro.scenarios``.

Runs a sweep over registered protocols × graph families × sizes ×
engines, in process or on the supervised worker pool, with optional
journaling and resume:

    # in-process smoke sweep
    python -m repro.scenarios --protocols routing mst --sizes 8

    # pooled, journaled, with per-cell deadlines
    python -m repro.scenarios --workers 4 --journal sweep.jsonl \\
        --cell-timeout 120 --out sweep.json

    # after a crash/kill: replay completed cells, run the rest
    python -m repro.scenarios --workers 4 --journal sweep.jsonl --resume

    # health-check a journal (fingerprint, torn lines, duplicates);
    # exits non-zero on corruption
    python -m repro.scenarios --journal-verify sweep.jsonl

Exit status is 1 when any cell fails execution or validation or does
not match its coordinate's reference cell — so the CLI slots directly
into CI jobs — and 2 when the sweep cannot run as asked (an unknown or
repeated name, ``--repeats`` or ``--max-attempts`` below 1,
``--workers`` below 0, ``--cell-timeout`` without ``--workers``, a
``--journal`` that already exists without ``--resume``, or a journal
that ``--resume`` cannot read or that belongs to another sweep).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Sequence

from repro.core.errors import SweepResumeError
from repro.scenarios.families import family_names
from repro.scenarios.matrix import DEFAULT_CELL_ROUND_LIMIT, ScenarioMatrix
from repro.scenarios.registry import protocol_names


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.scenarios",
        description="Run a scenario-matrix sweep (in process or pooled).",
    )
    parser.add_argument(
        "--protocols", nargs="+", default=None, metavar="NAME",
        choices=protocol_names(),
        help=f"protocols to sweep (default: all; known: {protocol_names()})",
    )
    parser.add_argument(
        "--families", nargs="+", default=["gnp", "cycle"], metavar="NAME",
        choices=family_names(),
        help=f"graph families (default: gnp cycle; known: {family_names()})",
    )
    parser.add_argument(
        "--sizes", nargs="+", type=int, default=[8], metavar="N",
        help="problem sizes (default: 8)",
    )
    parser.add_argument(
        "--engines", nargs="+", default=None, metavar="ENGINE",
        help="engines to run each cell on (default: all registered)",
    )
    parser.add_argument("--seed", type=int, default=0, help="sweep base seed")
    parser.add_argument(
        "--repeats", type=int, default=1,
        help="timing samples per cell (at least 1)",
    )
    parser.add_argument(
        "--round-limit", type=int, default=DEFAULT_CELL_ROUND_LIMIT,
        metavar="R",
        help="per-cell round watchdog (0 disables; default "
        f"{DEFAULT_CELL_ROUND_LIMIT})",
    )
    parser.add_argument(
        "--workers", type=int, default=0, metavar="W",
        help="run coordinates on W supervised worker processes "
        "(default 0: in process)",
    )
    parser.add_argument(
        "--journal", default=None, metavar="PATH",
        help="append every completed cell to a durable JSONL journal",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="resume from --journal: replay its completed cells instead "
        "of re-executing them",
    )
    parser.add_argument(
        "--cell-timeout", type=float, default=None, metavar="SECONDS",
        help="per-cell wall-clock deadline enforced by the supervisor "
        "(SIGKILL on expiry; needs --workers)",
    )
    parser.add_argument(
        "--max-attempts", type=int, default=3, metavar="K",
        help="attempts per cell before quarantine (pool mode; default 3)",
    )
    parser.add_argument(
        "--journal-verify", default=None, metavar="PATH",
        help="verify a sweep journal's integrity (fingerprint, torn "
        "lines, duplicate cells) and exit; non-zero exit on corruption",
    )
    parser.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the full MatrixResult JSON here",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.journal_verify is not None:
        return _journal_verify(args.journal_verify)
    if args.resume and args.journal is None:
        print("--resume requires --journal", file=sys.stderr)
        return 2
    if args.cell_timeout is not None and not args.workers:
        print("--cell-timeout requires --workers", file=sys.stderr)
        return 2
    if args.workers < 0:
        print(f"--workers must be at least 0, got {args.workers}", file=sys.stderr)
        return 2
    if args.max_attempts < 1:
        print(
            f"--max-attempts must be at least 1, got {args.max_attempts}",
            file=sys.stderr,
        )
        return 2
    if (
        args.journal is not None
        and not args.resume
        and os.path.exists(args.journal)
        and os.path.getsize(args.journal) > 0
    ):
        print(
            f"journal {args.journal!r} already exists; pass --resume to "
            "continue it or remove it to start over",
            file=sys.stderr,
        )
        return 2
    try:
        matrix = ScenarioMatrix(
            protocols=args.protocols or protocol_names(),
            families=args.families,
            sizes=args.sizes,
            engines=args.engines,
            seed=args.seed,
            repeats=args.repeats,
            cell_round_limit=args.round_limit or None,
        )
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    try:
        result = matrix.run(
            workers=args.workers,
            journal=args.journal,
            resume_from=args.journal if args.resume else None,
            cell_timeout=args.cell_timeout,
            max_attempts=args.max_attempts,
        )
    except (ValueError, SweepResumeError) as exc:
        print(exc, file=sys.stderr)
        return 2
    if args.out is not None:
        result.write(args.out)

    cells = result.cells
    ok = [c for c in cells if c.status == "ok"]
    failed = [c for c in cells if c.status == "failed"]
    unsupported = [c for c in cells if c.status == "unsupported"]
    mismatches = result.mismatches()
    quarantined = result.quarantined()
    pool = result.meta.get("pool")
    print(
        f"cells: {len(cells)} ok={len(ok)} failed={len(failed)} "
        f"unsupported={len(unsupported)} quarantined={len(quarantined)} "
        f"mismatches={len(mismatches)} "
        f"replayed={result.meta['replayed_cells']}"
    )
    if pool is not None:
        print(
            f"pool: executor={pool['executor']} workers={pool['workers']} "
            f"respawns={pool['respawns']}"
        )
    for report in result.fault_reports():
        print("  divergence: " + json.dumps(report, sort_keys=True))
    return 1 if mismatches else 0


def _journal_verify(path: str) -> int:
    """Health-check one sweep journal and print its report."""
    from repro.scenarios.sweep import verify_journal

    report = verify_journal(path)
    status = "ok" if report["ok"] else "CORRUPT"
    print(
        f"journal {path}: {status} fingerprint={report['fingerprint']} "
        f"cells={report['cells']} failed_attempts={report['failed_attempts']} "
        f"torn_line={report['torn_line']}"
    )
    if report["error"]:
        print(f"  error: {report['error']}")
    for key in report["duplicate_keys"]:
        print(f"  duplicate cell: {key}")
    return 0 if report["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
