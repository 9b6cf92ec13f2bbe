"""``python -m repro.analysis`` — the static protocol verifier CLI.

Runs the analysis passes (bandwidth budgets checked against each
prepared instance, registry consistency, determinism lint) over the
registered protocols — preparing them, never running one — and prints
a human report with one budget row per protocol × n; ``--json``
additionally writes the machine-readable artifact CI uploads, and
``--strict`` turns any violation into exit code 1 — the hard-gate mode
the CI ``analysis`` job runs.  An unknown ``--protocol`` or
``--family`` name exits 2.

Examples::

    python -m repro.analysis --all --strict
    python -m repro.analysis --protocol routing --sizes 6,8,12
    python -m repro.analysis --all --json analysis_report.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from repro.analysis.reporting import Table
from repro.analysis.verifier import DEFAULT_SIZES, AnalysisReport, analyze_all
from repro.scenarios.families import family_names
from repro.scenarios.registry import protocol_names


def _parse_sizes(text: str) -> List[int]:
    try:
        sizes = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"sizes must be comma-separated integers, got {text!r}"
        ) from None
    if not sizes or any(n < 2 for n in sizes):
        raise argparse.ArgumentTypeError("sizes must be integers >= 2")
    return sizes


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="static protocol verifier for the congested-clique repro",
    )
    scope = parser.add_mutually_exclusive_group()
    scope.add_argument(
        "--all",
        action="store_true",
        help="analyze every registered protocol (the default)",
    )
    scope.add_argument(
        "--protocol",
        action="append",
        choices=protocol_names(),
        metavar="NAME",
        help=f"analyze only the named protocol (repeatable; known: {protocol_names()})",
    )
    parser.add_argument(
        "--sizes",
        type=_parse_sizes,
        default=list(DEFAULT_SIZES),
        metavar="N,N,...",
        help=f"problem sizes to analyze (default {','.join(map(str, DEFAULT_SIZES))})",
    )
    parser.add_argument(
        "--family",
        default="gnp",
        choices=family_names(),
        metavar="NAME",
        help=f"graph family for probe instances (default gnp; known: {family_names()})",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--strict",
        action="store_true",
        help="exit 1 on any violation (the CI gate mode)",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        help="also write the full report as JSON",
    )
    parser.add_argument(
        "--lint-root",
        action="append",
        metavar="PATH",
        help="lint these paths instead of the installed repro package",
    )
    parser.add_argument(
        "--no-lint",
        action="store_true",
        help="skip the determinism lint pass",
    )
    return parser


def _lint_roots(args: argparse.Namespace) -> Optional[List[Path]]:
    if args.no_lint:
        return None
    if args.lint_root:
        return [Path(root) for root in args.lint_root]
    # Default: lint the installed repro package sources.
    import repro

    return [Path(repro.__file__).parent]


def _render(report: AnalysisReport, out) -> None:
    from repro.scenarios.registry import PROTOCOLS

    table = Table(
        "Static protocol analysis",
        ["protocol", "n", "width", "budget", "ok"],
    )
    for analysis in report.analyses:
        budget = (
            PROTOCOLS[analysis.protocol].bandwidth_budget
            if analysis.protocol in PROTOCOLS
            else None
        )
        table.add_row(
            analysis.protocol,
            analysis.n,
            analysis.budget.observed if analysis.budget is not None else "-",
            (
                f"{analysis.budget.observed}<={analysis.budget.allowed}"
                f" [{budget.describe()}]"
                if analysis.budget is not None and budget is not None
                else "MISSING"
            ),
            "yes" if analysis.ok else "NO",
        )
    out.write(table.to_text() + "\n\n")

    unsupported = [f for f in report.registry if f.kind == "unsupported"]
    if unsupported:
        out.write("Registry gaps (matrix 'unsupported' cells, explained):\n")
        for finding in unsupported:
            out.write(
                f"  {finding.protocol}/{finding.engine}: {finding.detail}\n"
            )
        out.write("\n")

    violations = report.violations()
    if violations:
        out.write(f"{len(violations)} violation(s):\n")
        for violation in violations:
            out.write(f"  {violation}\n")
    else:
        out.write(
            f"OK: {len(report.analyses)} protocol×n coordinates, "
            f"{len(report.lint)} lint findings, 0 violations\n"
        )


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    report = analyze_all(
        protocols=args.protocol if args.protocol else None,
        sizes=args.sizes,
        family=args.family,
        seed=args.seed,
        lint_roots=_lint_roots(args),
    )
    _render(report, sys.stdout)
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        sys.stdout.write(f"report written to {args.json}\n")
    if args.strict and not report.ok:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
