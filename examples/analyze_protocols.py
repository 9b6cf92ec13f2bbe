"""The static protocol verifier, end to end.

Two acts:

1. check the registry — every shipped protocol's declared message
   width checked against its bandwidth budget, from ``prepare`` alone;
2. catch an over-budget protocol whose messages outgrow its declared
   O(log n) envelope, in the analyzer and in a scenario sweep, where
   the coordinate fails before any engine runs.

Run:  PYTHONPATH=src python examples/analyze_protocols.py
"""

from __future__ import annotations

from repro.analysis import (
    BandwidthBudget,
    analyze_all,
    analyze_protocol,
    check_registry,
)
from repro.core import Bits, Mode, Outbox
from repro.scenarios import PROTOCOLS, ScenarioMatrix
from repro.scenarios.registry import PreparedScenario, ProtocolSpec


def main() -> None:
    print("=== Act 1: check the registry ===")
    report = analyze_all(sizes=[6, 8])
    for analysis in report.analyses:
        budget = analysis.budget
        print(
            f"{analysis.protocol:<20} n={analysis.n:<3} "
            f"width {budget.observed:>3} <= {budget.allowed:<4} "
            f"[{analysis.protocol and budget.detail.split(';')[0]}]"
        )
    gaps = [f for f in check_registry() if f.kind == "unsupported"]
    print(f"registry: {len(gaps)} honest gaps, 0 contradictions")
    assert report.ok

    print()
    print("=== Act 2: catch an over-budget protocol ===")

    def wide(ctx):
        yield Outbox.broadcast(Bits.from_uint(0, 3 * ctx.n))  # Θ(n) bits!
        return None

    def prepare(n, graph, rng):
        return PreparedScenario(
            network_kwargs=dict(n=n, bandwidth=3 * n, mode=Mode.BROADCAST),
            programs={"generator": wide},
            inputs=None,
            summarize=lambda result: result.rounds,
        )

    spec = ProtocolSpec(
        name="over_budget_demo",
        description="sends 3n-bit words against a 4*log(n) budget",
        mode=Mode.BROADCAST,
        engines=("legacy",),
        prepare=prepare,
        bandwidth_budget=BandwidthBudget(log_coeff=4),
    )
    analysis = analyze_protocol(spec, 8)
    print(f"budget check: {analysis.budget.detail}")
    for violation in analysis.violations:
        print(f"violation: {violation}")
    assert not analysis.ok

    PROTOCOLS[spec.name] = spec
    try:
        (cell,) = ScenarioMatrix([spec.name], ["gnp"], [8], engines=["legacy"]).run().cells
    finally:
        del PROTOCOLS[spec.name]
    print(f"sweep cell: {cell.status}, {cell.error} (rounds run: {cell.rounds})")
    assert cell.error_type == "BandwidthExceededError" and cell.rounds is None

    print()
    print("Every width checked from prepare alone: model-breaking widths")
    print("are caught before a single round runs, by the analyzer and by")
    print("every sweep.")


if __name__ == "__main__":
    main()
