"""The static protocol verifier, end to end.

Two acts:

1. check the registry — every shipped protocol's communication
   structure (declared for kernel programs, traced for generator
   programs) and bandwidth budget verified;
2. catch an over-budget protocol whose messages outgrow its declared
   O(log n) envelope.

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
from repro.scenarios.registry import PreparedScenario, ProtocolSpec


def main() -> None:
    print("=== Act 1: check the registry ===")
    report = analyze_all(sizes=[6, 8])
    for analysis in report.analyses:
        budget = analysis.budget
        print(
            f"{analysis.protocol:<20} n={analysis.n:<3} "
            f"rounds {analysis.rounds:>4}  "
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

    print()
    print("Every claim checked before a single experiment ran: that is")
    print("the point — model-breaking widths are caught at analysis time,")
    print("not as a failed sweep.")


if __name__ == "__main__":
    main()
