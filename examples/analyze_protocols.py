"""A bandwidth budget, checked where the protocol runs.

Every ``ProtocolSpec`` declares a ``BandwidthBudget``: its per-message
width as a function of n.  A scenario sweep checks each prepared
instance's declared width against that budget right after ``prepare``,
so a protocol whose messages outgrow its declared O(log n) envelope
fails its sweep cells before a single round runs.

Run:  PYTHONPATH=src python examples/analyze_protocols.py
"""

from __future__ import annotations

from repro.analysis import BandwidthBudget
from repro.core import Bits, Mode, Outbox
from repro.scenarios import PROTOCOLS, ScenarioMatrix
from repro.scenarios.registry import PreparedScenario, ProtocolSpec


def main() -> None:
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
        engines=("legacy",),
        prepare=prepare,
        bandwidth_budget=BandwidthBudget(log_coeff=4),
    )
    print(f"declared budget: {spec.bandwidth_budget.describe()} bits per message")

    PROTOCOLS[spec.name] = spec
    try:
        (cell,) = ScenarioMatrix([spec.name], ["gnp"], [8], engines=["legacy"]).run().cells
    finally:
        del PROTOCOLS[spec.name]
    print(f"sweep cell: {cell.status}, {cell.error} (rounds run: {cell.rounds})")
    assert cell.error_type == "BandwidthExceededError" and cell.rounds is None

    print()
    print("The width is checked from prepare alone: a model-breaking width")
    print("is caught before a single round runs, by every sweep.")


if __name__ == "__main__":
    main()
