"""Chaos run: the same protocol under the same seeded fault schedule,
run after run — and a self-checking sweep that proves the faults were
noticed.

Three acts:

1. A broadcast max-protocol runs twice under a deterministic
   ``FaultPlan`` (drops + bit-flips); both runs see the *identical*
   fault schedule and produce identical outputs and fault event logs.
2. The same plan with resilience turned on: an acked retransmit phase
   recovers dropped payloads, a redundant (majority-vote) broadcast
   outvotes corrupted ones, and the network's ``max_rounds`` bound
   serves as a watchdog on the whole run.
3. A ``ScenarioMatrix`` chaos sweep on the legacy engine: every cell
   runs faulted and clean, is checked against its clean run and its
   validator, and the report shows each injected fault was detected —
   no silent passes.

Run:  PYTHONPATH=src python examples/chaos_run.py
"""

from __future__ import annotations

from repro.core import Bits, Mode, Network
from repro.core.faults import FaultPlan
from repro.core.phases import (
    transmit_broadcast,
    transmit_broadcast_redundant,
)


def max_protocol(value_bits, resilient=False):
    def program(ctx):
        payload = Bits.from_uint(ctx.input, value_bits)
        if resilient:
            received = yield from transmit_broadcast_redundant(
                ctx, payload, max_bits=value_bits, copies=3
            )
        else:
            received = yield from transmit_broadcast(
                ctx, payload, max_bits=value_bits
            )
        values = {ctx.node_id: ctx.input}
        for sender, bits in received.items():
            values[sender] = bits.to_uint()
        return max(values.values())

    return program


def act_one_identical_schedules(n, inputs, plan):
    print("=== 1. one seeded schedule, every run ===")
    first, second = (
        Network(n=n, bandwidth=8, mode=Mode.BROADCAST, fault_plan=plan).run(
            max_protocol(12), inputs=inputs
        )
        for _ in range(2)
    )
    assert first.outputs == second.outputs
    assert first.faults == second.faults
    print(f"true max        : {max(inputs)}")
    print(f"chaotic outputs : {sorted(set(first.outputs))} (both runs agree)")
    print(f"injected faults : {len(first.faults)}")
    for event in first.faults[:5]:
        print(f"  round {event.round}: {event.kind} on node {event.src}"
              + (f" (bit {event.detail})" if event.kind == "corrupt" else ""))
    return first


def act_two_resilience(n, inputs, plan):
    print("\n=== 2. the same chaos, resilient phases + watchdog ===")
    network = Network(
        n=n, bandwidth=8, mode=Mode.BROADCAST, fault_plan=plan, max_rounds=64
    )
    result = network.run(max_protocol(12, resilient=True), inputs=inputs)
    wrong = sum(1 for out in result.outputs if out != max(inputs))
    print(f"majority-vote outputs: {sorted(set(result.outputs))}")
    print(f"wrong answers        : {wrong} of {n} "
          f"({len(result.faults)} faults injected, {result.rounds} rounds)")
    assert wrong == 0, "3 copies should outvote this corruption rate"


def act_three_self_checking_sweep():
    print("\n=== 3. self-checking chaos sweep ===")
    from repro.scenarios import ScenarioMatrix

    plan = FaultPlan(seed=11, corrupt_rate=0.08, drop_rate=0.05)
    matrix = ScenarioMatrix(
        protocols=["routing"],
        families=["gnp"],
        sizes=[6, 8],
        engines=["legacy"],
        seed=3,
        fault_plan=plan,
    )
    result = matrix.run()
    injected = result.injected_cells()
    silent = result.silent_passes()
    print(f"cells injected : {len(injected)}")
    print(f"silent passes  : {len(silent)}  (must be 0)")
    for report in result.fault_reports():
        print(f"  {report['protocol']}/n={report['n']}/{report['engine']}: "
              f"{', '.join(report['flags'])}")
    assert injected and not silent


def main():
    n = 8
    inputs = [(v * 613) % 3001 for v in range(n)]
    plan = FaultPlan(seed=11, drop_rate=0.06, corrupt_rate=0.06)
    act_one_identical_schedules(n, inputs, plan)
    act_two_resilience(n, inputs, plan)
    act_three_self_checking_sweep()
    print("\nevery injected fault was detected; resilient phases recovered.")


if __name__ == "__main__":
    main()
