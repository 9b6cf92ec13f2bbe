"""The kernel engine: declared SPMD rounds, zero generator steps.

Executes :class:`~repro.core.kernels.KernelProgram`\\ s only — programs
that declare their round structure up front instead of yielding it.
Declaration makes them oblivious by construction, so the engine compiles
the structure straight into a
:class:`~repro.core.kernels.CompiledSchedule` (no callback runs) and
moves every instance through each round as one ``K × count`` payload
matrix (:func:`repro.core.kernels.execute`).  It runs no generator
programs: a generator's round structure is only observable by running
it, which is exactly what this engine exists to avoid, so the network
rejects a generator program on ``engine="kernel"``.

Schedules are cached on the network keyed by the program *object*
(identity — a stale hit is impossible) and evicted when the network's
bandwidth or mode is reassigned.
"""

from __future__ import annotations

from typing import Any, List

__all__ = ["run_many"]


def run_many(network: Any, program, inputs_list: List[Any]) -> List[Any]:
    """Run the kernel program once per entry of ``inputs_list``, all
    instances in lockstep.

    The declared structure compiles on first use (cached keyed by the
    program object).  In ``schedule_stats`` a fresh compile counts once
    and every instance executed against an already compiled schedule
    counts as a replay."""
    from repro.core import kernels

    compiled = network._compiled_entry(program)
    compiled_here = compiled is None
    if compiled_here:
        compiled = kernels.compile_program(program, network)
        if len(network._compiled) >= 32:
            network._compiled.pop(next(iter(network._compiled)))
        network._compiled[program] = compiled
    results = kernels.execute(network, program, compiled, inputs_list)
    if compiled_here:
        network.schedule_stats["compiled"] += 1
        replays = len(inputs_list) - 1
    else:
        replays = len(inputs_list)
    network.schedule_stats["replayed"] += replays
    return results
