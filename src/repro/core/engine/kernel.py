"""The kernel engine: declared SPMD rounds, zero generator steps.

Executes :class:`~repro.core.kernels.KernelProgram`\\ s only — programs
that declare their round structure up front instead of yielding it.
Declaration makes them oblivious by construction, so the engine compiles
the structure straight into a
:class:`~repro.core.compiled.CompiledSchedule` (no callback runs) and
executes every instance through stacked ``K × count`` payload matrices
(:func:`repro.core.kernels.execute`).  It runs no generator programs:
a generator's round structure is only observable by running it, which is
exactly what this engine exists to avoid, so the network rejects a
generator program on ``engine="kernel"``.

Schedules are cached on the network keyed by the program *object*
(identity — a stale hit is impossible) and evicted when the network's
bandwidth or mode is reassigned.  ``run_many`` sweeps are chunked so
the stacked buffers stay within ~64 MB.
"""

from __future__ import annotations

from typing import Any, List

from repro.core.engine.delivery import batch_chunk_size

__all__ = ["run_many"]


def run_many(network: Any, program, inputs_list: List[Any]) -> List[Any]:
    """Run the kernel program once per entry of ``inputs_list``.

    Kernel programs batch natively: all K instances move through each
    round as one stacked matrix.  Chunk to bound the K×n×n buffers.
    """
    results: List[Any] = []
    chunk_size = batch_chunk_size(network.n)
    for start in range(0, len(inputs_list), chunk_size):
        chunk = inputs_list[start : start + chunk_size]
        results.extend(_execute(network, program, chunk))
    return results


def _execute(network: Any, program, inputs_list: List[Any]) -> List[Any]:
    """Compile ``program``'s declared structure on first use (cached
    keyed by the program object), then run every instance through the
    stacked kernel loop.  In ``schedule_stats`` a fresh compile counts
    once and every instance executed against an already compiled
    schedule counts as a replay."""
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
