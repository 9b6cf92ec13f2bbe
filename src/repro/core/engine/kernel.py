"""The kernel engine: declared SPMD rounds, zero generator steps.

Executes :class:`~repro.core.kernels.KernelProgram`\\ s only — programs
that declare their round structure up front instead of yielding it.
Each round is compiled where :class:`~repro.core.kernels.KernelBuilder`
declares it, so the engine only checks the program against the network
and moves every instance through each round as one ``K × count``
payload matrix (:func:`repro.core.kernels.execute`); it compiles and
caches nothing.  It runs no generator programs: a generator's round
structure is only observable by running it, which is exactly what this
engine exists to avoid, so the network rejects a generator program on
``engine="kernel"``.
"""

from __future__ import annotations

from typing import Any, List

__all__ = ["run_many"]


def run_many(network: Any, program, inputs_list: List[Any]) -> List[Any]:
    """Run the kernel program once per entry of ``inputs_list``, all
    instances in lockstep."""
    # Deferred: the kernel layer imports numpy, and `import repro.core`
    # must not.
    from repro.core import kernels

    return kernels.execute(network, program, inputs_list)
