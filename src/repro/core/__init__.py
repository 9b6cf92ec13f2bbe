"""Core substrate: bit-level messages and the synchronous network engine."""

from repro.core.bits import BitReader, Bits, BitWriter
from repro.core.errors import (
    BandwidthExceededError,
    DecodeError,
    MaxRoundsExceededError,
    ProtocolError,
    ReproError,
    TopologyError,
)
from repro.core.network import (
    Context,
    Inbox,
    Mode,
    Network,
    Outbox,
    RunResult,
    inbox_uints,
    run_protocol,
)
from repro.core.phases import (
    idle,
    kernel_transmit_broadcast,
    kernel_transmit_unicast,
    phase_length,
    transmit_broadcast,
    transmit_broadcast_kernel_program,
    transmit_broadcast_uints,
    transmit_unicast,
    transmit_unicast_kernel_program,
)
# The kernel layer is numpy-backed at module level; load it lazily
# (PEP 562) so `import repro.core` stays numpy-free until a kernel
# program is actually built — the same invariant the kernel engine's
# deferred import preserves.
_KERNEL_EXPORTS = (
    "KernelBuilder",
    "KernelContext",
    "KernelProgram",
)


def __getattr__(name):
    if name in _KERNEL_EXPORTS:
        from repro.core import kernels

        return getattr(kernels, name)
    raise AttributeError(f"module 'repro.core' has no attribute {name!r}")


__all__ = [
    "Bits",
    "BitReader",
    "BitWriter",
    "ReproError",
    "BandwidthExceededError",
    "TopologyError",
    "ProtocolError",
    "MaxRoundsExceededError",
    "DecodeError",
    "Mode",
    "Network",
    "Context",
    "Inbox",
    "Outbox",
    "RunResult",
    "run_protocol",
    "inbox_uints",
    "phase_length",
    "transmit_unicast",
    "transmit_broadcast",
    "transmit_broadcast_uints",
    "idle",
    "KernelBuilder",
    "KernelContext",
    "KernelProgram",
    "kernel_transmit_unicast",
    "kernel_transmit_broadcast",
    "transmit_unicast_kernel_program",
    "transmit_broadcast_kernel_program",
]
