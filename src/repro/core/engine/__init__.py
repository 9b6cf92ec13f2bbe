"""Pluggable execution backends for the congested-clique network.

This package is the engine subsystem extracted from
:mod:`repro.core.network`.  The :class:`~repro.core.network.Network`
front door validates inputs and owns all cross-run state (compiled
kernel schedules, RNG bundles, stats); *how* a program executes is delegated
through an :class:`~repro.core.engine.planner.ExecutionPlanner` to one
of the backends here:

========  ==========================================================
backend   strategy
========  ==========================================================
legacy    reference loop — fresh dicts each round, scalar delivery
fast      zero-churn loop with bulk lanes
kernel    declared SPMD rounds compiled once, executed as stacked
          matrix ops (the one compiled path)
========  ==========================================================

The planner contract: selection happens once per ``run``/``run_many``
call, purely from ``(network, program)`` — kernel programs go to the
kernel engine, an explicitly requested backend (``Network(engine=...)``,
string name or :class:`Engine` instance) is honoured, everything else
takes the fast engine.  Every backend must produce results
byte-identical to :class:`~repro.core.engine.legacy.LegacyEngine` for
the programs it accepts; capability flags on :class:`Engine` declare
what it accepts.  Adding a backend means subclassing
:class:`Engine` and passing an instance as ``engine=`` — not adding a
branch to ``Network.run``.

Delivery is shared, not per-engine: the lanes in
:mod:`repro.core.fastlane` plug into
:class:`~repro.core.engine.delivery.DeliveryBackend`, and the fully
validating scalar paths live in :mod:`repro.core.engine.delivery` so
every backend charges bits and raises protocol errors identically.

Resilience rides the same seams: a
:class:`~repro.core.faults.FaultPlan` on the network swaps the fast
engine's backend for the fault-applying
:class:`~repro.core.faults.FaultyDeliveryBackend` (the legacy loop and
kernel executor apply the same per-run
:class:`~repro.core.faults.FaultSession` to their own buffers), so an
identical deterministic chaos schedule hits every backend; and the
planner's ``execute``/``execute_many`` front door adds the graceful
kernel → fast → legacy degradation chain for engine failures.
"""

from repro.core.engine.base import Engine, is_kernel_program
from repro.core.engine.delivery import (
    DeliveryBackend,
    deliver_outbox,
    deliver_round_scalar,
)
from repro.core.engine.fast import FastEngine
from repro.core.engine.kernel import KernelEngine
from repro.core.engine.legacy import LegacyEngine
from repro.core.engine.planner import (
    DEFAULT_PLANNER,
    ENGINES,
    FAST_ENGINE,
    KERNEL_ENGINE,
    LEGACY_ENGINE,
    ExecutionPlanner,
    resolve_engine,
)

__all__ = [
    "Engine",
    "is_kernel_program",
    "DeliveryBackend",
    "deliver_outbox",
    "deliver_round_scalar",
    "LegacyEngine",
    "FastEngine",
    "KernelEngine",
    "ExecutionPlanner",
    "resolve_engine",
    "ENGINES",
    "LEGACY_ENGINE",
    "FAST_ENGINE",
    "KERNEL_ENGINE",
    "DEFAULT_PLANNER",
]
