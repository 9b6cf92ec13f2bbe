"""The execution engines of the congested-clique network.

The :class:`~repro.core.network.Network` front door checks inputs and
owns all cross-run state (compiled kernel schedules, RNG bundles,
stats); *how* a program executes is one of three engine modules, each
exposing ``run_many(network, program, inputs_list)``:

========  ==========================================================
engine    strategy
========  ==========================================================
legacy    reference loop — fresh dicts each round, scalar delivery
fast      legacy's delivery plus a unicast bulk lane
kernel    declared SPMD rounds compiled once, one payload matrix per
          round over all instances (the one compiled path)
========  ==========================================================

:data:`ENGINES` is the whole dispatch: a kernel program runs on
``kernel``, a generator program on the engine the network names.  Every
engine produces results byte-identical to the legacy loop for the
programs it runs, and an engine failure propagates to the caller.

The fully validating scalar delivery path lives in
:mod:`repro.core.engine.delivery`, shared by legacy and fast so both
charge bits and raise protocol errors identically; on both, a
CLIQUE-BCAST round is one board that every node reads.  Under an active
:class:`~repro.core.faults.FaultPlan` each engine applies the run's
:class:`~repro.core.faults.FaultSession` to what it delivers, so one
deterministic chaos schedule hits every engine.
"""

from repro.core.engine import fast, kernel, legacy

#: Engine name -> engine module.  Modules rather than functions, so a
#: patched module attribute takes effect on the next run.
ENGINES = {"legacy": legacy, "fast": fast, "kernel": kernel}

__all__ = ["ENGINES"]
