"""The execution engines of the congested-clique network.

The :class:`~repro.core.network.Network` front door checks inputs and
owns the only cross-run state, its seeded coin states; *how* a program
executes is one of two engine modules, each exposing
``run_many(network, program, inputs_list)``:

========  ==========================================================
engine    strategy
========  ==========================================================
legacy    reference loop for generator programs — fresh dicts each
          round, validating delivery; fixed-width rounds cross the
          wire as ints
kernel    declared SPMD rounds, compiled where they are declared and
          checked against the network on every run; one payload
          matrix per round over all instances
========  ==========================================================

:data:`ENGINES` is the whole dispatch: a kernel program runs on
``kernel`` and a generator program on ``legacy``, and a network named
``kernel`` rejects a generator program.  A kernel program's results are
byte-identical to those of its generator twin on the legacy loop, and
an engine failure propagates to the caller.

The fully validating delivery path lives in
:mod:`repro.core.engine.delivery`: the generator loop writes each
round through it, as ints where every sender yielded one fixed width
and as ``Bits`` otherwise, and a CLIQUE-BCAST round is one board that
every node reads.  Under an active
:class:`~repro.core.faults.FaultPlan` each engine applies the run's
:class:`~repro.core.faults.FaultSession` to what it delivers, so one
deterministic chaos schedule hits every engine.
"""

from repro.core.engine import kernel, legacy

#: Engine name -> engine module.  Modules rather than functions, so a
#: patched module attribute takes effect on the next run.
ENGINES = {"legacy": legacy, "kernel": kernel}

__all__ = ["ENGINES"]
