"""The :class:`Engine` interface every execution backend implements.

An engine is a *stateless* strategy object: all per-network state (the
compiled kernel schedules, RNG state bundles, kernel lane buffers,
``schedule_stats``) lives on the :class:`~repro.core.network.Network`
that is passed into every call, so one engine instance can serve any
number of networks concurrently.  The module-level singletons in
:mod:`repro.core.engine.planner` are the instances the planner hands
out; custom backends (a process pool, a GPU lane) subclass
:class:`Engine`, set the capability flags honestly, and become
selectable by passing the instance as ``Network(engine=...)`` — no new
branch in :meth:`Network.run` required.

Capability flags
----------------

``supports_generator_programs`` / ``supports_kernel_programs`` describe
which program flavours the backend can execute at all; :meth:`Engine.run`
rejects a mismatch with :class:`~repro.core.errors.ProtocolError` before
any node code runs (and the planner's kernel-program rule consults
``supports_kernel_programs`` when honouring an explicitly requested
backend).  ``supports_transcript`` is descriptive metadata for tooling,
docs and tests.

Contract
--------

``run``/``run_many`` must produce :class:`~repro.core.network.RunResult`
objects **byte-identical** to the legacy reference loop
(:class:`~repro.core.engine.legacy.LegacyEngine`) for every program the
backend accepts: same outputs, same round count, same bit accounting,
same exception types on protocol violations.  The equivalence suites
(``tests/test_engine_equivalence.py``, ``tests/test_kernels.py``,
``tests/test_kernel_protocols.py``) pin this contract.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence

from repro.core.errors import ProtocolError

__all__ = ["Engine", "is_kernel_program"]


def is_kernel_program(program: Any) -> bool:
    """True when ``program`` is a declared
    :class:`~repro.core.kernels.KernelProgram` rather than a generator
    node program."""
    return bool(getattr(program, "is_kernel_program", False))


class Engine:
    """Abstract execution backend for :class:`~repro.core.network.Network`.

    Subclasses implement :meth:`_run` (one instance) and may override
    :meth:`_run_many` (K instances, default: sequential :meth:`_run`
    calls).  The public :meth:`run`/:meth:`run_many` wrappers perform
    the program-flavour check and per-instance input-length validation
    so every backend enforces the same front-door contract.
    """

    #: Short identifier, also the key in the planner's engine registry.
    name: str = "abstract"
    #: Can execute generator-coroutine node programs.
    supports_generator_programs: bool = True
    #: Can execute declared :class:`~repro.core.kernels.KernelProgram`\ s.
    supports_kernel_programs: bool = False
    #: Honours ``record_transcript`` networks.
    supports_transcript: bool = True

    # -- front door ------------------------------------------------------

    def run(
        self,
        network: Any,
        program: Callable,
        inputs: Optional[Sequence[Any]] = None,
    ) -> Any:
        """Execute ``program`` once on ``network`` and return its
        :class:`~repro.core.network.RunResult`."""
        self.check_program(network, program)
        network._check_inputs(inputs)
        return self._run(network, program, inputs)

    def run_many(
        self,
        network: Any,
        program: Callable,
        inputs_list: Sequence[Optional[Sequence[Any]]],
    ) -> List[Any]:
        """Execute ``program`` once per entry of ``inputs_list``,
        byte-identical to sequential :meth:`run` calls."""
        self.check_program(network, program)
        inputs_list = list(inputs_list)
        for inputs in inputs_list:
            network._check_inputs(inputs)
        return self._run_many(network, program, inputs_list)

    def check_program(self, network: Any, program: Callable) -> None:
        """Reject program flavours this backend cannot execute."""
        if is_kernel_program(program):
            if not self.supports_kernel_programs:
                raise ProtocolError(
                    f"the {self.name!r} engine cannot execute kernel "
                    "programs (use the kernel engine, or let the "
                    "planner pick automatically)"
                )
        elif not self.supports_generator_programs:
            raise ProtocolError(
                f"the {self.name!r} engine only executes kernel "
                "programs, got a generator node program"
            )

    # -- backend hooks ---------------------------------------------------

    def _run(self, network: Any, program: Callable, inputs) -> Any:
        raise NotImplementedError

    def _run_many(self, network: Any, program: Callable, inputs_list) -> List[Any]:
        return [self._run(network, program, inputs) for inputs in inputs_list]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"
