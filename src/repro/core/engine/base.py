"""The :class:`Engine` interface every execution backend implements.

An engine is a *stateless* strategy object: all per-network state (the
kernel schedule cache, RNG state bundles, kernel lane buffers,
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
docs and tests, and ``supports_checkpoint`` selects between a backend's
native snapshots and the replay-restore path.

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
    #: Can snapshot a run mid-execution and restore it at a round
    #: boundary (see :mod:`repro.core.checkpoint`).  Backends without
    #: native support still honour checkpoint/resume requests through
    #: the deterministic replay-restore path — honestly reported as
    #: ``mode='replay'`` on the result.
    supports_checkpoint: bool = False

    # -- front door ------------------------------------------------------

    def run(
        self,
        network: Any,
        program: Callable,
        inputs: Optional[Sequence[Any]] = None,
        *,
        checkpoint: Any = None,
        resume_from: Any = None,
    ) -> Any:
        """Execute ``program`` once on ``network`` and return its
        :class:`~repro.core.network.RunResult`.

        ``checkpoint`` is an optional
        :class:`~repro.core.checkpoint.CheckpointPolicy`; ``resume_from``
        is ``"auto"``, a snapshot path, or a loaded
        :class:`~repro.core.checkpoint.RunCheckpoint`.  With both left
        ``None`` (the default) the call takes exactly the pre-checkpoint
        hot path."""
        self.check_program(network, program)
        network._check_inputs(inputs)
        if checkpoint is None and resume_from is None:
            return self._run(network, program, inputs)
        from repro.core.checkpoint import CheckpointSession

        session = CheckpointSession(
            self, network, program, inputs, checkpoint, resume_from
        )
        if not self.supports_checkpoint:
            return session.run_replay_restore(
                lambda: self._run(network, program, inputs)
            )
        return self._run_checkpointed(network, program, inputs, session)

    def run_many(
        self,
        network: Any,
        program: Callable,
        inputs_list: Sequence[Optional[Sequence[Any]]],
        *,
        checkpoint: Any = None,
        resume_from: Any = None,
    ) -> List[Any]:
        """Execute ``program`` once per entry of ``inputs_list``,
        byte-identical to sequential :meth:`run` calls.  Checkpointing
        snapshots at instance boundaries (the kernel engine additionally
        at its K-chunk boundaries)."""
        self.check_program(network, program)
        inputs_list = list(inputs_list)
        for inputs in inputs_list:
            network._check_inputs(inputs)
        if checkpoint is None and resume_from is None:
            return self._run_many(network, program, inputs_list)
        from repro.core.checkpoint import CheckpointSession

        session = CheckpointSession(
            self, network, program, list(inputs_list), checkpoint,
            resume_from, flavor=f"run_many/{len(inputs_list)}",
        )
        if not self.supports_checkpoint:
            return session.run_replay_restore_many(
                lambda: self._run_many(network, program, inputs_list)
            )
        return self._run_many_checkpointed(
            network, program, inputs_list, session
        )

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

    def _run_checkpointed(
        self, network: Any, program: Callable, inputs, session
    ) -> Any:
        """One checkpointed execution.  Backends that declare
        ``supports_checkpoint=True`` must implement this: honour the
        session's resume payload, call ``session.maybe_snapshot`` at
        every round boundary, and return ``session.finish(result)``."""
        raise NotImplementedError(
            f"{self.name!r} declares supports_checkpoint but does not "
            "implement _run_checkpointed"
        )

    def _run_many_checkpointed(
        self, network: Any, program: Callable, inputs_list, session
    ) -> List[Any]:
        """Checkpointed ``run_many``: the default snapshots the list of
        completed :class:`RunResult`\\ s at every *instance* boundary
        (one pickled blob), restores by skipping the completed prefix,
        and runs the remaining instances through the ordinary
        :meth:`_run`.  Backends with a cheaper natural boundary (the
        kernel engine's K-chunks) override it."""
        import pickle

        session.raise_if_preempted_at_start()
        completed: List[Any] = []
        ckpt = session.resume_checkpoint()
        if ckpt is not None:
            if (
                ckpt.meta.get("kind") != "instances"
                or ckpt.round_index > len(inputs_list)
            ):
                session.discard_resume(
                    "restore-failed",
                    "snapshot does not describe an instance boundary "
                    "of this sweep",
                )
            else:
                try:
                    completed = list(pickle.loads(ckpt.blobs["results"]))
                except Exception as exc:  # noqa: BLE001 - treat as corrupt
                    session.discard_resume(
                        "restore-failed",
                        f"results blob undecodable: {exc}",
                    )
                    completed = []
                else:
                    session.mark_resumed(ckpt.round_index)
        for index in range(len(completed), len(inputs_list)):
            result = self._run(network, program, inputs_list[index])
            completed.append(result)
            session.note_round()
            done = len(completed)

            def build(snapshot=tuple(completed)):
                return (
                    {},
                    {"results": pickle.dumps(list(snapshot))},
                    {"instances": len(snapshot)},
                    {"kind": "instances"},
                )

            session.maybe_snapshot(
                done, build, final_round=done == len(inputs_list)
            )
        return session.finish_many(completed)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"
