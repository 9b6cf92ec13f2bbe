"""The kernel engine: declared SPMD rounds, zero generator steps.

Executes :class:`~repro.core.kernels.KernelProgram`\\ s only — programs
that declare their round structure up front instead of yielding it.
Declaration makes them oblivious by construction, so the engine compiles
the structure straight into a
:class:`~repro.core.compiled.CompiledSchedule` (no callback runs) and
executes every instance through stacked ``K × count`` payload matrices
(:func:`repro.core.kernels.execute`).  Generator programs are rejected:
a generator's round structure is only observable by running it, which is
exactly what this backend exists to avoid.

Schedules are cached on the network keyed by the program *object*
(identity — a stale hit is impossible) and evicted when the network's
bandwidth or mode is reassigned; with ``Network(schedule_cache=...)``
they are also persisted across processes
(:mod:`repro.core.engine.schedule_cache`).  ``run_many`` sweeps are
chunked so the stacked buffers stay within ~64 MB.
"""

from __future__ import annotations

from typing import Any, List

from repro.core.engine.base import Engine
from repro.core.engine.delivery import batch_chunk_size

__all__ = ["KernelEngine"]


class KernelEngine(Engine):
    """Vectorized executor for declared kernel programs."""

    name = "kernel"
    supports_generator_programs = False
    supports_kernel_programs = True
    supports_transcript = True
    # Kernel state is a dict of stacked arrays: snapshots are native
    # (arrays verbatim + pickled rest) at every round boundary in run(),
    # and at K-chunk boundaries in run_many().
    supports_checkpoint = True

    def _run(self, network: Any, program, inputs) -> Any:
        return self._execute(network, program, [inputs])[0]

    def _run_checkpointed(self, network: Any, program, inputs, session) -> Any:
        result = self._execute(network, program, [inputs], session=session)[0]
        return session.finish(result)

    def _run_many_checkpointed(
        self, network: Any, program, inputs_list, session
    ) -> List[Any]:
        """Checkpointed sweep: snapshot the completed results at every
        K-chunk boundary; restore by skipping the completed chunks."""
        import pickle

        session.raise_if_preempted_at_start()
        chunk_size = batch_chunk_size(network.n)
        starts = list(range(0, len(inputs_list), chunk_size))
        completed: List[Any] = []
        done_chunks = 0
        ckpt = session.resume_checkpoint()
        if ckpt is not None:
            if (
                ckpt.meta.get("kind") != "kernel-chunks"
                or ckpt.meta.get("chunk_size") != chunk_size
                or ckpt.round_index > len(starts)
            ):
                session.discard_resume(
                    "restore-failed",
                    "snapshot does not match this sweep's chunking",
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
                    done_chunks = ckpt.round_index
                    session.mark_resumed(done_chunks)
        for ci in range(done_chunks, len(starts)):
            start = starts[ci]
            chunk = inputs_list[start : start + chunk_size]
            completed.extend(self._execute(network, program, chunk))
            session.note_round()

            def build(snapshot=tuple(completed), done=ci + 1):
                return (
                    {},
                    {"results": pickle.dumps(list(snapshot))},
                    {"chunks": done, "instances": len(snapshot)},
                    {"kind": "kernel-chunks", "chunk_size": chunk_size},
                )

            session.maybe_snapshot(
                ci + 1, build, final_round=ci + 1 == len(starts)
            )
        return session.finish_many(completed)

    def _run_many(self, network: Any, program, inputs_list) -> List[Any]:
        # Kernel programs batch natively: all K instances move through
        # each round as one stacked matrix.  Chunk to bound the K×n×n
        # buffers.
        results: List[Any] = []
        chunk_size = batch_chunk_size(network.n)
        for start in range(0, len(inputs_list), chunk_size):
            chunk = inputs_list[start : start + chunk_size]
            results.extend(self._execute(network, program, chunk))
        return results

    def _execute(
        self, network: Any, program, inputs_list: List[Any], session=None
    ) -> List[Any]:
        """Compile ``program``'s declared structure on first use (cached
        keyed by the program object), then run every instance through
        the stacked kernel loop.  In ``schedule_stats`` a fresh compile
        counts once and every instance executed against an already
        compiled schedule counts as a replay."""
        from repro.core import kernels

        compiled = network._compiled_entry(program)
        compiled_here = False
        if compiled is None:
            compiled = self._load_cached(network, program)
            if compiled is None:
                compiled = kernels.compile_program(program, network)
                compiled_here = True
                self._store_cached(network, program, compiled)
            if len(network._compiled) >= 32:
                network._compiled.pop(next(iter(network._compiled)))
            network._compiled[program] = compiled
        results = kernels.execute(
            network, program, compiled, inputs_list, session=session
        )
        if compiled_here:
            # A persistent-cache hit is neither a compile nor an extra
            # replay credit: only a genuinely fresh compilation counts,
            # so a warm sweep reports zero compiles.
            network.schedule_stats["compiled"] += 1
            replays = len(inputs_list) - 1
        else:
            replays = len(inputs_list)
        network.schedule_stats["replayed"] += replays
        compiled.replays += replays
        return results

    # -- persistent cache ------------------------------------------------

    def _load_cached(self, network: Any, program):
        """Rebuild this program's exec rounds from the cross-process
        store.  Kernel execution trusts its structures, so
        :func:`repro.core.kernels.rebuild_kernel_schedule` verifies every
        loaded structure against the program's declared rounds byte for
        byte before anything is trusted — a mismatch is just a miss,
        answered by a fresh compile."""
        cache = network.schedule_cache
        if cache is None:
            return None
        from repro.core import kernels
        from repro.core.engine.schedule_cache import program_digest

        digest, full_key = program_digest(program, network)
        loaded = cache.load(digest, full_key, network)
        if loaded is None:
            return None
        rebuilt = kernels.rebuild_kernel_schedule(program, network, loaded)
        if rebuilt is None:
            cache.evict(digest)
        return rebuilt

    def _store_cached(self, network: Any, program, compiled) -> None:
        cache = network.schedule_cache
        if cache is None:
            return
        from repro.core.engine.schedule_cache import program_digest

        digest, full_key = program_digest(program, network)
        cache.store(digest, full_key, compiled, network, program)
