"""Kernel programs: whole-network SPMD rounds with zero generator steps.

The generator API runs ``n`` Python coroutines in lockstep; even with
fixed-width rounds crossing the wire as ints, every round still pays
``n`` generator resumptions on the hot path.  The algebraic congested-clique
literature (Censor-Hillel et al.; Le Gall) instead treats a round as one
matrix operation over *all* nodes simultaneously — and an oblivious
protocol can be executed exactly that way.

A :class:`KernelProgram` is a declared sequence of *round kernels*.
Each round names its structure up front — which nodes send how many
bits to whom (:meth:`KernelBuilder.unicast_round`) or which nodes write
the blackboard (:meth:`KernelBuilder.broadcast_round`) — and supplies
two callbacks:

* ``send(state) -> values`` — one ``K × count`` array (instances ×
  messages, flat structure order) holding every node's payloads for the
  round: a single numpy expression replaces ``n`` generator resumptions,
  for all ``K`` instances of a :meth:`~repro.core.network.Network.run_many`
  sweep at once.
* ``recv(state, delivered)`` — consumes the round's delivered ``K ×
  count`` matrix, in the same structure order: what ``send`` produced,
  edited by an active fault plan (:mod:`repro.core.faults`).

``state`` is a plain dict the program threads through the run (per-node
data lives in arrays with a leading instance axis).  Because the round
structure is declared rather than observed, a kernel program is
*oblivious by construction*: it compiles directly into a
:class:`CompiledSchedule` — per-round flat sender/receiver index
arrays, bit totals, validation — without executing any callback, and
every execution replays that schedule.  Round and bit accounting is
byte-identical to the generator engine's: equivalence suites pin the
migrated protocols (transmit phases, Lenzen routing, the Theorem 2
simulation, matmul triangle detection) to their generator reference
implementations.

Discipline
----------

The runner hands each ``recv`` the *global* delivered matrix — kernel
code is trusted to honour per-node visibility (read only the columns
addressed to the node whose state it updates), exactly as generator
programs are trusted not to share Python state between nodes.  The
equivalence tests are the enforcement: a kernel that peeks at bits that
were never sent cannot stay byte-identical to its honest generator twin
under fuzzed inputs.  The engine copies the array ``send`` returns
before it validates it, and the delivered matrix belongs to the
program: either side may keep or mutate its array without affecting
the other.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.bits import Bits
from repro.core.errors import (
    BandwidthExceededError,
    MaxRoundsExceededError,
    ProtocolError,
    RoundLimitExceeded,
    TopologyError,
)
from repro.core.fastlane import NUMERIC_WIDTH_LIMIT
from repro.core.network import CoinStates, Mode, RoundRecord, RunResult

__all__ = [
    "KernelContext",
    "UnicastRound",
    "BroadcastRound",
    "KernelProgram",
    "KernelBuilder",
    "CompiledSchedule",
    "compile_program",
    "execute",
]


class KernelContext:
    """What a kernel program may know about the run besides its inputs.

    ``inputs_list[k][v]`` is node ``v``'s input in instance ``k`` (an
    entry of ``inputs_list`` may be ``None`` for an input-free
    instance).  :meth:`shared_rng` / :meth:`node_rng` return *fresh
    clones* of the engine's seed-derived streams, so every call starts
    from the same state the generator engine hands each node — draws
    made for one purpose never perturb another (mirroring the
    per-node-identical-streams contract of
    :class:`~repro.core.network.Context`).
    """

    __slots__ = ("n", "bandwidth", "mode", "instances", "inputs_list", "_coins")

    def __init__(
        self,
        n: int,
        bandwidth: int,
        mode: Mode,
        inputs_list: Sequence[Any],
        coins: CoinStates,
    ) -> None:
        self.n = n
        self.bandwidth = bandwidth
        self.mode = mode
        self.instances = len(inputs_list)
        self.inputs_list = inputs_list
        self._coins = coins

    def shared_rng(self) -> random.Random:
        """A fresh clone of the public coin (identical on every call and
        in every instance, like each generator node's ``ctx.shared_rng``)."""
        return self._coins.shared_rng()

    def node_rng(self, v: int) -> random.Random:
        """A fresh clone of node ``v``'s private coin."""
        return self._coins.node_rng(v)


class UnicastRound:
    """Declared structure + kernels of one fixed-width unicast round."""

    __slots__ = ("pairs", "width", "widths", "send", "recv")

    def __init__(self, pairs, width, widths, send, recv) -> None:
        self.pairs = pairs  # ((sender, dests-array), ...) node order
        self.width = width  # max width (selects storage dtype)
        self.widths = widths  # per-message widths, or None if uniform
        self.send = send
        self.recv = recv


class BroadcastRound:
    """Declared structure + kernels of one fixed-width broadcast round."""

    __slots__ = ("writers", "width", "send", "recv")

    def __init__(self, writers, width, send, recv) -> None:
        self.writers = writers  # np.intp array of writer ids, ascending
        self.width = width
        self.send = send
        self.recv = recv


class KernelProgram:
    """A fully declared SPMD protocol: init hooks, round specs, finish.

    Build with :class:`KernelBuilder`.  Pass instances directly to
    :meth:`~repro.core.network.Network.run` /
    :meth:`~repro.core.network.Network.run_many` — the engine dispatches
    on :attr:`is_kernel_program`.
    """

    is_kernel_program = True

    __slots__ = ("n", "mode", "bandwidth", "rounds", "init_hooks", "finish", "name")

    def __init__(self, n, mode, bandwidth, rounds, init_hooks, finish, name) -> None:
        self.n = n
        self.mode = mode
        self.bandwidth = bandwidth
        self.rounds = rounds
        self.init_hooks = init_hooks
        self.finish = finish
        self.name = name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"KernelProgram({self.name!r}, n={self.n}, "
            f"rounds={len(self.rounds)})"
        )


def _has_duplicates(ordered: np.ndarray) -> bool:
    """Whether the sorted ``ordered`` repeats a value (a sort and one
    comparison: ``np.unique`` would import ``numpy.ma`` on its first
    call)."""
    return bool((ordered[1:] == ordered[:-1]).any())


def _as_dests(dests, sender: int, n: int) -> np.ndarray:
    arr = np.array(dests, dtype=np.intp).reshape(-1)
    if arr.size:
        ordered = np.sort(arr)
        if (arr == sender).any():
            raise TopologyError(f"node {sender} sent a message to itself")
        if ordered[0] < 0 or ordered[-1] >= n:
            raise TopologyError(
                f"node {sender} sent to an out-of-range destination"
            )
        if _has_duplicates(ordered):
            raise ProtocolError(
                f"node {sender} listed a destination twice in a kernel round"
            )
    arr.flags.writeable = False
    return arr


class KernelBuilder:
    """Accumulates the declared rounds of a :class:`KernelProgram`.

    Structural validation (self-sends, range, duplicate destinations)
    happens here, at declaration; network-dependent validation (mode,
    bandwidth, topology) happens once per network when the program is
    compiled.  ``on_init`` hooks run before round 0 with
    ``(state, kctx)``; ``before`` attaches a prologue to the *next*
    appended round's ``send`` (phase helpers use it to stage data at a
    phase boundary).  ``build(finish)`` seals the program; ``finish``
    receives ``(state, kctx)`` and must return per-instance per-node
    outputs (``outputs[k][v]``).
    """

    def __init__(
        self,
        n: int,
        mode: Mode = Mode.UNICAST,
        bandwidth: Optional[int] = None,
    ) -> None:
        if n < 1:
            raise ValueError("need at least one node")
        self.n = n
        self.mode = mode
        # Declared bandwidth: phase helpers need it to fix their round
        # counts at build time (generators read ctx.bandwidth instead).
        # When set, the program only compiles against a network with
        # exactly this bandwidth.
        self.bandwidth = bandwidth
        self.rounds: List[Any] = []
        self._init_hooks: List[Callable] = []
        self._prologues: List[Callable] = []
        self._keys = 0

    def fresh_key(self, prefix: str = "k") -> str:
        """A state-dict key unique within this program, for phase
        helpers that stash phase-local data."""
        self._keys += 1
        return f"{prefix}#{self._keys}"

    def on_init(self, hook: Callable) -> None:
        self._init_hooks.append(hook)

    def before(self, fn: Callable) -> None:
        """Run ``fn(state)`` just before the next appended round's
        ``send`` (once per execution)."""
        self._prologues.append(fn)

    def _wrap_send(self, send: Optional[Callable]) -> Optional[Callable]:
        if not self._prologues:
            return send
        prologues = tuple(self._prologues)
        self._prologues = []

        def wrapped(state, _prologues=prologues, _send=send):
            for fn in _prologues:
                fn(state)
            return _send(state) if _send is not None else None

        return wrapped

    def unicast_round(
        self,
        pairs: Sequence[Tuple[int, Sequence[int]]],
        width: int,
        send: Optional[Callable],
        recv: Optional[Callable] = None,
        widths: Optional[Sequence[int]] = None,
    ) -> None:
        """Declare one unicast round: ``pairs`` lists each non-silent
        sender with its destination vector (any order; normalized to
        ascending sender); all messages are ``width`` bits, or pass a
        flat per-message ``widths`` vector (structure order) for
        heterogeneous rounds."""
        norm: List[Tuple[int, np.ndarray]] = []
        seen = set()
        for sender, dests in pairs:
            sender = int(sender)
            if sender in seen:
                raise ProtocolError(
                    f"node {sender} appears twice in one kernel round"
                )
            seen.add(sender)
            arr = _as_dests(dests, sender, self.n)
            if arr.size:
                norm.append((sender, arr))
        norm.sort(key=lambda pair: pair[0])
        count = sum(arr.size for _, arr in norm)
        widths_arr = None
        if widths is not None:
            widths_arr = np.asarray(widths, dtype=np.int64).reshape(-1).copy()
            if widths_arr.size != count:
                raise ProtocolError(
                    f"{widths_arr.size} widths for {count} messages"
                )
            if widths_arr.size == 0:
                # An empty round has no messages to width: treat like a
                # uniform declaration (width falls back to the param).
                widths_arr = None
            elif int(widths_arr.min()) < 1:
                raise ValueError("fixed-width messages need width >= 1 bit")
            elif int(widths_arr.max()) == int(widths_arr.min()):
                # Degenerate heterogeneous declaration: fold to uniform.
                width = int(widths_arr[0])
                widths_arr = None
            else:
                width = int(widths_arr.max())
                widths_arr.flags.writeable = False
        if width < 1:
            raise ValueError("fixed-width messages need width >= 1 bit")
        self.rounds.append(
            UnicastRound(
                tuple(norm), width, widths_arr, self._wrap_send(send), recv
            )
        )

    def broadcast_round(
        self,
        writers: Sequence[int],
        width: int,
        send: Optional[Callable],
        recv: Optional[Callable] = None,
    ) -> None:
        """Declare one blackboard round: every node in ``writers``
        writes exactly ``width`` bits."""
        if width < 1:
            raise ValueError("fixed-width messages need width >= 1 bit")
        arr = np.asarray(sorted(int(w) for w in writers), dtype=np.intp)
        if arr.size:
            if int(arr.min()) < 0 or int(arr.max()) >= self.n:
                raise TopologyError("broadcast writer out of range")
            if _has_duplicates(arr):
                raise ProtocolError("a writer appears twice in a kernel round")
        arr.flags.writeable = False
        self.rounds.append(
            BroadcastRound(arr, width, self._wrap_send(send), recv)
        )

    def build(
        self, finish: Optional[Callable] = None, name: str = "kernel"
    ) -> KernelProgram:
        if self._prologues:
            # Prologues declared after the last round run before finish.
            prologues = tuple(self._prologues)
            self._prologues = []
            inner = finish

            def finish(state, kctx, _prologues=prologues, _inner=inner):
                for fn in _prologues:
                    fn(state)
                return _inner(state, kctx) if _inner is not None else None

        return KernelProgram(
            self.n,
            self.mode,
            self.bandwidth,
            tuple(self.rounds),
            tuple(self._init_hooks),
            finish,
            name,
        )


class _ExecRound:
    """One compiled kernel round: everything the runner needs, flat.

    Message ``j`` (structure order) goes from ``srcs[j]`` to
    ``dsts[j]``; a broadcast round has ``dsts=None``, its messages being
    the writers' blackboard words.  ``widths`` is the per-message width
    vector of a heterogeneous unicast round, ``None`` when every message
    is ``width`` bits."""

    __slots__ = (
        "spec",
        "srcs",
        "dsts",
        "width",
        "widths",
        "widths_u64",
        "count",
        "bits",
        "is_object",
        "_links",
    )

    def __init__(self, spec, srcs, dsts, width, widths) -> None:
        self.spec = spec
        self.srcs = srcs
        self.dsts = dsts
        self.width = width
        self.widths = widths
        self.widths_u64 = None if widths is None else widths.astype(np.uint64)
        self.count = int(srcs.size)
        self.bits = self.count * width if widths is None else int(widths.sum())
        self.is_object = width > NUMERIC_WIDTH_LIMIT
        self._links = None

    def links(self) -> List[Tuple[int, Optional[int]]]:
        """``(src, dst)`` per message, ``dst`` None for a blackboard
        word; built on first use (transcripts and fault plans only)."""
        if self._links is None:
            srcs = self.srcs.tolist()
            dsts = [None] * len(srcs) if self.dsts is None else self.dsts.tolist()
            self._links = list(zip(srcs, dsts))
        return self._links


class CompiledSchedule:
    """A kernel program compiled against one network: ``kernel`` holds
    one :class:`_ExecRound` per declared round, and ``params`` the
    ``(bandwidth, mode)`` they were validated under (the network evicts
    the entry if either is reassigned afterwards)."""

    __slots__ = ("params", "kernel")

    def __init__(self, params: Tuple[int, Mode], kernel: List[_ExecRound]) -> None:
        self.params = params
        self.kernel = kernel

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CompiledSchedule(rounds={len(self.kernel)}, "
            f"bits={sum(rec.bits for rec in self.kernel)})"
        )


def compile_program(program: KernelProgram, network) -> CompiledSchedule:
    """Validate ``program`` against ``network`` and build its
    :class:`CompiledSchedule` — declared structure in, per-round flat
    index arrays and bit totals out."""
    if program.n != network.n:
        raise ProtocolError(
            f"kernel program declares n={program.n}, network has n={network.n}"
        )
    if program.bandwidth is not None and program.bandwidth != network.bandwidth:
        raise ProtocolError(
            f"kernel program was built for bandwidth {program.bandwidth}, "
            f"network has bandwidth {network.bandwidth} (phase round counts "
            "are fixed at build time)"
        )
    if program.mode is not network.mode and not (
        # CONGEST is unicast restricted to a topology, so a program
        # declared for the unicast clique may run there (its rounds are
        # still checked against the topology below) — mirroring the
        # generator engine, which accepts unicast outboxes in CONGEST.
        program.mode is Mode.UNICAST
        and network.mode is Mode.CONGEST
    ):
        raise ProtocolError(
            f"kernel program declares {program.mode.value}, "
            f"network is {network.mode.value}"
        )
    mode = network.mode
    bandwidth = network.bandwidth
    allowed = getattr(network, "_allowed", None)
    execs: List[_ExecRound] = []
    for r, spec in enumerate(program.rounds):
        if isinstance(spec, UnicastRound):
            if mode is Mode.BROADCAST:
                raise ProtocolError(
                    f"kernel round {r} unicasts in a broadcast network"
                )
            if allowed is not None:
                for sender, dests in spec.pairs:
                    ok = allowed[sender]
                    for dest in dests:
                        if dest not in ok:
                            raise TopologyError(
                                f"node {sender} sent to non-neighbour "
                                f"{int(dest)} in CONGEST"
                            )
            if spec.width > bandwidth:
                raise BandwidthExceededError(
                    f"kernel round {r} sends {spec.width}-bit messages "
                    f"(bandwidth {bandwidth})"
                )
            senders = np.asarray([v for v, _ in spec.pairs], dtype=np.intp)
            srcs = np.repeat(senders, [dests.size for _, dests in spec.pairs])
            dsts = (
                np.concatenate([dests for _, dests in spec.pairs])
                if spec.pairs
                else np.empty(0, dtype=np.intp)
            )
            execs.append(_ExecRound(spec, srcs, dsts, spec.width, spec.widths))
        else:
            if mode is not Mode.BROADCAST:
                raise ProtocolError(
                    f"kernel round {r} broadcasts in a {mode.value} network"
                )
            if spec.width > bandwidth:
                raise BandwidthExceededError(
                    f"kernel round {r} broadcasts {spec.width} bits "
                    f"(bandwidth {bandwidth})"
                )
            execs.append(_ExecRound(spec, spec.writers, None, spec.width, None))
    return CompiledSchedule((bandwidth, mode), execs)


def _coerce_payload(vals, rec: _ExecRound, instances: int, r: int) -> np.ndarray:
    """``send``'s payloads as a fresh engine-owned ``K × count`` array
    (``uint64``, or ``object`` ints past the numeric width limit)."""
    if rec.is_object:
        if isinstance(vals, np.ndarray) and vals.dtype == object:
            vals = vals.copy()
        else:
            arr = np.empty((instances, rec.count), dtype=object)
            try:
                arr[...] = vals
            except (TypeError, ValueError) as exc:
                raise ProtocolError(
                    f"kernel round {r} produced a malformed payload: {exc}"
                ) from exc
            vals = arr
    else:
        vals = np.array(vals, dtype=np.uint64)
    if vals.shape != (instances, rec.count):
        raise ProtocolError(
            f"kernel round {r} produced payload shape {vals.shape}, "
            f"expected {(instances, rec.count)}"
        )
    return vals


def _validate_payload(vals: np.ndarray, rec: _ExecRound, r: int) -> None:
    if rec.is_object:
        widths = rec.widths
        if widths is None:
            w = rec.width
            bad = any(v < 0 or (v >> w) for row in vals for v in row)
        else:
            bad = any(
                v < 0 or (v >> int(w))
                for row in vals
                for v, w in zip(row, widths)
            )
    elif rec.widths_u64 is None:
        bad = bool((vals >> np.uint64(rec.width)).any())
    else:
        bad = bool((vals >> rec.widths_u64).any())
    if bad:
        raise ProtocolError(
            f"kernel round {r} produced a value that does not fit its "
            f"declared width"
        )


def _round_record(rec: _ExecRound, row) -> RoundRecord:
    """One instance's transcript entry for a delivered round: every
    declared message as sent, a broadcast once with ``receiver=None``."""
    widths = [rec.width] * rec.count if rec.widths is None else rec.widths.tolist()
    return RoundRecord(
        [
            (src, dst, Bits(int(value), width))
            for (src, dst), width, value in zip(rec.links(), widths, row)
        ]
    )


def execute(
    network,
    program: KernelProgram,
    compiled: CompiledSchedule,
    inputs_list: Sequence[Any],
) -> List[RunResult]:
    """Run ``inputs_list`` (K instances) through the compiled kernel
    rounds in lockstep; returns one :class:`RunResult` per instance."""
    execs: List[_ExecRound] = compiled.kernel
    if len(execs) > network._round_cap():
        limit = network.round_limit
        if limit is not None and len(execs) > limit:
            raise RoundLimitExceeded(
                f"kernel program declares {len(execs)} rounds "
                f"(round_limit {limit})"
            )
        raise MaxRoundsExceededError(
            f"kernel program declares {len(execs)} rounds "
            f"(max_rounds {network.max_rounds})"
        )
    n = network.n
    instances = len(inputs_list)
    faults = network._fault_session()
    kctx = KernelContext(
        n, network.bandwidth, network.mode, inputs_list, network._coin_states()
    )
    state: Dict[str, Any] = {}
    for hook in program.init_hooks:
        hook(state, kctx)

    recording = network.record_transcript
    transcripts: Optional[List[List[RoundRecord]]] = (
        [[] for _ in range(instances)] if recording else None
    )

    total_bits = 0
    max_round_bits = 0
    for r, rec in enumerate(execs):
        spec = rec.spec
        vals = spec.send(state) if spec.send is not None else None
        if rec.count == 0:
            delivered = np.empty(
                (instances, 0), dtype=object if rec.is_object else np.uint64
            )
        elif vals is None:
            raise ProtocolError(
                f"kernel round {r} produced no payloads for {rec.count} "
                f"declared {'messages' if rec.dsts is not None else 'writers'}"
            )
        else:
            delivered = _coerce_payload(vals, rec, instances, r)
            _validate_payload(delivered, rec, r)
        if recording:
            for k in range(instances):
                transcripts[k].append(_round_record(rec, delivered[k]))
        if faults is not None:
            delivered = faults.apply_kernel(
                r + 1, delivered, rec.links(), rec.width, rec.widths
            )
        if spec.recv is not None:
            spec.recv(state, delivered)
        total_bits += rec.bits
        if rec.bits > max_round_bits:
            max_round_bits = rec.bits

    outputs_list = (
        program.finish(state, kctx) if program.finish is not None else None
    )
    if outputs_list is None:
        # No finish, or a finish wrapper around trailing prologues only:
        # every node outputs None, like a generator returning nothing.
        outputs_list = [[None] * n for _ in range(instances)]
    if len(outputs_list) != instances:
        raise ProtocolError(
            f"kernel finish returned {len(outputs_list)} instances, "
            f"expected {instances}"
        )
    results = []
    for k in range(instances):
        outputs = list(outputs_list[k])
        if len(outputs) != n:
            raise ProtocolError(
                f"kernel finish returned {len(outputs)} outputs for "
                f"{n} nodes"
            )
        results.append(
            RunResult(
                outputs=outputs,
                rounds=len(execs),
                total_bits=total_bits,
                max_round_bits=max_round_bits,
                transcript=transcripts[k] if recording else None,
                # One delivered matrix serves every instance, so the
                # injected schedule is shared verbatim across them.
                faults=faults.events if faults is not None else None,
            )
        )
    return results
