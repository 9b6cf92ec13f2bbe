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

* ``send(state) -> values`` — one array holding every node's payloads
  for the round, instances × messages in flat structure order: a single
  numpy expression replaces ``n`` generator resumptions, for all ``K``
  instances of a :meth:`~repro.core.network.Network.run_many` sweep at
  once.
* ``recv(state, delivered)`` — consumes the round's delivered array, in
  the same layout: what ``send`` produced, edited by an active fault
  plan (:mod:`repro.core.faults`).

A round's payload takes one of two forms, chosen by its width.  Up to
:data:`NUMERIC_WIDTH_LIMIT` bits it is a ``K × count`` ``uint64``
matrix.  Past that it is a ``K × count × ⌈width/8⌉`` ``uint8`` array of
big-endian byte rows, each message right-aligned in its row, so
``int.from_bytes(row, "big")`` is its value; :func:`ints_to_rows` and
:func:`rows_to_ints` convert for code that holds Python ints.

``state`` is a plain dict the program threads through the run (per-node
data lives in arrays with a leading instance axis).  Because the round
structure is declared rather than observed, a kernel program is
*oblivious by construction*: each round compiles where it is declared
into a :class:`KernelRound` — flat sender/receiver index arrays, its
bit total and width masks — without executing any callback, so
:attr:`KernelProgram.rounds` is the compiled schedule.  :func:`execute`
checks it against the network on every run and then runs it; nothing
is compiled or cached at run time.  Round and bit accounting is
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
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.bits import Bits
from repro.core.errors import (
    BandwidthExceededError,
    MaxRoundsExceededError,
    ProtocolError,
    TopologyError,
)
from repro.core.network import CoinStates, Mode, RoundRecord, RunResult

__all__ = [
    "NUMERIC_WIDTH_LIMIT",
    "ints_to_rows",
    "rows_to_ints",
    "KernelContext",
    "KernelRound",
    "KernelProgram",
    "KernelBuilder",
    "execute",
]

#: Widest message, in bits, that a round's payload holds as a ``K ×
#: count`` ``uint64`` matrix; a wider round's payload is a ``K × count ×
#: ⌈width/8⌉`` ``uint8`` array of big-endian byte rows, each message
#: right-aligned in its row.
NUMERIC_WIDTH_LIMIT = 63


def ints_to_rows(values: Iterable[int], nbytes: int) -> np.ndarray:
    """Python ints as a writable ``uint8`` array of big-endian byte
    rows, one ``nbytes``-byte row per value with the value right-aligned
    in it (the wide payload form); a negative value or one wider than
    ``8 * nbytes`` bits raises ``OverflowError``."""
    data = bytearray().join(value.to_bytes(nbytes, "big") for value in values)
    return np.frombuffer(data, dtype=np.uint8).reshape(-1, nbytes)


def rows_to_ints(rows: np.ndarray) -> list:
    """The inverse of :func:`ints_to_rows`: the byte rows along the last
    axis of ``rows`` as Python ints, nested like ``ndarray.tolist`` over
    the leading axes."""
    if not rows.size:
        return np.zeros(rows.shape[:-1], dtype=np.uint8).tolist()
    nbytes = rows.shape[-1]
    data = rows.tobytes()
    values = [
        int.from_bytes(data[i : i + nbytes], "big")
        for i in range(0, len(data), nbytes)
    ]
    for size in reversed(rows.shape[1:-1]):
        values = [values[i : i + size] for i in range(0, len(values), size)]
    return values


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


class KernelRound:
    """One declared kernel round, compiled where it is declared.

    Message ``j`` (structure order: ascending sender, each sender's
    destinations as declared) goes from ``srcs[j]`` to ``dsts[j]``; a
    broadcast round has ``dsts=None``, its messages being the writers'
    blackboard words.  ``widths`` is the per-message width vector of a
    heterogeneous unicast round, ``None`` when every message is
    ``width`` bits, and ``bits`` the round's total.  ``nbytes`` is the
    byte-row length of a round past :data:`NUMERIC_WIDTH_LIMIT` bits (0
    for a ``uint64`` round), and ``high`` its mask of the bits above
    each message's width: one row for a uniform width, one per message
    otherwise.  ``send`` and ``recv`` are the round's callbacks."""

    __slots__ = (
        "srcs",
        "dsts",
        "width",
        "widths",
        "widths_u64",
        "count",
        "bits",
        "nbytes",
        "high",
        "send",
        "recv",
        "_links",
    )

    def __init__(self, srcs, dsts, width, widths, send, recv) -> None:
        # Every run on every network reads these arrays: freeze them.
        for arr in (srcs, dsts, widths):
            if arr is not None:
                arr.flags.writeable = False
        self.srcs = srcs
        self.dsts = dsts
        self.width = width
        self.widths = widths
        self.widths_u64 = None if widths is None else widths.astype(np.uint64)
        self.count = int(srcs.size)
        self.bits = self.count * width if widths is None else int(widths.sum())
        self.nbytes = nbytes = -(-width // 8) if width > NUMERIC_WIDTH_LIMIT else 0
        self.high = None
        if nbytes:
            # The bits of a row at or above a message's width ``w``.
            top = 1 << 8 * nbytes
            self.high = ints_to_rows(
                [top - (1 << w) for w in ([width] if widths is None else widths.tolist())],
                nbytes,
            )
        self.send = send
        self.recv = recv
        self._links = None

    def links(self) -> List[Tuple[int, Optional[int]]]:
        """``(src, dst)`` per message, ``dst`` None for a blackboard
        word; built on first use (CONGEST link checks, transcripts and
        fault plans only)."""
        if self._links is None:
            srcs = self.srcs.tolist()
            dsts = [None] * len(srcs) if self.dsts is None else self.dsts.tolist()
            self._links = list(zip(srcs, dsts))
        return self._links


class KernelProgram:
    """A fully declared SPMD protocol: init hooks, compiled rounds,
    finish.

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
    return arr


class KernelBuilder:
    """Accumulates the declared rounds of a :class:`KernelProgram`.

    Each round is validated (self-sends, range, duplicate destinations)
    and compiled into a :class:`KernelRound` here, at declaration; the
    network-dependent checks (mode, bandwidth, topology) run on every
    execution (:func:`execute`).  ``on_init`` hooks run before round 0 with
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
        # When set, the program only runs on a network with exactly this
        # bandwidth.
        self.bandwidth = bandwidth
        self.rounds: List[KernelRound] = []
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
        srcs = np.repeat(
            np.asarray([v for v, _ in norm], dtype=np.intp),
            [arr.size for _, arr in norm],
        )
        dsts = (
            np.concatenate([arr for _, arr in norm])
            if norm
            else np.empty(0, dtype=np.intp)
        )
        count = srcs.size
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
        if width < 1:
            raise ValueError("fixed-width messages need width >= 1 bit")
        self.rounds.append(
            KernelRound(srcs, dsts, width, widths_arr, self._wrap_send(send), recv)
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
        self.rounds.append(
            KernelRound(arr, None, width, None, self._wrap_send(send), recv)
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


def _check(program: KernelProgram, network) -> None:
    """Check ``program`` against ``network`` in one pass over its
    rounds: size, declared bandwidth and mode, then each round's kind,
    links (in CONGEST) and width, then the round bound."""
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
    allowed = network._allowed
    for r, rnd in enumerate(program.rounds):
        if rnd.dsts is not None:
            if mode is Mode.BROADCAST:
                raise ProtocolError(
                    f"kernel round {r} unicasts in a broadcast network"
                )
            if allowed is not None:
                for src, dst in rnd.links():
                    if dst not in allowed[src]:
                        raise TopologyError(
                            f"node {src} sent to non-neighbour {dst} in CONGEST"
                        )
            if rnd.width > bandwidth:
                raise BandwidthExceededError(
                    f"kernel round {r} sends {rnd.width}-bit messages "
                    f"(bandwidth {bandwidth})"
                )
        else:
            if mode is not Mode.BROADCAST:
                raise ProtocolError(
                    f"kernel round {r} broadcasts in a {mode.value} network"
                )
            if rnd.width > bandwidth:
                raise BandwidthExceededError(
                    f"kernel round {r} broadcasts {rnd.width} bits "
                    f"(bandwidth {bandwidth})"
                )
    if len(program.rounds) > network.max_rounds:
        raise MaxRoundsExceededError(
            f"kernel program declares {len(program.rounds)} rounds "
            f"(max_rounds {network.max_rounds})"
        )


def _coerce_payload(vals, rnd: KernelRound, instances: int, r: int) -> np.ndarray:
    """``send``'s payloads as a fresh engine-owned array: a ``K × count``
    ``uint64`` matrix up to :data:`NUMERIC_WIDTH_LIMIT` bits, converted
    from whatever ``send`` returned; past it, a copy of the ``K × count
    × nbytes`` ``uint8`` byte rows ``send`` must return."""
    if rnd.nbytes:
        if not isinstance(vals, np.ndarray) or vals.dtype != np.uint8:
            raise ProtocolError(
                f"kernel round {r} produced a malformed payload: a round "
                f"of {rnd.width}-bit messages takes uint8 byte rows"
            )
        vals = vals.copy()
        expected = (instances, rnd.count, rnd.nbytes)
    else:
        vals = np.array(vals, dtype=np.uint64)
        expected = (instances, rnd.count)
    if vals.shape != expected:
        raise ProtocolError(
            f"kernel round {r} produced payload shape {vals.shape}, "
            f"expected {expected}"
        )
    return vals


def _validate_payload(vals: np.ndarray, rnd: KernelRound, r: int) -> None:
    if rnd.nbytes:
        bad = bool((vals & rnd.high).any())
    elif rnd.widths_u64 is None:
        bad = bool((vals >> np.uint64(rnd.width)).any())
    else:
        bad = bool((vals >> rnd.widths_u64).any())
    if bad:
        raise ProtocolError(
            f"kernel round {r} produced a value that does not fit its "
            f"declared width"
        )


def _round_record(rnd: KernelRound, row) -> RoundRecord:
    """One instance's transcript entry for a delivered round: every
    declared message as sent, a broadcast once with ``receiver=None``."""
    widths = [rnd.width] * rnd.count if rnd.widths is None else rnd.widths.tolist()
    values = rows_to_ints(row) if rnd.nbytes else row.tolist()
    return RoundRecord(
        [
            (src, dst, Bits(value, width))
            for (src, dst), width, value in zip(rnd.links(), widths, values)
        ]
    )


def execute(
    network, program: KernelProgram, inputs_list: Sequence[Any]
) -> List[RunResult]:
    """Check ``program`` against ``network``, then run ``inputs_list``
    (K instances) through its rounds in lockstep; returns one
    :class:`RunResult` per instance."""
    _check(program, network)
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
    for r, rnd in enumerate(program.rounds):
        vals = rnd.send(state) if rnd.send is not None else None
        if rnd.count == 0:
            delivered = (
                np.empty((instances, 0, rnd.nbytes), dtype=np.uint8)
                if rnd.nbytes
                else np.empty((instances, 0), dtype=np.uint64)
            )
        elif vals is None:
            raise ProtocolError(
                f"kernel round {r} produced no payloads for {rnd.count} "
                f"declared {'messages' if rnd.dsts is not None else 'writers'}"
            )
        else:
            delivered = _coerce_payload(vals, rnd, instances, r)
            _validate_payload(delivered, rnd, r)
        if recording:
            for k in range(instances):
                transcripts[k].append(_round_record(rnd, delivered[k]))
        if faults is not None:
            delivered = faults.apply_kernel(
                r + 1, delivered, rnd.links(), rnd.width, rnd.widths
            )
        if rnd.recv is not None:
            rnd.recv(state, delivered)
        total_bits += rnd.bits
        if rnd.bits > max_round_bits:
            max_round_bits = rnd.bits

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
                rounds=len(program.rounds),
                total_bits=total_bits,
                max_round_bits=max_round_bits,
                transcript=transcripts[k] if recording else None,
                # One delivered matrix serves every instance, so the
                # injected schedule is shared verbatim across them.
                faults=faults.events if faults is not None else None,
            )
        )
    return results
