"""Phase layer: long logical messages over ``b``-bit rounds.

Most algorithms in the paper are described in terms of logical messages
much longer than the bandwidth — e.g. the Becker et al. reconstruction
broadcasts ``O(k log n)`` bits per node, "divided into chunks of b bits
each, broadcast over O(k log n / b) rounds" (Theorem 7).  This module
implements that chunking *honestly*: a phase really is executed as a
sequence of b-bit frames on the engine, so round counts reported by
:class:`~repro.core.network.RunResult` include fragmentation cost.

Phase lengths depend only on *public* parameters (a globally known upper
bound on payload length), exactly as in the paper: all nodes agree on the
number of rounds a phase takes without communicating.

The helpers here are sub-generators meant to be driven with ``yield
from`` inside a node program::

    def program(ctx):
        got = yield from transmit_broadcast(ctx, my_bits, max_bits=limit)
        ...

One decode per broadcast phase
------------------------------

Every receiver of a CLIQUE-BCAST phase reads the same boards, so the
phase is decoded once per run, not once per receiver: the first node to
finish it decodes every writer and stores the result in the run's
:attr:`~repro.core.network.Context.memo`, keyed by the boards
themselves, and every node reads back its own view — the result without
its own word, raising the error of the first failing writer other than
itself.  :func:`transmit_broadcast` returns that view as a dict;
:func:`transmit_broadcast_uints` returns the whole blackboard as one
tuple of uints indexed by writer, which every node of a fault-free
phase shares.  An inbox that is not a board view (the unicast fan-out
of :func:`repro.routing.sorting._adapt_broadcast`) takes the same path
and is decoded for its receiver alone.

Obliviousness
-------------

Phases are structure-oblivious building blocks: a transmit phase always
lasts ``phase_length(max_bits, b)`` rounds of exactly ``b``-bit frames,
so its round/width structure is fixed by the public parameters.  The
*sender set* is the one input-dependent degree of freedom —
``transmit_unicast``'s destination keys and ``transmit_broadcast``'s
``payload is None`` choice.  When the sender set is public too, the
phase has a declared kernel twin (:func:`kernel_transmit_unicast`,
:func:`kernel_transmit_broadcast`) that the kernel engine compiles once
and executes as stacked matrix operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple

from repro.core.bits import Bits, BitWriter
from repro.core.errors import DecodeError
from repro.core.mailbox import inbox_source
from repro.core.network import Context, Outbox, inbox_uints

__all__ = [
    "header_width",
    "phase_length",
    "transmit_unicast",
    "transmit_broadcast",
    "transmit_broadcast_uints",
    "transmit_broadcast_redundant",
    "idle",
    "kernel_transmit_unicast",
    "kernel_transmit_broadcast",
    "transmit_unicast_kernel_program",
    "transmit_broadcast_kernel_program",
]


def header_width(max_bits: int) -> int:
    """Width of the fixed-size length header for payloads of at most
    ``max_bits`` bits."""
    if max_bits < 0:
        raise ValueError("max_bits must be non-negative")
    return max(1, max_bits.bit_length())


def phase_length(max_bits: int, bandwidth: int) -> int:
    """Number of rounds a transmit phase takes: ceil((header+max)/b)."""
    total = header_width(max_bits) + max_bits
    return -(-total // bandwidth)


def _frame_payload(payload: Bits, max_bits: int, rounds: int, bandwidth: int) -> list:
    """Length header + payload, padded to whole frames, as a list of
    ``rounds`` frame uints (each exactly ``bandwidth`` bits wide)."""
    if len(payload) > max_bits:
        raise ValueError(
            f"payload of {len(payload)} bits exceeds declared max {max_bits}"
        )
    writer = BitWriter()
    writer.write_uint(len(payload), header_width(max_bits))
    writer.write_bits(payload)
    padded = writer.getvalue().pad_to(rounds * bandwidth)
    return padded.to_uint_chunks(bandwidth)


def _decode_frames(frames: Sequence[int], bandwidth: int, max_bits: int) -> Bits:
    """Reassemble one sender's ``bandwidth``-bit frames and strip the
    length header: the inverse of :func:`_frame_payload`, on the backing
    integer alone.

    A frame wider than ``bandwidth`` raises ``ValueError``; a header
    over ``max_bits``, or a header or payload running past the last
    frame, raises :class:`DecodeError`."""
    value = 0
    for chunk in frames:
        if chunk < 0 or chunk >> bandwidth:
            raise ValueError(f"chunk {chunk} does not fit in {bandwidth} bits")
        value = (value << bandwidth) | chunk
    # ``rest`` counts the stream's bits after those read so far: first
    # the header, then the payload.
    rest = len(frames) * bandwidth - header_width(max_bits)
    if rest < 0:
        raise DecodeError("read past end of bit stream")
    length = value >> rest
    if length > max_bits:
        raise DecodeError(
            f"length header says {length} bits, the phase allows {max_bits}"
        )
    rest -= length
    if rest < 0:
        raise DecodeError("read past end of bit stream")
    return Bits((value >> rest) & ((1 << length) - 1), length)


def transmit_unicast(
    ctx: Context,
    payloads: Mapping[int, Bits],
    max_bits: int,
):
    """Send each ``payloads[dest]`` (each at most ``max_bits`` bits) to its
    destination over one globally scheduled phase; return a dict mapping
    each sender that transmitted to us to its reassembled payload.

    Every frame of the phase is exactly ``b`` bits (the payload is
    padded to a whole number of frames), so the exchange's rounds cross
    the wire as plain ints."""
    rounds = phase_length(max_bits, ctx.bandwidth)
    bandwidth = ctx.bandwidth
    framed = {
        dest: _frame_payload(payload, max_bits, rounds, bandwidth)
        for dest, payload in payloads.items()
    }
    received: Dict[int, list] = {}
    for r in range(rounds):
        outbox = (
            Outbox.fixed_width_map(
                {dest: frames[r] for dest, frames in framed.items()}, bandwidth
            )
            if framed
            else Outbox.silent()
        )
        inbox = yield outbox
        for sender, value in inbox_uints(inbox):
            received.setdefault(sender, []).append(value)
    return {
        sender: _decode_frames(frames, bandwidth, max_bits)
        for sender, frames in received.items()
        if len(frames) == rounds
    }


@dataclass(frozen=True, eq=False)
class _PhaseDecode:
    """Every writer of one broadcast phase, decoded once for all its
    receivers (:func:`_read_phase`).  Immutable: errors are kept as
    their type and text, not as exception objects.  Compared and hashed
    by identity, so a key can hold it cheaply."""

    #: ``(writer, payload)`` for each writer that decoded, by writer.
    payloads: Tuple[Tuple[int, Bits], ...]
    #: ``(writer, error type, error text)`` for each writer whose
    #: complete frames failed to decode, by writer.
    errors: Tuple[Tuple[int, type, str], ...]
    #: Each decoded payload as a uint, indexed by writer; ``None`` where
    #: nothing decoded.
    uints: Tuple[Optional[int], ...]


def _decode_phase(
    sources: Sequence[Any], n: int, bandwidth: int, max_bits: int
) -> _PhaseDecode:
    """Decode every writer of a phase from the objects its rounds were
    read from.  A writer's payload decodes only if its frame is in every
    round."""
    columns = [dict(inbox_uints(source)) for source in sources]
    complete = columns[0].keys()
    for column in columns[1:]:
        complete = complete & column.keys()
    payloads = []
    errors = []
    uints: list = [None] * n
    for writer in columns[0]:
        if writer not in complete:
            continue
        try:
            payload = _decode_frames(
                [column[writer] for column in columns], bandwidth, max_bits
            )
        except (DecodeError, ValueError) as exc:
            errors.append((writer, type(exc), str(exc)))
            continue
        payloads.append((writer, payload))
        uints[writer] = payload.to_uint()
    return _PhaseDecode(tuple(payloads), tuple(errors), tuple(uints))


def _read_phase(ctx: Context, payload: Optional[Bits], max_bits: int):
    """Broadcast ``payload`` (or stay silent if ``None``) over one phase;
    return the phase's shared decode.

    The decode is keyed in ``ctx.memo`` by what each round was read
    from (:func:`~repro.core.mailbox.inbox_source`): on a CLIQUE-BCAST
    network every receiver holds the same boards, so the first receiver
    to finish the phase decodes every writer once, for all of them.
    The key holds the boards themselves, never their ids, which a freed
    board could pass on.  Any other inbox is a source of its own,
    decoded for its receiver alone."""
    bandwidth = ctx.bandwidth
    rounds = phase_length(max_bits, bandwidth)
    frames = (
        None
        if payload is None
        else _frame_payload(payload, max_bits, rounds, bandwidth)
    )
    sources = []
    for r in range(rounds):
        inbox = yield (
            Outbox.silent()
            if frames is None
            else Outbox.broadcast_uint(frames[r], bandwidth)
        )
        sources.append(inbox_source(inbox))
    key = (transmit_broadcast, tuple(sources), bandwidth, max_bits)
    memo = ctx.memo
    decoded = memo.get(key)
    if decoded is None:
        decoded = memo[key] = _decode_phase(sources, ctx.n, bandwidth, max_bits)
    return decoded


def _raise_first_error(decoded: _PhaseDecode, me: int) -> None:
    """Raise what a receiver decoding the writers one by one meets
    first: the error of the first failing writer other than itself."""
    for writer, error, text in decoded.errors:
        if writer != me:
            raise error(text)


def transmit_broadcast(
    ctx: Context,
    payload: Optional[Bits],
    max_bits: int,
):
    """Broadcast ``payload`` (or stay silent if ``None``) over one phase;
    return a dict mapping every broadcasting node to its payload.

    Every frame of the phase is exactly ``b`` bits (the payload is
    padded to a whole number of frames) and goes out as one fixed-width
    word on the round's blackboard.  A writer missing from a round is
    left out; a writer whose frames do not decode raises, the first such
    writer other than this node."""
    decoded = yield from _read_phase(ctx, payload, max_bits)
    me = ctx.node_id
    _raise_first_error(decoded, me)
    received = dict(decoded.payloads)
    received.pop(me, None)
    return received


def transmit_broadcast_uints(
    ctx: Context,
    payload: Optional[Bits],
    max_bits: int,
):
    """:func:`transmit_broadcast` read as the whole blackboard: a tuple
    of uints indexed by writer, ``None`` for a writer with nothing
    decodable, and this node's own entry its own payload (``None`` if
    silent).

    Every receiver of the same boards gets the same tuple, built once
    per phase; a node's own entry is spliced in only when the board's
    copy of its word differs from what it sent, which takes a fault."""
    decoded = yield from _read_phase(ctx, payload, max_bits)
    me = ctx.node_id
    _raise_first_error(decoded, me)
    board = decoded.uints
    own = None if payload is None else payload.to_uint()
    if board[me] != own:
        board = board[:me] + (own,) + board[me + 1 :]
    return board


def idle(rounds: int):
    """Stay silent (but synchronized) for ``rounds`` rounds."""
    for _ in range(rounds):
        yield Outbox.silent()


# -- resilient form ------------------------------------------------------
#
# The wrapper below buys fault tolerance with *bounded, public* extra
# rounds: every node agrees on the number of copies without
# communicating, so the protocols stay synchronous and the engines'
# round accounting stays honest — redundant copies are charged like any
# other send.


def transmit_broadcast_redundant(
    ctx: Context,
    payload: Optional[Bits],
    max_bits: int,
    copies: int = 3,
):
    """:func:`transmit_broadcast` hardened against *corruption* (and,
    with enough copies, loss): the payload is broadcast ``copies`` times
    and each receiver keeps, per sender, the majority value among the
    copies that arrived.

    Ties (and the no-majority case) resolve deterministically to the
    smallest ``(length, value)`` candidate, so all receivers of the same
    copies agree.  With at most ``floor((copies-1)/2)`` of a sender's
    copies corrupted, the true payload wins the vote outright.  A copy
    whose corrupted length header no longer parses is discarded rather
    than allowed to abort the phase (the strict single-shot
    :func:`transmit_broadcast` raises there — redundancy exists exactly
    so one bad copy is survivable).  Costs
    ``copies * phase_length(max_bits, b)`` rounds.
    """
    if copies < 1:
        raise ValueError("copies must be at least 1")
    me = ctx.node_id
    decodes = []
    for _ in range(copies):
        decoded = yield from _read_phase(ctx, payload, max_bits)
        # A copy that fails to parse is discarded; any other failure
        # raises at once, as the plain phase would.
        for writer, error, text in decoded.errors:
            if writer != me and not issubclass(error, DecodeError):
                raise error(text)
        decodes.append(decoded)
    # The votes depend on the copies' decodes alone, so every receiver
    # of the same boards shares one count.
    key = (transmit_broadcast_redundant, tuple(decodes))
    memo = ctx.memo
    winners = memo.get(key)
    if winners is None:
        winners = memo[key] = _count_votes(decodes)
    result = dict(winners)
    result.pop(me, None)
    return result


def _count_votes(decodes: Sequence[_PhaseDecode]) -> Tuple[Tuple[int, Bits], ...]:
    """Each writer's majority payload over the copies that decoded, ties
    to the smallest ``(length, value)``, in order of first vote."""
    votes: Dict[int, Dict[Tuple[int, int], int]] = {}
    for decoded in decodes:
        for writer, copy in decoded.payloads:
            key = (len(copy), copy.to_uint())
            counts = votes.setdefault(writer, {})
            counts[key] = counts.get(key, 0) + 1
    winners = []
    for writer, counts in votes.items():
        best = max(counts.values())
        length, value = min(key for key, c in counts.items() if c == best)
        winners.append((writer, Bits(value, length)))
    return tuple(winners)


# -- kernel form --------------------------------------------------------
#
# The kernel counterparts below declare the phase structure to a
# ``KernelBuilder`` (repro.core.kernels) so a whole transmit phase runs
# as one numpy scatter/gather per round with zero generator steps.  The
# sender set — the one input-dependent degree of freedom of the
# generator phases — becomes an explicit public parameter (``links`` /
# ``writers``), which is exactly the obliviousness contract the
# generator docstring above describes.  Equivalence suites pin the two
# forms byte-for-byte.


def _require_bandwidth(builder) -> int:
    if builder.bandwidth is None:
        raise ValueError(
            "phase kernels need a KernelBuilder with a declared bandwidth "
            "(the phase length depends on it)"
        )
    return builder.bandwidth


def kernel_transmit_unicast(builder, links, max_bits: int, get_payloads, set_result) -> None:
    """Append one unicast transmit phase to ``builder``.

    ``links`` is the public list of ``(src, dst)`` pairs that carry a
    payload.  At phase start ``get_payloads(state)`` must return one
    ``{(src, dst): Bits}`` map per instance (every declared link
    present, each payload at most ``max_bits`` bits); when the phase's
    frames have all been delivered, ``set_result(state, received)`` is
    called with ``received[k][v]`` the ``{src: Bits}`` dict node ``v``
    reassembled in instance ``k`` — the same value the generator
    :func:`transmit_unicast` returns.
    """
    import numpy as np

    bandwidth = _require_bandwidth(builder)
    rounds = phase_length(max_bits, bandwidth)
    by_src: Dict[int, list] = {}
    for src, dst in links:
        by_src.setdefault(int(src), []).append(int(dst))
    pairs = sorted((src, dests) for src, dests in by_src.items())
    # Flat structure order: ascending sender, declared dest order.
    flat_links = [(src, dst) for src, dests in pairs for dst in dests]
    count = len(flat_links)
    is_object = bandwidth > 63
    key = builder.fresh_key("transmit_unicast")

    def start(state):
        payload_maps = get_payloads(state)
        instances = len(payload_maps)
        frames = np.empty(
            (rounds, instances, count),
            dtype=object if is_object else np.uint64,
        )
        for k, payloads in enumerate(payload_maps):
            for j, link in enumerate(flat_links):
                frames[:, k, j] = _frame_payload(
                    payloads[link], max_bits, rounds, bandwidth
                )
        state[key] = {"frames": frames, "got": []}

    builder.before(start)
    for r in range(rounds):

        def send(state, _r=r):
            return state[key]["frames"][_r]

        def recv(state, delivered):
            state[key]["got"].append(delivered)

        builder.unicast_round(pairs, bandwidth, send, recv)

    def done(state):
        got = state.pop(key)["got"]
        instances = got[0].shape[0] if got else len(get_payloads(state))
        received = [
            [dict() for _ in range(builder.n)] for _ in range(instances)
        ]
        for j, (src, dst) in enumerate(flat_links):
            for k in range(instances):
                received[k][dst][src] = _decode_frames(
                    [int(got[r][k, j]) for r in range(rounds)],
                    bandwidth,
                    max_bits,
                )
        set_result(state, received)

    builder.before(done)


def kernel_transmit_broadcast(builder, writers, max_bits: int, get_payloads, set_result) -> None:
    """Append one blackboard transmit phase to ``builder``.

    ``writers`` is the public list of broadcasting nodes.
    ``get_payloads(state)`` must return one ``{writer: Bits}`` map per
    instance; ``set_result(state, received)`` gets ``received[k][v]``
    as the ``{writer: Bits}`` dict node ``v`` hears (its own broadcast
    excluded, as on the engine) — the generator
    :func:`transmit_broadcast` return value.
    """
    import numpy as np

    bandwidth = _require_bandwidth(builder)
    rounds = phase_length(max_bits, bandwidth)
    writer_list = sorted(int(w) for w in writers)
    count = len(writer_list)
    is_object = bandwidth > 63
    key = builder.fresh_key("transmit_broadcast")

    def start(state):
        payload_maps = get_payloads(state)
        instances = len(payload_maps)
        frames = np.empty(
            (rounds, instances, count),
            dtype=object if is_object else np.uint64,
        )
        for k, payloads in enumerate(payload_maps):
            for j, writer in enumerate(writer_list):
                frames[:, k, j] = _frame_payload(
                    payloads[writer], max_bits, rounds, bandwidth
                )
        state[key] = {"frames": frames, "got": []}

    builder.before(start)
    for r in range(rounds):

        def send(state, _r=r):
            return state[key]["frames"][_r]

        def recv(state, delivered):
            state[key]["got"].append(delivered)

        builder.broadcast_round(writer_list, bandwidth, send, recv)

    def done(state):
        got = state.pop(key)["got"]
        instances = got[0].shape[0] if got else len(get_payloads(state))
        payloads = {}
        for j, writer in enumerate(writer_list):
            for k in range(instances):
                payloads[(k, writer)] = _decode_frames(
                    [int(got[r][k, j]) for r in range(rounds)],
                    bandwidth,
                    max_bits,
                )
        received = [
            [
                {
                    w: payloads[(k, w)]
                    for w in writer_list
                    if w != v
                }
                for v in range(builder.n)
            ]
            for k in range(instances)
        ]
        set_result(state, received)

    builder.before(done)


def transmit_unicast_kernel_program(n: int, bandwidth: int, links, max_bits: int):
    """A complete kernel program executing one unicast transmit phase.

    The kernel twin of running the generator phase as a whole program:
    node ``v``'s input is its ``{dst: Bits}`` payload map (``None`` for
    no traffic — but the union of keys must equal the public ``links``),
    its output the ``{src: Bits}`` dict of reassembled payloads.
    """
    from repro.core.kernels import KernelBuilder
    from repro.core.network import Mode

    builder = KernelBuilder(n, Mode.UNICAST, bandwidth=bandwidth)

    def init(state, kctx):
        state["inputs"] = kctx.inputs_list

    builder.on_init(init)

    def get_payloads(state):
        maps = []
        for inputs in state["inputs"]:
            payloads = {}
            if inputs is not None:
                for src in range(n):
                    for dst, payload in (inputs[src] or {}).items():
                        payloads[(src, dst)] = payload
            maps.append(payloads)
        return maps

    def set_result(state, received):
        state["out"] = received

    kernel_transmit_unicast(builder, links, max_bits, get_payloads, set_result)
    return builder.build(
        lambda state, kctx: state["out"], name="transmit_unicast"
    )


def transmit_broadcast_kernel_program(n: int, bandwidth: int, writers, max_bits: int):
    """A complete kernel program executing one blackboard transmit
    phase: node ``v``'s input is its payload :class:`Bits` (nodes not in
    the public ``writers`` list pass ``None``), its output the
    ``{writer: Bits}`` dict it heard."""
    from repro.core.kernels import KernelBuilder
    from repro.core.network import Mode

    builder = KernelBuilder(n, Mode.BROADCAST, bandwidth=bandwidth)

    def init(state, kctx):
        state["inputs"] = kctx.inputs_list

    builder.on_init(init)

    def get_payloads(state):
        return [
            {w: inputs[w] for w in writers}
            for inputs in state["inputs"]
        ]

    def set_result(state, received):
        state["out"] = received

    kernel_transmit_broadcast(builder, writers, max_bits, get_payloads, set_result)
    return builder.build(
        lambda state, kctx: state["out"], name="transmit_broadcast"
    )
