"""Executing routing schedules on the engine (Lenzen-style routing).

:func:`route_frames` is the runtime counterpart of
:mod:`repro.routing.schedule`: a sub-generator that every node drives
with ``yield from`` inside its program.  All nodes hold the same
(globally computed) :class:`RoutingSchedule`, so senders, receivers and
forwarders agree on which frame each link carries each round without any
extra communication — mirroring how [28] is consumed by Theorem 2, where
the demand pattern is public.

:func:`route_payloads` layers variable-length payloads on top: payload
lengths are public (part of the plan), so payloads are padded to whole
frames and truncated by the receiver.  Its core,
:func:`route_payload_ints`, moves payloads as plain ints and is what
the Theorem 2 simulation drives directly.

Routing is *oblivious*: every round's senders, receivers and frame
widths are fully determined by the public :class:`RoutingSchedule` and
``frame_size`` — the payload bits never influence the structure.
:func:`route_program` packages the common whole-program case (every
node routes the frames given in its input), and
:func:`route_kernel_program` is its declared kernel twin, which the
kernel engine compiles once and executes as stacked matrix operations.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.bits import Bits
from repro.core.errors import DecodeError
from repro.core.fastlane import NUMERIC_WIDTH_LIMIT
from repro.core.kernels import KernelBuilder
from repro.core.network import Context, Mode, Outbox, inbox_uints
from repro.routing.schedule import FrameRef, RoutingSchedule, build_schedule

__all__ = [
    "route_frames",
    "payload_demand",
    "route_payload_ints",
    "route_payloads",
    "route_program",
    "FrameRoute",
    "kernel_route_frames",
    "BitRoute",
    "kernel_route_bits",
    "route_kernel_program",
]


def route_frames(
    ctx: Context,
    schedule: RoutingSchedule,
    my_frames: Mapping[FrameRef, int],
    frame_size: int,
):
    """Drive ``schedule`` for this node; returns the frames delivered
    here as ``{FrameRef: int}``.  Sub-generator: use ``yield from``.

    ``my_frames`` holds exactly the frames the schedule routes from
    this node, each an unsigned int of at most ``frame_size`` bits; they
    travel in fixed-width outboxes, which the fast engine delivers
    through its bulk unicast lane.  A frame that does not fit, one the
    schedule routes from this node but it does not hold, and one it
    holds but the schedule does not route from it each raise a
    ``ValueError`` naming the node and the frame: a frame that does not
    fit or is another node's (the schedule routes a frame from its
    source only) when the node starts, a frame it lacks in the round
    that first sends it, and one never sent when the schedule ends.
    """
    me = ctx.node_id
    holding = dict(my_frames)
    if holding and (
        {ref[0] for ref in holding} != {me}
        or min(holding.values()) < 0
        or max(holding.values()) >> frame_size
    ):
        raise ValueError(_bad_frame(me, holding, frame_size))
    return (yield from _drive_frames(ctx, schedule, holding, frame_size))


def _bad_frame(
    node: int, frames: Mapping[FrameRef, int], frame_size: int
) -> Optional[str]:
    """What ``node`` finds wrong with its injection map when it starts:
    the first frame, in map order, that is another node's or does not
    fit in ``frame_size`` bits."""
    for ref, value in frames.items():
        if ref[0] != node:
            return _not_routed(node, ref)
        if value < 0 or value >> frame_size:
            return _too_wide(node, ref, frame_size)
    return None


def _too_wide(node: int, ref: FrameRef, frame_size: int) -> str:
    return f"node {node}'s frame {ref} does not fit in {frame_size} bits"


def _not_held(node: int, ref: FrameRef) -> str:
    return f"node {node} does not hold frame {ref}, which the schedule routes from it"


def _not_routed(node: int, ref: FrameRef) -> str:
    return f"node {node} holds frame {ref}, which the schedule does not route from it"


def _drive_frames(
    ctx: Context,
    schedule: RoutingSchedule,
    holding: Dict[FrameRef, int],
    frame_size: int,
    lengths: Optional[Mapping[Tuple[int, int], int]] = None,
):
    """Drive ``schedule`` for this node on the fixed-width lane, with
    ``holding`` the ``{FrameRef: uint}`` frames it injects; returns the
    frames delivered here, still as uints.  A frame of this node's own
    that it never injected fails as a ``ValueError`` in the round that
    first needs it (naming its pair and the payload ``lengths`` when
    given), one it injected that the schedule never sends fails when
    the schedule ends, and a relayed frame that never arrived (an
    earlier hop was lost) fails as a :class:`DecodeError`."""
    me = ctx.node_id
    delivered: Dict[FrameRef, int] = {}
    for r in range(schedule.num_rounds):
        sends = schedule.send_plan[r].get(me, ())
        if sends:
            messages: Dict[int, int] = {}
            try:
                for recipient, frame in sends:
                    messages[recipient] = holding.pop(frame)
            except KeyError:
                if frame[0] != me:
                    raise DecodeError(
                        f"node {me} never received frame {frame}, which it "
                        f"forwards in routing round {r + 1}"
                    ) from None
                if lengths is None:
                    raise ValueError(_not_held(me, frame)) from None
                pair = frame[:2]
                raise ValueError(
                    f"node {me} has no payload for pair {pair}, which "
                    f"the plan routes as {lengths[pair]} bits"
                ) from None
            if len(messages) != len(sends):
                raise AssertionError(
                    "schedule placed two frames on one link in one round"
                )
            outbox = Outbox.fixed_width_map(messages, frame_size)
        else:
            outbox = Outbox.silent()
        inbox = yield outbox
        recv = schedule.recv_plan[r]
        for sender, value in inbox_uints(inbox):
            try:
                frame, is_final = recv[(sender, me)]
            except KeyError:
                # Only nodes that disagree on the schedule (one built
                # from a lost or corrupted row) put a frame on a link
                # this node's schedule leaves idle.
                raise DecodeError(
                    f"node {me} got a frame from node {sender} in routing "
                    f"round {r + 1}, which its schedule does not expect"
                ) from None
            if is_final:
                delivered[frame] = value
            else:
                holding[frame] = value
    if holding:
        # A relayed frame always leaves with its next hop, so what is
        # left was injected here and never sent.
        raise ValueError(_not_routed(me, next(iter(holding))))
    return delivered


def route_program(schedule: RoutingSchedule, frame_size: int):
    """A complete, oblivious node program executing ``schedule``.

    Node ``v``'s input (``ctx.input``) must be its ``{FrameRef: int}``
    map of injected frames (or ``None`` for no traffic); the node's
    output is the ``{FrameRef: int}`` map of frames delivered to it.
    The round structure comes entirely from the public schedule;
    :func:`route_kernel_program` declares the same structure for the
    kernel engine.
    """

    def program(ctx):
        delivered = yield from route_frames(
            ctx, schedule, ctx.input or {}, frame_size
        )
        return delivered

    return program


def payload_demand(
    lengths: Mapping[Tuple[int, int], int],
    frame_size: int,
) -> Dict[Tuple[int, int], int]:
    """Frame counts for public payload ``lengths`` (bits per (src, dst))."""
    if frame_size < 1:
        raise ValueError("frame size must be positive")
    return {
        pair: -(-bits // frame_size)
        for pair, bits in lengths.items()
        if bits > 0
    }


def route_payload_ints(
    ctx: Context,
    lengths: Mapping[Tuple[int, int], int],
    my_payloads: Mapping[int, int],
    frame_size: int,
    schedule: RoutingSchedule = None,
):
    """The int-level core of :func:`route_payloads`: payloads travel as
    unsigned ints, ``my_payloads[dst]`` holding the ``lengths[(me,
    dst)]`` bits this node sends ``dst``, first bit most significant.
    Returns ``{source: int}`` for the traffic addressed to this node.
    Frames are cut and reassembled with shifts; no
    :class:`~repro.core.bits.Bits` is built.  Sub-generator: use
    ``yield from``."""
    if schedule is None:
        schedule = build_schedule(payload_demand(lengths, frame_size), ctx.n)
    me = ctx.node_id
    mask = (1 << frame_size) - 1
    holding: Dict[FrameRef, int] = {}
    for dst, value in my_payloads.items():
        bits = lengths.get((me, dst), 0)
        if value < 0 or value >> bits:
            raise ValueError(
                f"payload to {dst} does not fit the {bits} bits the plan routes"
            )
        count = -(-bits // frame_size)
        value <<= count * frame_size - bits
        for idx in range(count):
            holding[(me, dst, idx)] = (value >> ((count - 1 - idx) * frame_size)) & mask
    delivered = yield from _drive_frames(ctx, schedule, holding, frame_size, lengths)
    by_source: Dict[int, Dict[int, int]] = {}
    for (src, _dst, idx), frame in delivered.items():
        by_source.setdefault(src, {})[idx] = frame
    received: Dict[int, int] = {}
    for src, frames in by_source.items():
        bits = lengths[(src, me)]
        count = -(-bits // frame_size)
        value = 0
        for idx in range(count):
            value = (value << frame_size) | frames[idx]
        received[src] = value >> (count * frame_size - bits)
    return received


def route_payloads(
    ctx: Context,
    lengths: Mapping[Tuple[int, int], int],
    my_payloads: Mapping[int, Bits],
    frame_size: int,
    schedule: RoutingSchedule = None,
):
    """Route variable-length payloads under a *public* length map.

    Every node passes the same ``lengths`` (and, optionally, the same
    prebuilt schedule); ``my_payloads`` maps destination -> payload for
    this node's own traffic.  Returns {source: payload} for traffic
    addressed to this node.  A thin :class:`Bits` adapter over
    :func:`route_payload_ints`.  Sub-generator: use ``yield from``.
    """
    me = ctx.node_id
    payloads: Dict[int, int] = {}
    for dst, payload in my_payloads.items():
        expected = lengths.get((me, dst), 0)
        if len(payload) != expected:
            raise ValueError(
                f"payload to {dst} has {len(payload)} bits, plan says {expected}"
            )
        payloads[dst] = payload.to_uint()
    received = yield from route_payload_ints(
        ctx, lengths, payloads, frame_size, schedule
    )
    return {src: Bits(value, lengths[(src, me)]) for src, value in received.items()}


# -- kernel form --------------------------------------------------------
#
# Routing is the ideal kernel workload: a frame's value never changes,
# only its location does, and every hop is in the public timetable.
# Each round therefore compiles to one gather (pick the frames moving
# this round out of the frame-value matrix) and one scatter (write what
# the links delivered back into it) — no per-node stepping at all.


class FrameRoute:
    """``schedule`` compiled for the kernel form, once per schedule.

    Every frame gets a dense *slot* (first-appearance order) — its
    column in the ``K × len(slot_of)`` frame-value matrix — and every
    round becomes its ``(sender, dests)`` pairs in builder order
    (ascending sender, that sender's send-plan order) plus the slot
    vector of the frames those hops carry.  ``finals`` lists
    ``(destination, refs, slots)`` per destination, each in final-hop
    order.
    """

    __slots__ = ("slot_of", "rounds", "finals")

    def __init__(self, schedule: RoutingSchedule) -> None:
        slot_of: Dict[FrameRef, int] = {}
        finals: Dict[int, Tuple[list, list]] = {}
        rounds = []
        for r in range(schedule.num_rounds):
            sends = schedule.send_plan[r]
            recv = schedule.recv_plan[r]
            pairs = []
            slots = []
            for sender in sorted(sends):
                dests = []
                for recipient, frame in sends[sender]:
                    slot = slot_of.setdefault(frame, len(slot_of))
                    dests.append(recipient)
                    slots.append(slot)
                    if recv[(sender, recipient)][1]:
                        refs, final_slots = finals.setdefault(recipient, ([], []))
                        refs.append(frame)
                        final_slots.append(slot)
                pairs.append((sender, dests))
            rounds.append((pairs, np.asarray(slots, dtype=np.intp)))
        self.slot_of = slot_of
        self.rounds = rounds
        self.finals = [
            (dest, tuple(refs), np.asarray(final_slots, dtype=np.intp))
            for dest, (refs, final_slots) in sorted(finals.items())
        ]


def kernel_route_frames(
    builder, route: FrameRoute, frame_size: int, get_values, set_values
) -> None:
    """Append ``route``'s rounds to ``builder`` as kernel rounds.

    At phase start ``get_values(state)`` must return the ``K ×
    len(route.slot_of)`` frame-value matrix in slot order (``uint64``,
    or ``object`` ints for frames past
    :data:`~repro.core.fastlane.NUMERIC_WIDTH_LIMIT` bits).  Every
    round sends the slots it moves and writes what the links delivered
    back into the matrix, so when the last hop lands
    ``set_values(state, values)`` receives each frame as its final hop
    delivered it.
    """
    if frame_size < 1:
        raise ValueError("frame size must be positive")
    key = builder.fresh_key("route")

    def start(state):
        state[key] = get_values(state)

    builder.before(start)
    for pairs, slots in route.rounds:

        def send(state, _slots=slots):
            return state[key][:, _slots]

        def recv(state, delivered, _slots=slots):
            # What the links delivered, not what was sent: the data
            # flow stays on the wire.
            state[key][:, _slots] = delivered

        builder.unicast_round(pairs, frame_size, send, recv)

    def done(state):
        set_values(state, state.pop(key))

    builder.before(done)


class BitRoute:
    """Routed payloads read from and written to columns of a ``K × C``
    0/1 ``uint8`` bit matrix — the kernel form of :func:`route_payloads`.

    ``order[(src, dst)]`` lists the columns whose bits ``src`` sends
    ``dst``, first column most significant, cut into ``frame_size``-bit
    frames and zero-padded exactly as :func:`route_payloads` cuts a
    ``Bits.from_bools`` payload; ``schedule`` routes those frames (the
    :func:`payload_demand` of the column counts).  Compiling precomputes
    where every payload bit sits in a byte-aligned grid of frame words,
    so :meth:`pack` is one gather plus ``np.packbits`` and
    :meth:`unpack` its inverse scatter.
    """

    __slots__ = ("route", "frame_size", "_nbytes", "_cols", "_positions")

    def __init__(
        self,
        order: Mapping[Tuple[int, int], Sequence[int]],
        frame_size: int,
        schedule: RoutingSchedule,
    ) -> None:
        self.route = FrameRoute(schedule)
        self.frame_size = frame_size
        self._nbytes = -(-frame_size // 8)
        # A frame occupies one word of whole bytes with its bits right-
        # aligned: payload bit ``offset`` lands in frame ``offset //
        # frame_size`` at word bit ``word - frame_size + offset % frame_size``.
        word = 8 * self._nbytes
        cols = []
        positions = []
        for (src, dst), pair_cols in order.items():
            for offset, col in enumerate(pair_cols):
                idx, bit = divmod(offset, frame_size)
                slot = self.route.slot_of[(src, dst, idx)]
                cols.append(col)
                positions.append(slot * word + word - frame_size + bit)
        self._cols = np.asarray(cols, dtype=np.intp)
        self._positions = np.asarray(positions, dtype=np.intp)

    def pack(self, bits):
        """The ``K × frames`` frame-value matrix of ``bits``' payloads."""
        instances = bits.shape[0]
        frames = len(self.route.slot_of)
        nbytes = self._nbytes
        grid = np.zeros((instances, frames * nbytes * 8), dtype=np.uint8)
        grid[:, self._positions] = bits[:, self._cols]
        packed = np.packbits(grid, axis=1)
        if self.frame_size > NUMERIC_WIDTH_LIMIT:
            data = packed.tobytes()
            values = [
                int.from_bytes(data[i : i + nbytes], "big")
                for i in range(0, len(data), nbytes)
            ]
            return np.array(values, dtype=object).reshape(instances, frames)
        words = np.zeros((instances, frames, 8), dtype=np.uint8)
        words[:, :, 8 - nbytes :] = packed.reshape(instances, frames, nbytes)
        return words.view(">u8").reshape(instances, frames).astype(np.uint64)

    def unpack(self, values, bits) -> None:
        """Scatter the payload bits carried by the frame-value matrix
        ``values`` back into their columns of ``bits``."""
        instances, frames = values.shape
        nbytes = self._nbytes
        if self.frame_size > NUMERIC_WIDTH_LIMIT:
            data = b"".join(int(v).to_bytes(nbytes, "big") for v in values.flat)
            packed = np.frombuffer(data, dtype=np.uint8)
        else:
            words = values.astype(">u8").view(np.uint8)
            packed = words.reshape(instances, frames, 8)[:, :, 8 - nbytes :]
        grid = np.unpackbits(packed.reshape(instances, frames * nbytes), axis=1)
        bits[:, self._cols] = grid[:, self._positions]


def kernel_route_bits(builder, bit_route: BitRoute, key: str) -> None:
    """Append a :func:`route_payloads` phase over the bit matrix
    ``state[key]`` to ``builder``: :meth:`BitRoute.pack` its payloads at
    phase start, route the frames, and :meth:`BitRoute.unpack` what the
    final hops delivered back into the same columns."""
    kernel_route_frames(
        builder,
        bit_route.route,
        bit_route.frame_size,
        lambda state: bit_route.pack(state[key]),
        lambda state, values: bit_route.unpack(values, state[key]),
    )


def route_kernel_program(schedule: RoutingSchedule, frame_size: int):
    """The kernel twin of :func:`route_program`: same inputs (node
    ``v``'s ``{FrameRef: int}`` injection map, or ``None``), same
    outputs (the ``{FrameRef: int}`` frames delivered to each node) and,
    for a bad injection map, the ``ValueError`` the generator engines
    raise first, with zero generator steps — :func:`kernel_route_frames`,
    whose rounds are one gather + one scatter over a frame-value matrix
    for all instances of a sweep at once."""
    route = FrameRoute(schedule)
    n = schedule.n
    # Each node's injected frames (a frame's first hop leaves its
    # source) in slot order, and where they go.
    owned: List[List[FrameRef]] = [[] for _ in range(n)]
    for ref in route.slot_of:
        owned[ref[0]].append(ref)
    owned_keys = [frozenset(refs) for refs in owned]
    inject_slots = np.asarray(
        [route.slot_of[ref] for refs in owned for ref in refs], dtype=np.intp
    )
    builder = KernelBuilder(n, Mode.UNICAST)

    def init(state, kctx):
        state["inputs"] = kctx.inputs_list

    builder.on_init(init)

    def injected(inputs) -> List[int]:
        """One instance's frames in ``inject_slots`` order, or the
        generator engines' first ``ValueError`` for a bad injection
        map."""
        maps = [per_node or {} for per_node in inputs or [None] * n]
        frames: List[int] = []
        for v, per_node in enumerate(maps):
            if per_node.keys() != owned_keys[v]:
                break
            frames += map(per_node.__getitem__, owned[v])
        else:
            if not frames or (min(frames) >= 0 and not max(frames) >> frame_size):
                return frames
        # The generator engines step every node once per round, in node
        # order, and meet each node's first defect in one of its steps:
        # a frame that is another node's or does not fit in its first,
        # a frame it lacks in the round that first sends it, and one
        # the schedule never sends after the last round.
        found = []
        for v, per_node in enumerate(maps):
            bad = _bad_frame(v, per_node, frame_size)
            lacking = [ref for ref in owned[v] if ref not in per_node]
            if bad is not None:
                found.append((0, v, bad))
            elif lacking:
                slot = route.slot_of[lacking[0]]
                step = next(
                    r for r, (_pairs, slots) in enumerate(route.rounds)
                    if slot in slots
                )
                found.append((step, v, _not_held(v, lacking[0])))
            elif per_node.keys() != owned_keys[v]:
                extra = next(ref for ref in per_node if ref not in owned_keys[v])
                found.append((len(route.rounds), v, _not_routed(v, extra)))
        raise ValueError(min(found)[2])

    def get_values(state):
        inputs_list = state["inputs"]
        values = np.zeros(
            (len(inputs_list), len(route.slot_of)),
            dtype=object if frame_size > NUMERIC_WIDTH_LIMIT else np.uint64,
        )
        for k, inputs in enumerate(inputs_list):
            values[k, inject_slots] = injected(inputs)
        return values

    def set_values(state, values):
        delivered = [[{} for _ in range(n)] for _ in range(values.shape[0])]
        for dest, refs, slots in route.finals:
            for per_node, frames in zip(delivered, values[:, slots].tolist()):
                per_node[dest] = dict(zip(refs, frames))
        state["out"] = delivered

    kernel_route_frames(builder, route, frame_size, get_values, set_values)
    return builder.build(
        lambda state, kctx: state["out"], name="route_frames"
    )
