"""Executing routing schedules on the engine (Lenzen-style routing).

The schedule is public, so it is compiled, not interpreted:
:meth:`RoutingSchedule.route() <repro.routing.schedule.RoutingSchedule.route>`
builds a :class:`FrameRoute` once per schedule, in one pass over its
hops.  It numbers every frame for the kernel form and gives every node
its :class:`NodeRoute`: the node's per-run frame list is indexed by
*slots*, and each round says which slots it sends to whom and which
sender fills which slot.  Every node of every run, on every engine,
reads the same tables, so senders, receivers and forwarders agree on
which frame each link carries each round without any extra
communication — mirroring how [28] is consumed by Theorem 2, where the
demand pattern is public.

One driver, :func:`_drive_frames`, moves a node's slot list through its
tables, one fixed-width outbox per round.  Three thin adapters sit on
top of it: :func:`route_frames` keeps the ``{FrameRef: int}`` interface,
:func:`route_payload_ints` cuts variable-length payloads (their lengths
are public, part of the plan) into frames with shifts and joins the
frames it receives, and :func:`route_payloads` is its
:class:`~repro.core.bits.Bits` adapter.  A payload arrives whole or not
at all: one that lost a frame is left out of the result.
:class:`ColumnRoute` compiles one node's payloads further, straight from
and into the columns of a 0/1 value vector, for the callers that hold a
route for many runs (the Theorem 2 simulation's :class:`PlanView
<repro.simulation.protocol.PlanView>`, triangle detection's output
redistribution).

Routing is *oblivious*: every round's senders, receivers and frame
widths are fully determined by the public :class:`RoutingSchedule` and
``frame_size`` — the payload bits never influence the structure.
:func:`route_program` packages the common whole-program case (every
node routes the frames given in its input), and
:func:`route_kernel_program` is its declared kernel twin, which the
kernel engine compiles once and executes as stacked matrix operations
over the same :class:`FrameRoute` slots.
"""

from __future__ import annotations

import operator
from itertools import chain
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.bits import Bits
from repro.core.errors import DecodeError
from repro.core.kernels import (
    NUMERIC_WIDTH_LIMIT,
    KernelBuilder,
    ints_to_rows,
    rows_to_ints,
)
from repro.core.network import Context, Mode, Outbox, inbox_uints
from repro.routing.schedule import FrameRef, RoutingSchedule, build_schedule

__all__ = [
    "route_frames",
    "payload_demand",
    "route_payload_ints",
    "route_payloads",
    "route_program",
    "NodeRoute",
    "FrameRoute",
    "ColumnRoute",
    "kernel_route_frames",
    "BitRoute",
    "kernel_route_bits",
    "route_kernel_program",
]


class NodeRoute:
    """One node's part of a compiled schedule (:class:`FrameRoute`).

    A *slot* is a frame's index in the node's per-run frame list.  The
    frames the node injects come first, ``inject`` listing them in
    :class:`FrameRoute` slot order; the frames delivered to it follow,
    ``finals`` listing them in final-hop order (round, then sender);
    the frames it relays take the last slots, up to ``size``.
    ``rounds[r]`` is ``(dests, sends, senders, recvs)``: the nodes it
    sends to in round ``r`` and the slots of the frames it sends them,
    and the senders it expects, ascending, with the slot each one fills.
    A run of consecutive slots is held as a ``slice``.
    """

    __slots__ = ("size", "inject", "finals", "rounds")

    def __init__(self, size: int, inject, finals, rounds) -> None:
        self.size = size
        self.inject = inject
        self.finals = finals
        self.rounds = rounds


_IDLE = ((), (), (), ())


def _slots(slots: List[int]):
    """``slots`` as a ``slice`` when they are consecutive, else a tuple."""
    if slots and slots == list(range(slots[0], slots[0] + len(slots))):
        return slice(slots[0], slots[0] + len(slots))
    return tuple(slots)


class FrameRoute:
    """A :class:`RoutingSchedule` compiled once, for every engine
    (:meth:`RoutingSchedule.route` builds and caches it).

    The kernel form: every frame gets a dense *slot* (first-appearance
    order) — its column in the ``K × len(slot_of)`` frame-value matrix
    — and every round becomes its ``(sender, dests)`` pairs in builder
    order (ascending sender, that sender's send-plan order) plus the
    slot vector of the frames those hops carry.  ``finals`` lists
    ``(destination, refs, slots)`` per destination, each in final-hop
    order.  The generator form: ``nodes[v]`` is node ``v``'s
    :class:`NodeRoute`, whose injected frames are in this slot order.
    All of it comes from one pass over the hops.
    """

    __slots__ = ("slot_of", "rounds", "finals", "nodes")

    def __init__(self, schedule: RoutingSchedule) -> None:
        n = schedule.n
        num_rounds = schedule.num_rounds
        slot_of: Dict[FrameRef, int] = {}
        rounds = []
        # Per node while compiling: the frames it injects, the frames
        # delivered to it with their slots, how many it relays, the
        # provisional slot of each frame it relays, and each round's
        # ``[dests, sent, senders, received]`` table.  A provisional
        # slot is ``3 * index + kind``, kind 0 for an injected frame, 1
        # for a final one and 2 for a relayed one, until the node's
        # counts are known.
        inject: List[List[FrameRef]] = [[] for _ in range(n)]
        final_refs: List[List[FrameRef]] = [[] for _ in range(n)]
        final_slots: List[List[int]] = [[] for _ in range(n)]
        relays = [0] * n
        relayed: List[Dict[FrameRef, int]] = [{} for _ in range(n)]
        tables: List[list] = [[None] * num_rounds for _ in range(n)]
        for r in range(num_rounds):
            sends = schedule.send_plan[r]
            recv = schedule.recv_plan[r]
            pairs = []
            slots = []
            incoming: Dict[int, Tuple[list, list]] = {}
            for sender in sorted(sends):
                held = relayed[sender]
                mine = inject[sender]
                dests = []
                sent = []
                for recipient, frame in sends[sender]:
                    slot = slot_of.setdefault(frame, len(slot_of))
                    dests.append(recipient)
                    slots.append(slot)
                    code = held.get(frame)
                    if code is None:
                        # First met on its way out: injected here, or a
                        # frame the node never receives (a broken
                        # schedule), whose slot stays empty.
                        if frame[0] == sender:
                            code = 3 * len(mine)
                            mine.append(frame)
                        else:
                            code = 3 * relays[sender] + 2
                            relays[sender] += 1
                    sent.append(code)
                    if recv[(sender, recipient)][1]:
                        code = 3 * len(final_refs[recipient]) + 1
                        final_refs[recipient].append(frame)
                        final_slots[recipient].append(slot)
                    else:
                        code = 3 * relays[recipient] + 2
                        relays[recipient] += 1
                        relayed[recipient][frame] = code
                    entry = incoming.get(recipient)
                    if entry is None:
                        incoming[recipient] = ([sender], [code])
                    else:
                        entry[0].append(sender)
                        entry[1].append(code)
                if len(set(dests)) != len(dests):
                    raise AssertionError(
                        "schedule placed two frames on one link in one round"
                    )
                tables[sender][r] = [dests, sent, (), ()]
                pairs.append((sender, dests))
            for recipient, (senders, codes) in incoming.items():
                table = tables[recipient][r]
                if table is None:
                    tables[recipient][r] = [(), (), senders, codes]
                else:
                    table[2] = senders
                    table[3] = codes
            rounds.append((pairs, np.asarray(slots, dtype=np.intp)))
        self.slot_of = slot_of
        self.rounds = rounds
        self.finals = [
            (dest, tuple(final_refs[dest]), np.asarray(final_slots[dest], dtype=np.intp))
            for dest in range(n)
            if final_refs[dest]
        ]
        self.nodes = []
        for v in range(n):
            base = (0, len(inject[v]), len(inject[v]) + len(final_refs[v]))

            def place(codes, base=base):
                return _slots([base[code % 3] + code // 3 for code in codes])

            self.nodes.append(
                NodeRoute(
                    base[2] + relays[v],
                    tuple(inject[v]),
                    tuple(final_refs[v]),
                    tuple(
                        _IDLE
                        if table is None
                        else (
                            tuple(table[0]),
                            place(table[1]),
                            tuple(table[2]),
                            place(table[3]),
                        )
                        for table in tables[v]
                    ),
                )
            )


def _too_wide(node: int, ref: FrameRef, frame_size: int) -> str:
    return f"node {node}'s frame {ref} does not fit in {frame_size} bits"


def _not_held(node: int, ref: FrameRef) -> str:
    return f"node {node} does not hold frame {ref}, which the schedule routes from it"


def _not_routed(node: int, ref: FrameRef) -> str:
    return f"node {node} holds frame {ref}, which the schedule does not route from it"


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


def _unexpected(me: int, sender: int, r: int) -> DecodeError:
    # Only nodes that disagree on the schedule (one built from a lost or
    # corrupted row) put a frame on a link this node's schedule leaves
    # idle.
    return DecodeError(
        f"node {me} got a frame from node {sender} in routing round "
        f"{r + 1}, which its schedule does not expect"
    )


def _drive_frames(
    ctx: Context,
    schedule: RoutingSchedule,
    node: NodeRoute,
    values: List[Optional[int]],
    frame_size: int,
    lengths: Optional[Mapping[Tuple[int, int], int]] = None,
):
    """The one routing driver: move this node's per-run frame list
    ``values`` (indexed by ``node``'s slots, its injected frames filled
    in, every other slot ``None``) through ``schedule`` on fixed-width
    outboxes, and return it with what arrived written into its slots.

    A slot still empty when its frame is due out fails in that round:
    an injected frame the node lacks as a ``ValueError`` (naming its
    pair and the payload ``lengths`` when given), a relayed frame that
    never arrived (an earlier hop was lost) as a :class:`DecodeError`.
    A frame from a sender the round does not expect is a
    :class:`DecodeError`; a frame that never arrives leaves its slot
    ``None``."""
    me = ctx.node_id
    for r, (dests, sends, senders, recvs) in enumerate(node.rounds):
        if dests:
            out = values[sends] if type(sends) is slice else [values[s] for s in sends]
            if None in out:
                frame = schedule.send_plan[r][me][out.index(None)][1]
                if frame[0] != me:
                    raise DecodeError(
                        f"node {me} never received frame {frame}, which it "
                        f"forwards in routing round {r + 1}"
                    )
                if lengths is None:
                    raise ValueError(_not_held(me, frame))
                pair = frame[:2]
                raise ValueError(
                    f"node {me} has no payload for pair {pair}, which "
                    f"the plan routes as {lengths[pair]} bits"
                )
            if frame_size < 1:
                raise ValueError("fixed-width messages need width >= 1 bit")
            # The compile checked that the destinations are distinct,
            # and every value is a plain uint; the network checks the
            # rest when the outbox is yielded.
            outbox = Outbox("fixed", None, None, dests, tuple(out), frame_size, True)
        else:
            outbox = Outbox.silent()
        inbox = yield outbox
        if not senders:
            if len(inbox):
                raise _unexpected(me, inbox_uints(inbox)[0][0], r)
            continue
        got = inbox_uints(inbox)
        if len(got) == len(senders):
            got_senders, got_values = zip(*got)
            if got_senders == senders:
                if type(recvs) is slice:
                    values[recvs] = got_values
                else:
                    for slot, value in zip(recvs, got_values):
                        values[slot] = value
                continue
        # A frame is missing, or one came from an unexpected sender.
        slot_of = dict(
            zip(
                senders,
                range(recvs.start, recvs.stop) if type(recvs) is slice else recvs,
            )
        )
        for sender, value in got:
            slot = slot_of.get(sender)
            if slot is None:
                raise _unexpected(me, sender, r)
            values[slot] = value
    return values


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
    travel in fixed-width outboxes, whose rounds cross the wire as
    plain ints.  A frame that does not fit, one the
    schedule routes from this node but it does not hold, and one it
    holds but the schedule does not route from it each raise a
    ``ValueError`` naming the node and the frame: a frame that does not
    fit or is another node's (the schedule routes a frame from its
    source only) when the node starts, a frame it lacks in the round
    that first sends it, and one never sent when the schedule ends.
    A frame that never arrives is missing from the result.
    """
    me = ctx.node_id
    node = schedule.route().nodes[me]
    inject = node.inject
    # One read of the map, in slot order.  Every slot is a frame of this
    # node's, so when the map holds nothing else and every value fits,
    # the map is sound; otherwise the first bad frame in map order fails
    # the node now, and a frame of its own the schedule never sends
    # fails it after the last round.
    values: List[Optional[int]] = list(map(my_frames.get, inject))
    held = values if None not in values else [v for v in values if v is not None]
    if len(held) != len(my_frames) or (
        held and (min(held) < 0 or max(held) >> frame_size)
    ):
        bad = _bad_frame(me, my_frames, frame_size)
        if bad is not None:
            raise ValueError(bad)
    if held and set(map(type, held)) != {int}:
        # Plain ints on the wire, as ``Outbox.fixed_width`` makes them.
        values = [None if v is None else operator.index(v) for v in values]
    extra = len(my_frames) - len(held)
    values += [None] * (node.size - len(inject))
    values = yield from _drive_frames(ctx, schedule, node, values, frame_size)
    if extra:
        routed = set(inject)
        raise ValueError(_not_routed(me, next(ref for ref in my_frames if ref not in routed)))
    start = len(inject)
    delivered = values[start : start + len(node.finals)]
    if None in delivered:
        return {
            ref: value
            for ref, value in zip(node.finals, delivered)
            if value is not None
        }
    return dict(zip(node.finals, delivered))


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
    Returns ``{source: int}`` for the traffic addressed to this node; a
    payload that lost any of its frames is left out, as a payload that
    lost all of them is.  Frames are cut and joined with shifts, in the
    node's slot order; no :class:`~repro.core.bits.Bits` is built.
    Sub-generator: use ``yield from``."""
    if schedule is None:
        schedule = build_schedule(payload_demand(lengths, frame_size), ctx.n)
    me = ctx.node_id
    mask = (1 << frame_size) - 1
    # Each payload padded to whole frames: frame ``idx`` of ``count`` is
    # ``padded >> (count - 1 - idx) * frame_size``.
    padded: Dict[int, Tuple[int, int]] = {}
    frames = 0
    for dst, value in my_payloads.items():
        bits = lengths.get((me, dst), 0)
        if value < 0 or value >> bits:
            raise ValueError(
                f"payload to {dst} does not fit the {bits} bits the plan routes"
            )
        count = -(-bits // frame_size)
        padded[dst] = (operator.index(value) << (count * frame_size - bits), count)
        frames += count
    node = schedule.route().nodes[me]
    values: List[Optional[int]] = []
    held = 0
    for _src, dst, idx in node.inject:
        payload = padded.get(dst)
        if payload is None or idx >= payload[1]:
            values.append(None)
        else:
            values.append((payload[0] >> (payload[1] - 1 - idx) * frame_size) & mask)
            held += 1
    values += [None] * (node.size - len(node.inject))
    values = yield from _drive_frames(
        ctx, schedule, node, values, frame_size, lengths
    )
    if held != frames:
        routed = set(node.inject)
        raise ValueError(
            _not_routed(
                me,
                next(
                    (me, dst, idx)
                    for dst, (_value, count) in padded.items()
                    for idx in range(count)
                    if (me, dst, idx) not in routed
                ),
            )
        )
    # Join each source's frames in index order; the final hops of one
    # payload need not arrive in index order.
    parts: Dict[int, List[Optional[int]]] = {}
    start = len(node.inject)
    for (src, _dst, idx), value in zip(
        node.finals, values[start : start + len(node.finals)]
    ):
        got = parts.get(src)
        if got is None:
            got = parts[src] = [None] * -(-lengths[(src, me)] // frame_size)
        got[idx] = value
    received: Dict[int, int] = {}
    for src, got in parts.items():
        if None in got:
            continue
        word = 0
        for value in got:
            word = (word << frame_size) | value
        received[src] = word >> (len(got) * frame_size - lengths[(src, me)])
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


class ColumnRoute:
    """One node's payloads under a public schedule, compiled straight
    from and into the columns of 0/1 ``uint8`` value vectors.

    ``sends[dst]`` lists the columns of the send vector whose bits the
    node sends ``dst``, and ``recvs[src]`` the columns of the receive
    vector that ``src``'s payload fills, first bit first; ``schedule``
    routes their frames (the :func:`payload_demand` of the column
    counts).  Frames are cut exactly as :func:`route_payload_ints` cuts
    the same bits.  Compiling lays the columns of the node's frames out
    in slot order and notes each frame's bit count, so :meth:`run`
    packs the frames it injects with one gather and one ``packbits``
    and unpacks the ones delivered to it with one ``unpackbits`` and
    one scatter.
    """

    __slots__ = (
        "schedule", "node", "frame_size", "send_cols", "send_shifts",
        "send_widths", "recv_cols", "recv_widths", "recv_tail",
    )

    def __init__(
        self,
        schedule: RoutingSchedule,
        me: int,
        frame_size: int,
        sends: Mapping[int, Sequence[int]],
        recvs: Mapping[int, Sequence[int]],
    ) -> None:
        node = schedule.route().nodes[me]
        self.schedule = schedule
        self.node = node
        self.frame_size = frame_size
        parts = [
            sends[dst][idx * frame_size : (idx + 1) * frame_size]
            for _src, dst, idx in node.inject
        ]
        self.send_widths = widths = tuple(map(len, parts))
        self.send_cols = np.fromiter(
            chain.from_iterable(parts), dtype=np.intp, count=sum(widths)
        )
        # Frame ``i`` ends ``tail + (bits after it)`` bits above the end
        # of the packed bytes.
        shift = -len(self.send_cols) % 8 + len(self.send_cols)
        shifts = []
        for width in widths:
            shift -= width
            shifts.append(shift)
        self.send_shifts = tuple(shifts)
        parts = [
            recvs[src][idx * frame_size : (idx + 1) * frame_size]
            for src, _dst, idx in node.finals
        ]
        self.recv_widths = widths = tuple(map(len, parts))
        self.recv_cols = np.fromiter(
            chain.from_iterable(parts), dtype=np.intp, count=sum(widths)
        )
        self.recv_tail = -len(self.recv_cols) % 8

    def run(self, ctx: Context, send_vals: np.ndarray, recv_vals: np.ndarray):
        """Route this node's payloads out of ``send_vals`` and the ones
        addressed to it into ``recv_vals`` (sub-generator: ``yield
        from``).  Returns the sources whose payload lost a frame, in
        final-hop order; their columns read 0."""
        node = self.node
        frame_size = self.frame_size
        if self.send_widths:
            word = int.from_bytes(np.packbits(send_vals[self.send_cols]).tobytes(), "big")
            values: List[Optional[int]] = [
                ((word >> shift) & ((1 << width) - 1)) << (frame_size - width)
                for shift, width in zip(self.send_shifts, self.send_widths)
            ]
        else:
            values = []
        values += [None] * (node.size - len(node.inject))
        values = yield from _drive_frames(
            ctx, self.schedule, node, values, frame_size
        )
        if not node.finals:
            return ()
        start = len(node.inject)
        delivered = values[start : start + len(node.finals)]
        lost: Tuple[int, ...] = ()
        if None in delivered:
            lost = tuple(
                dict.fromkeys(
                    ref[0] for ref, value in zip(node.finals, delivered) if value is None
                )
            )
            delivered = [
                0 if ref[0] in lost else value
                for ref, value in zip(node.finals, delivered)
            ]
        word = 0
        for value, width in zip(delivered, self.recv_widths):
            word = (word << width) | (value >> (frame_size - width))
        tail = self.recv_tail
        data = (word << tail).to_bytes((len(self.recv_cols) + tail) // 8, "big")
        recv_vals[self.recv_cols] = np.unpackbits(
            np.frombuffer(data, dtype=np.uint8), count=len(self.recv_cols)
        )
        return lost


# -- kernel form --------------------------------------------------------
#
# Routing is the ideal kernel workload: a frame's value never changes,
# only its location does, and every hop is in the public timetable.
# Each round therefore compiles to one gather (pick the frames moving
# this round out of the frame-value matrix) and one scatter (write what
# the links delivered back into it) — no per-node stepping at all.


def kernel_route_frames(
    builder, route: FrameRoute, frame_size: int, get_values, set_values
) -> None:
    """Append ``route``'s rounds to ``builder`` as kernel rounds.

    At phase start ``get_values(state)`` must return the frame values
    in slot order, in the kernel round's payload form: a ``K ×
    len(route.slot_of)`` ``uint64`` matrix, or, for frames past
    :data:`~repro.core.kernels.NUMERIC_WIDTH_LIMIT` bits, ``K ×
    len(route.slot_of) × ⌈frame_size/8⌉`` ``uint8`` byte rows.  Every
    round sends the slots it moves and writes what the links delivered
    back into the array, so when the last hop lands
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
    each frame right-aligned in its ``⌈frame_size/8⌉`` bytes, so
    :meth:`pack` is one gather plus ``np.packbits`` and :meth:`unpack`
    its inverse scatter.  Frames of at most
    :data:`~repro.core.kernels.NUMERIC_WIDTH_LIMIT` bits travel as
    ``uint64`` values; wider ones travel as the packed grid's byte rows
    themselves, with no int built per frame.
    """

    __slots__ = ("route", "frame_size", "_nbytes", "_cols", "_positions")

    def __init__(
        self,
        order: Mapping[Tuple[int, int], Sequence[int]],
        frame_size: int,
        schedule: RoutingSchedule,
    ) -> None:
        self.route = route = schedule.route()
        self.frame_size = frame_size
        self._nbytes = -(-frame_size // 8)
        # A frame occupies one word of whole bytes with its bits right-
        # aligned: payload bit ``offset`` lands in frame ``offset //
        # frame_size`` at word bit ``word - frame_size + offset % frame_size``.
        word = 8 * self._nbytes
        lengths = np.fromiter(map(len, order.values()), dtype=np.int64, count=len(order))
        counts = -(-lengths // frame_size)
        slot_of = route.slot_of
        slots = np.fromiter(
            (
                slot_of[(src, dst, idx)]
                for (src, dst), count in zip(order, counts.tolist())
                for idx in range(count)
            ),
            dtype=np.intp,
            count=int(counts.sum()),
        )
        offsets = np.arange(int(lengths.sum())) - np.repeat(
            np.cumsum(lengths) - lengths, lengths
        )
        frames = np.repeat(np.cumsum(counts) - counts, lengths) + offsets // frame_size
        self._cols = np.fromiter(
            chain.from_iterable(order.values()), dtype=np.intp, count=len(offsets)
        )
        self._positions = slots[frames] * word + word - frame_size + offsets % frame_size

    def pack(self, bits):
        """The frame values of ``bits``' payloads: ``K × frames``
        ``uint64``, or ``K × frames × ⌈frame_size/8⌉`` byte rows past
        :data:`~repro.core.kernels.NUMERIC_WIDTH_LIMIT` bits."""
        instances = bits.shape[0]
        frames = len(self.route.slot_of)
        nbytes = self._nbytes
        grid = np.zeros((instances, frames * nbytes * 8), dtype=np.uint8)
        grid[:, self._positions] = bits.take(self._cols, axis=1)
        packed = np.packbits(grid, axis=1).reshape(instances, frames, nbytes)
        if self.frame_size > NUMERIC_WIDTH_LIMIT:
            return packed
        words = np.zeros((instances, frames, 8), dtype=np.uint8)
        words[:, :, 8 - nbytes :] = packed
        return words.view(">u8").reshape(instances, frames).astype(np.uint64)

    def unpack(self, values, bits) -> None:
        """Scatter the payload bits carried by the frame values
        ``values`` (:meth:`pack`'s form) back into their columns of
        ``bits``."""
        instances, frames = values.shape[:2]
        nbytes = self._nbytes
        if self.frame_size > NUMERIC_WIDTH_LIMIT:
            packed = values
        else:
            words = values.astype(">u8").view(np.uint8)
            packed = words.reshape(instances, frames, 8)[:, :, 8 - nbytes :]
        grid = np.unpackbits(packed.reshape(instances, frames * nbytes), axis=1)
        bits[:, self._cols] = grid.take(self._positions, axis=1)


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
    for a bad injection map, the ``ValueError`` the legacy engine
    raises first, with zero generator steps — :func:`kernel_route_frames`,
    whose rounds are one gather + one scatter over a frame-value matrix
    for all instances of a sweep at once."""
    route = schedule.route()
    n = schedule.n
    # Each node's injected frames in slot order, and where they go.
    owned = [node.inject for node in route.nodes]
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
        legacy engine's first ``ValueError`` for a bad injection map."""
        maps = [per_node or {} for per_node in inputs or [None] * n]
        frames: List[int] = []
        for v, per_node in enumerate(maps):
            if per_node.keys() != owned_keys[v]:
                break
            frames += map(per_node.__getitem__, owned[v])
        else:
            if not frames or (min(frames) >= 0 and not max(frames) >> frame_size):
                return frames
        # The legacy engine steps every node once per round, in node
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

    # Frames past the uint64 limit travel as byte rows.
    nbytes = -(-frame_size // 8) if frame_size > NUMERIC_WIDTH_LIMIT else 0

    def get_values(state):
        inputs_list = state["inputs"]
        shape = (len(inputs_list), len(route.slot_of))
        if nbytes:
            values = np.zeros(shape + (nbytes,), dtype=np.uint8)
            for k, inputs in enumerate(inputs_list):
                values[k, inject_slots] = ints_to_rows(
                    map(operator.index, injected(inputs)), nbytes
                )
        else:
            values = np.zeros(shape, dtype=np.uint64)
            for k, inputs in enumerate(inputs_list):
                values[k, inject_slots] = injected(inputs)
        return values

    def set_values(state, values):
        delivered = [[{} for _ in range(n)] for _ in range(values.shape[0])]
        for dest, refs, slots in route.finals:
            got = values[:, slots]
            for per_node, frames in zip(
                delivered, rows_to_ints(got) if nbytes else got.tolist()
            ):
                per_node[dest] = dict(zip(refs, frames))
        state["out"] = delivered

    kernel_route_frames(builder, route, frame_size, get_values, set_values)
    return builder.build(
        lambda state, kctx: state["out"], name="route_frames"
    )
