"""Deterministic routing schedules for balanced demands.

This is the library's stand-in for Lenzen's O(1)-round routing [28]
(README "Departures from the paper" #1).  In every use inside the
paper the demand pattern is public (derivable from the circuit
structure and the gate assignment), so all nodes can compute the same
schedule locally:

1. The demand is expressed in *frames* (each at most the bandwidth, so
   one frame = one link per round).
2. Frames are viewed as edges of a bipartite multigraph (sources ×
   destinations) and properly edge-coloured greedily (≤ 2Δ−1 colours
   where Δ is the max number of frames at any node).
3. Colour class c travels via intermediate node c mod n: phase 1 sends
   each frame source → intermediate in round ⌊c/n⌋, phase 2 forwards
   intermediate → destination in round ⌊c/n⌋ of the second phase.

Within one colour class each node is the source of at most one frame and
the destination of at most one frame, and each (phase, round-slot,
residue) triple selects a unique colour — so every link carries at most
one frame per round.  Total rounds: 2·⌈C/n⌉ ≤ 2·⌈(2Δ−1)/n⌉, which is
O(1) whenever every node sends and receives O(n) frames — exactly the
"balanced demand" regime of [28] that Theorem 2 consumes.

A direct schedule (round t ships the t-th frame of every pair) is used
instead whenever it is at least as fast (max per-pair multiplicity ≤
two-phase rounds).  A proper colouring needs at least Δ colours, so the
two-phase schedule takes at least 2·⌈Δ/n⌉ rounds; when the multiplicity
is within that, the direct schedule wins whatever the colouring, and no
colouring is computed.

A schedule is data, fixed before any node runs, so it is compiled once
rather than interpreted per run: :meth:`RoutingSchedule.route` builds
its :class:`~repro.routing.lenzen.FrameRoute` (the kernel form's frame
slots and every node's slot tables) in one pass over the hops and
caches it on the schedule.  ``send_plan`` and ``recv_plan`` stay the
schedule's public, readable form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Mapping, Tuple

if TYPE_CHECKING:
    from repro.routing.lenzen import FrameRoute

__all__ = ["FrameRef", "RoutingSchedule", "build_schedule"]

# A frame is identified by (source, destination, index within the pair).
FrameRef = Tuple[int, int, int]


@dataclass
class RoutingSchedule:
    """A fully deterministic, globally known frame-by-frame timetable.

    ``send_plan[r][node]`` lists ``(recipient, frame)`` pairs node must
    transmit in round r; ``recv_plan[r][(sender, receiver)]`` names the
    frame that hop carries.  ``final_hop[frame]`` is the round in which
    the frame reaches its destination.
    """

    n: int
    num_rounds: int
    send_plan: List[Dict[int, List[Tuple[int, FrameRef]]]] = field(default_factory=list)
    recv_plan: List[Dict[Tuple[int, int], Tuple[FrameRef, bool]]] = field(default_factory=list)

    def describe(self) -> str:
        frames = sum(
            len(sends) for rnd in self.send_plan for sends in rnd.values()
        )
        return f"RoutingSchedule(rounds={self.num_rounds}, hops={frames})"

    def route(self) -> "FrameRoute":
        """This schedule compiled (:class:`~repro.routing.lenzen.FrameRoute`):
        the kernel form's frame slots and every node's slot tables, built
        in one pass over the hops at the first call and shared by every
        later run on every engine.  A cache, not schedule content — it
        stays out of the schedule's equality and pickled state — so a
        schedule must not be edited once it is compiled."""
        route = self.__dict__.get("_route")
        if route is None:
            from repro.routing.lenzen import FrameRoute

            route = self._route = FrameRoute(self)
        return route

    def __getstate__(self):
        state = self.__dict__.copy()
        state.pop("_route", None)
        return state


def _greedy_edge_coloring(frames: List[FrameRef]) -> Tuple[List[int], int]:
    """Proper edge colouring of the frame multigraph: no two frames with
    the same source or same destination share a colour.  Greedy uses at
    most deg(src)+deg(dst)-1 ≤ 2Δ-1 colours."""
    used_as_source: Dict[int, set] = {}
    used_as_dest: Dict[int, set] = {}
    colors: List[int] = []
    max_color = -1
    for src, dst, _ in frames:
        src_used = used_as_source.setdefault(src, set())
        dst_used = used_as_dest.setdefault(dst, set())
        color = 0
        while color in src_used or color in dst_used:
            color += 1
        colors.append(color)
        src_used.add(color)
        dst_used.add(color)
        max_color = max(max_color, color)
    return colors, max_color + 1


def build_schedule(demand: Mapping[Tuple[int, int], int], n: int) -> RoutingSchedule:
    """Build the routing timetable for ``demand[(src, dst)] = #frames``.

    Self-pairs are rejected (local data needs no routing); zero-count
    pairs are ignored.
    """
    pairs: List[Tuple[int, int, int]] = []
    sent: Dict[int, int] = {}
    received: Dict[int, int] = {}
    max_multiplicity = 0
    for (src, dst), count in sorted(demand.items()):
        if count <= 0:
            continue
        if src == dst:
            raise ValueError("demand may not contain self-pairs")
        if not (0 <= src < n and 0 <= dst < n):
            raise ValueError(f"demand pair ({src},{dst}) out of range")
        max_multiplicity = max(max_multiplicity, count)
        pairs.append((src, dst, count))
        sent[src] = sent.get(src, 0) + count
        received[dst] = received.get(dst, 0) + count

    if not pairs:
        return RoutingSchedule(n=n, num_rounds=0)

    # Every colouring uses at least Δ colours, so two-phase routing takes
    # at least 2·⌈Δ/n⌉ rounds: within that the direct schedule wins
    # whatever the colouring.
    delta = max(max(sent.values()), max(received.values()))
    if max_multiplicity <= 2 * -(-delta // n):
        return _direct_schedule(pairs, n, max_multiplicity)

    frames: List[FrameRef] = [
        (src, dst, idx) for src, dst, count in pairs for idx in range(count)
    ]
    colors, num_colors = _greedy_edge_coloring(frames)
    slots = -(-num_colors // n)  # ⌈C/n⌉
    if max_multiplicity <= 2 * slots:
        return _direct_schedule(pairs, n, max_multiplicity)
    return _two_phase_schedule(frames, colors, slots, n)


def _direct_schedule(
    pairs: List[Tuple[int, int, int]], n: int, rounds: int
) -> RoutingSchedule:
    """Round ``r`` ships frame ``r`` of every ``(src, dst, count)`` pair
    with ``count > r``; ``pairs`` is sorted."""
    schedule = RoutingSchedule(n=n, num_rounds=rounds)
    for r in range(rounds):
        sends: Dict[int, List[Tuple[int, FrameRef]]] = {}
        recvs: Dict[Tuple[int, int], Tuple[FrameRef, bool]] = {}
        for src, dst, count in pairs:
            if r < count:
                frame: FrameRef = (src, dst, r)
                sends.setdefault(src, []).append((dst, frame))
                recvs[(src, dst)] = (frame, True)
        schedule.send_plan.append(sends)
        schedule.recv_plan.append(recvs)
    return schedule


def _two_phase_schedule(
    frames: List[FrameRef],
    colors: List[int],
    slots: int,
    n: int,
) -> RoutingSchedule:
    schedule = RoutingSchedule(n=n, num_rounds=2 * slots)
    phase1_sends: List[Dict[int, List[Tuple[int, FrameRef]]]] = [
        {} for _ in range(slots)
    ]
    phase1_recvs: List[Dict[Tuple[int, int], Tuple[FrameRef, bool]]] = [
        {} for _ in range(slots)
    ]
    phase2_sends: List[Dict[int, List[Tuple[int, FrameRef]]]] = [
        {} for _ in range(slots)
    ]
    phase2_recvs: List[Dict[Tuple[int, int], Tuple[FrameRef, bool]]] = [
        {} for _ in range(slots)
    ]
    for frame, color in zip(frames, colors):
        src, dst, _ = frame
        intermediate = color % n
        slot = color // n
        if intermediate != src:
            phase1_sends[slot].setdefault(src, []).append((intermediate, frame))
            phase1_recvs[slot][(src, intermediate)] = (frame, intermediate == dst)
        holder = intermediate
        if holder != dst:
            phase2_sends[slot].setdefault(holder, []).append((dst, frame))
            phase2_recvs[slot][(holder, dst)] = (frame, True)
    schedule.send_plan = phase1_sends + phase2_sends
    schedule.recv_plan = phase1_recvs + phase2_recvs
    return schedule
