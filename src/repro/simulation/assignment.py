"""Gate-to-player assignment for Theorem 2's circuit simulation.

The paper sets s = wires/n², calls a gate *heavy* when its weight
w(G) = |in(G)| + |out(G)| is large, assigns each heavy gate to a unique
player, and packs light gates so no player carries more than O(n·s)
weight.  We use threshold 2·n·s for heaviness (so at most n gates are
heavy, since total weight is exactly 2·wires ≤ 2·n²·s) and capacity
4·n·s for light packing, which the same counting argument shows is
always feasible (see README "Departures from the paper" #4 — the
constants differ from the paper's prose, which double-counts wires,
but the O(·) behaviour is identical).

Constant gates are special: their values are public, so they are
excluded from all communication and carry no weight.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Set

from repro.circuits.circuit import CONST_KIND, Circuit

__all__ = ["GateAssignment", "assign_gates"]


@dataclass
class GateAssignment:
    """Mapping I : gates -> players plus the parameters that shaped it."""

    owner: List[int]
    heavy: Set[int]
    s_param: int
    heavy_threshold: int
    capacity: int
    light_load: List[int] = field(default_factory=list)


def assign_gates(circuit: Circuit, n: int) -> GateAssignment:
    """Construct the assignment I of Theorem 2's proof."""
    if n < 1:
        raise ValueError("need at least one player")
    wires = circuit.wire_count()
    s_param = max(1, -(-wires // (n * n)))
    heavy_threshold = 2 * n * s_param
    capacity = 4 * n * s_param

    owner: List[int] = [0] * len(circuit)
    heavy: Set[int] = set()

    weights: Dict[int, int] = {}
    for node in circuit.nodes:
        if node.kind == CONST_KIND:
            weights[node.gate_id] = 0
        else:
            weights[node.gate_id] = circuit.weight(node.gate_id)

    heavy_ids = [
        gid
        for gid, w in weights.items()
        if w >= heavy_threshold and circuit.node(gid).kind != CONST_KIND
    ]
    if len(heavy_ids) > n:
        raise AssertionError(
            f"{len(heavy_ids)} heavy gates exceed n={n}; "
            "the counting bound guarantees this cannot happen"
        )
    for player, gid in enumerate(sorted(heavy_ids)):
        owner[gid] = player
        heavy.add(gid)

    # Pack light gates minimum-load-first; the counting argument in the
    # proof of Theorem 2 shows capacity 4·n·s never overflows.
    load = [0] * n
    heap = [(0, p) for p in range(n)]
    heapq.heapify(heap)
    light_ids = sorted(
        (gid for gid in weights if gid not in heavy),
        key=lambda gid: -weights[gid],
    )
    for gid in light_ids:
        w = weights[gid]
        if w == 0:
            owner[gid] = 0
            continue
        current, player = heapq.heappop(heap)
        if current + w > capacity:
            raise AssertionError(
                "light-gate packing overflowed its capacity; "
                "this contradicts the counting bound of Theorem 2"
            )
        owner[gid] = player
        load[player] = current + w
        heapq.heappush(heap, (current + w, player))

    return GateAssignment(
        owner=owner,
        heavy=heavy,
        s_param=s_param,
        heavy_threshold=heavy_threshold,
        capacity=capacity,
        light_load=load,
    )
