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

The weights, the heavy set and the light order (heaviest first, ties by
gate id) come from the circuit's arrays; only the min-load packing is a
loop, over plain ints.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import List, Set

import numpy as np

from repro.circuits.circuit import CONST_CODE, Circuit

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

    constant = circuit.kind_codes == CONST_CODE
    weights = circuit.fan_ins + circuit.fan_outs
    weights[constant] = 0
    heavy_ids = np.flatnonzero((weights >= heavy_threshold) & ~constant)
    if len(heavy_ids) > n:
        raise AssertionError(
            f"{len(heavy_ids)} heavy gates exceed n={n}; "
            "the counting bound guarantees this cannot happen"
        )
    owner = np.zeros(len(circuit), dtype=np.int64)
    owner[heavy_ids] = np.arange(len(heavy_ids))
    heavy: Set[int] = set()
    for gid in heavy_ids.tolist():
        heavy.add(gid)

    # Pack light gates minimum-load-first, heaviest first (a stable sort,
    # so ties go by gate id); the counting argument in the proof of
    # Theorem 2 shows capacity 4·n·s never overflows.  Weightless gates
    # stay with player 0.
    light = np.ones(len(circuit), dtype=bool)
    light[heavy_ids] = False
    light &= weights > 0
    light_ids = np.flatnonzero(light)
    light_ids = light_ids[np.argsort(-weights[light_ids], kind="stable")]
    # A heap entry ``load * n + player`` orders as ``(load, player)``.
    heap = list(range(n))
    limit = (capacity + 1) * n
    picked = []
    for step in (weights[light_ids] * n).tolist():
        entry = heap[0]
        if entry + step >= limit:
            raise AssertionError(
                "light-gate packing overflowed its capacity; "
                "this contradicts the counting bound of Theorem 2"
            )
        picked.append(entry)
        heapq.heapreplace(heap, entry + step)
    owner[light_ids] = np.asarray(picked, dtype=np.int64) % n
    load = [0] * n
    for entry in heap:
        load[entry % n] = entry // n

    return GateAssignment(
        owner=owner.tolist(),
        heavy=heavy,
        s_param=s_param,
        heavy_threshold=heavy_threshold,
        capacity=capacity,
        light_load=load,
    )
