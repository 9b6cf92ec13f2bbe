"""Minimum spanning trees on the congested clique (related work [30]).

MST is *the* canonical congested-clique problem: the paper's
introduction cites Lotker–Pavlov–Patt-Shamir–Peleg [30], who achieve
O(log log n) rounds.  We implement the classical Borůvka strategy on
CLIQUE-BCAST — O(log n) phases, each a single O(log n + log W)-bit
broadcast per node:

1. every node maintains (locally, from the shared broadcast history)
   the component label of *every* node — all nodes see the same
   blackboard, so the bookkeeping stays consistent for free;
2. each phase, every node broadcasts the minimum-weight edge incident
   to it that leaves its component (or "none");
3. everyone selects, per component, the globally minimal outgoing edge
   (ties broken by the (weight, u, v) total order, which makes the
   chosen edge set a forest), adds those edges to the MST and merges
   the components locally;
4. repeat until no component has an outgoing edge.

The [30] O(log log n) algorithm accelerates step 3 by merging many
components per phase through unicast sparsification; Borůvka is the
standard baseline it improves on, and it exercises exactly the
blackboard bookkeeping pattern of the detection algorithms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Dict, Optional, Set, Tuple

from repro.core.bits import Bits
from repro.core.errors import DecodeError
from repro.core.network import Context, Mode, Network, RunResult
from repro.core.phases import transmit_broadcast_uints
from repro.graphs.graph import Edge, Graph, canonical_edge

__all__ = [
    "WeightedGraph",
    "mst_reference",
    "boruvka_message_bits",
    "boruvka_program",
    "boruvka_mst",
]


@dataclass
class WeightedGraph:
    """An undirected graph with positive integer edge weights."""

    graph: Graph
    weights: Dict[Edge, int]

    def __post_init__(self) -> None:
        for edge, weight in self.weights.items():
            if not self.graph.has_edge(*edge):
                raise ValueError(f"weight given for non-edge {edge}")
            if weight < 0:
                raise ValueError("weights must be non-negative")
        for edge in self.graph.edges():
            if edge not in self.weights:
                raise ValueError(f"edge {edge} has no weight")

    def weight(self, u: int, v: int) -> int:
        return self.weights[canonical_edge(u, v)]

    def max_weight(self) -> int:
        return max(self.weights.values(), default=0)

    def key(self, u: int, v: int) -> Tuple[int, int, int]:
        """The tie-breaking total order on edges."""
        edge = canonical_edge(u, v)
        return (self.weights[edge], edge[0], edge[1])


def mst_reference(wg: WeightedGraph) -> Set[Edge]:
    """Kruskal with the same tie-breaking order (ground truth)."""
    parent = list(range(wg.graph.n))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    chosen: Set[Edge] = set()
    for _w, u, v in sorted(wg.key(u, v) for u, v in wg.graph.edges()):
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            chosen.add(canonical_edge(u, v))
    return chosen


def boruvka_message_bits(wg: WeightedGraph) -> int:
    """Width of one phase broadcast: present flag + weight + two
    endpoints.  The minimum bandwidth :func:`boruvka_program` needs."""
    n = wg.graph.n
    id_bits = max(1, (max(0, n - 1)).bit_length())
    weight_bits = max(1, wg.max_weight().bit_length())
    return 1 + weight_bits + 2 * id_bits


def boruvka_program(wg: WeightedGraph):
    """Borůvka's node program for CLIQUE-BCAST: O(log n) phases, one
    :func:`boruvka_message_bits`-wide broadcast per node per phase;
    every node returns the same frozenset MST (minimum spanning forest
    if disconnected).  The runnable factory the scenario registry and
    :func:`boruvka_mst` share."""
    n = wg.graph.n
    id_bits = max(1, (max(0, n - 1)).bit_length())
    weight_bits = max(1, wg.max_weight().bit_length())
    message_bits = boruvka_message_bits(wg)
    phases = max(1, math.ceil(math.log2(max(2, n))))

    id_mask = (1 << id_bits) - 1
    weight_mask = (1 << weight_bits) - 1
    flag_shift = weight_bits + 2 * id_bits

    def encode(edge: Optional[Tuple[int, int]]) -> Bits:
        """The present flag, the weight and the two endpoints, first bit
        most significant (all zeros for no edge)."""
        if edge is None:
            return Bits(0, message_bits)
        u, v = edge
        weighted = (1 << weight_bits) | wg.weight(u, v)
        return Bits((((weighted << id_bits) | u) << id_bits) | v, message_bits)

    def merge(
        labels: Tuple[int, ...], board: Tuple[Optional[int], ...]
    ) -> Optional[Tuple[Tuple[int, ...], Tuple[Edge, ...]]]:
        """One phase's selection and merge as a pure function of the
        component labels and the whole blackboard (every node's message
        as a uint, ``None`` where none arrived): the new labels and the
        tree edges added, or ``None`` when no component proposed an
        edge.  Every node holding the same blackboard shares one call
        through ``ctx.memo``."""
        component = list(labels)
        proposals: Dict[int, Tuple[int, int, int]] = {}
        for writer, raw in enumerate(board):
            # The message is fixed-width (present flag is the leading
            # bit), so decode straight off the uint on the board.
            if raw is None or raw >> flag_shift == 0:
                continue
            weight = (raw >> (2 * id_bits)) & weight_mask
            u = (raw >> id_bits) & id_mask
            v = raw & id_mask
            if u >= n or v >= n:
                raise DecodeError(
                    f"Borůvka: writer {writer} proposed edge ({u}, {v}) "
                    f"with an endpoint id >= n={n}"
                )
            comp = component[u]
            key = (weight, min(u, v), max(u, v))
            if comp not in proposals or key < proposals[comp]:
                proposals[comp] = key
        if not proposals:
            return None
        # Union-find over the labels.  A label is its component's
        # smallest member, so linking the larger root under the smaller
        # keeps that true for the merged component.
        parent = list(range(n))

        def find(c: int) -> int:
            while parent[c] != c:
                parent[c] = parent[parent[c]]
                c = parent[c]
            return c

        added = []
        # Each selected edge unions two components; process them in a
        # deterministic order so all nodes stay consistent.
        for _weight, u, v in sorted(set(proposals.values())):
            cu, cv = find(component[u]), find(component[v])
            if cu == cv:
                continue
            added.append(canonical_edge(u, v))
            if cu < cv:
                parent[cv] = cu
            else:
                parent[cu] = cv
        return tuple(find(c) for c in component), tuple(added)

    def program(ctx: Context):
        me = ctx.node_id
        memo = ctx.memo
        component = tuple(range(n))
        tree: Set[Edge] = set()
        # The incident edges in key order, scanned once over all phases:
        # components only merge, so a neighbour inside this node's
        # component stays inside it.
        ranked = sorted(wg.graph.neighbors(me), key=partial(wg.key, me))
        end = len(ranked)
        at = 0

        for _phase in range(phases):
            mine = component[me]
            while at < end and component[ranked[at]] == mine:
                at += 1
            candidate: Optional[Tuple[int, int]] = (
                (me, ranked[at]) if at < end else None
            )
            board = yield from transmit_broadcast_uints(
                ctx, encode(candidate), max_bits=message_bits
            )
            key = (merge, component, board)
            if key in memo:
                merged = memo[key]
            else:
                merged = memo[key] = merge(component, board)
            if merged is None:
                break
            component, added = merged
            tree.update(added)
        return frozenset(tree)

    return program


def boruvka_mst(
    wg: WeightedGraph,
    bandwidth: int,
    seed: int = 0,
    record_transcript: bool = False,
) -> Tuple[Set[Edge], RunResult]:
    """Run Borůvka on CLIQUE-BCAST; every node outputs the same MST
    (minimum spanning forest if disconnected)."""
    network = Network(
        n=wg.graph.n,
        bandwidth=bandwidth,
        mode=Mode.BROADCAST,
        seed=seed,
        record_transcript=record_transcript,
    )
    result = network.run(boruvka_program(wg))
    first = result.outputs[0]
    assert all(out == first for out in result.outputs)
    return set(first), result
