"""Algorithm A: one-round reconstruction of low-degeneracy graphs.

This is the Becker et al. [2] primitive both Theorem 7 and Theorem 9
consume: run on a graph of degeneracy at most k, every node broadcasts a
single O(k log n)-bit message from which *all* nodes deterministically
reconstruct the entire topology; if the degeneracy exceeds k, all nodes
learn that instead (the ``success`` flag of the paper's pseudocode).

Our encoding (README "Departures from the paper" #2): each node
broadcasts its degree plus a capacity-k BCH power-sum sketch of its
neighbour set (:mod:`repro.sketch`).  Decoding peels low-residual nodes exactly along
a degeneracy order:

* a graph of degeneracy <= k always has a node whose *residual* (not yet
  learned) neighbourhood has size <= k — its sketch decodes;
* learned edges are subtracted from both endpoint sketches, shrinking
  residuals until everything decodes.

If at some point no undecoded node has residual <= k, the input graph's
degeneracy exceeds k (failure is *certified*: the peeling order of a
k-degenerate graph always makes progress).

The decoder is a pure deterministic function of the blackboard, so all
nodes compute identical results: the nodes of one run share one decode
of a blackboard through ``ctx.memo``, which holds the learned edges as
a tuple.  :func:`algorithm_a_edges` returns that shared tuple, and
:func:`algorithm_a` builds each node its own :class:`Graph` from it.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.core.bits import BitReader, Bits, BitWriter
from repro.core.errors import DecodeError
from repro.core.network import Context
from repro.core.phases import transmit_broadcast
from repro.graphs.graph import Edge, Graph
from repro.sketch.gf2m import GF2m, field_for_universe
from repro.sketch.set_sketch import SetSketch

__all__ = [
    "message_bits",
    "encode_neighborhood",
    "decode_blackboard",
    "reconstruct",
    "algorithm_a",
    "algorithm_a_edges",
]


def _field(n: int) -> GF2m:
    return field_for_universe(n)  # elements 1..n encode vertices 0..n-1


def _degree_width(n: int) -> int:
    return max(1, (n - 1).bit_length())


def message_bits(n: int, k: int) -> int:
    """Exact broadcast size of A(·, k) on n nodes: degree + k syndromes.

    This is the O(k log n) of [2]; with bandwidth b the phase layer turns
    it into ⌈(header + message)/b⌉ rounds.
    """
    return _degree_width(n) + k * _field(n).m


def encode_neighborhood(n: int, k: int, neighbors: Sequence[int]) -> Bits:
    """The broadcast message of one node: degree, then the sketch."""
    field = _field(n)
    writer = BitWriter()
    writer.write_uint(len(neighbors), _degree_width(n))
    sketch = SetSketch(field, k, (v + 1 for v in neighbors))
    writer.write_bits(sketch.to_bits())
    return writer.getvalue()


def _parse_message(n: int, k: int, message: Bits) -> Tuple[int, SetSketch]:
    field = _field(n)
    reader = BitReader(message)
    degree = reader.read_uint(_degree_width(n))
    sketch = SetSketch.from_bits(field, k, reader.read_bits(k * field.m))
    return degree, sketch


def decode_blackboard(
    n: int, k: int, messages: Sequence[Bits]
) -> Optional[Graph]:
    """Reconstruct the graph from all n broadcast messages, or return
    None (degeneracy > k).  A pure function: each call builds a fresh
    graph."""
    edges = _peel(n, k, messages)
    return None if edges is None else Graph.from_edges(n, edges)


def _peel(n: int, k: int, messages: Sequence[Bits]) -> Optional[Tuple[Edge, ...]]:
    """The peeling decoder behind :func:`decode_blackboard`: the edges it
    learns, each as the ``(v, u)`` it learns it from, in the order it
    learns them (so a graph built from them matches the decoder's own),
    or None."""
    degrees: List[int] = []
    sketches: List[SetSketch] = []
    for message in messages:
        degree, sketch = _parse_message(n, k, message)
        degrees.append(degree)
        sketches.append(sketch)

    universe = range(1, n + 1)
    # The graph checks each edge as it is learned, as the decoder has
    # always done; the edges are its result.
    graph = Graph(n)
    learned: List[Edge] = []
    known = [0] * n
    done = [False] * n
    remaining = n
    while remaining:
        progressed = False
        for v in range(n):
            if done[v]:
                continue
            residual = degrees[v] - known[v]
            if residual > k:
                continue
            decoded = sketches[v].decode(universe, expected_size=residual)
            if decoded is None:
                # An honest blackboard never fails here; an inconsistent
                # one (possible only outside the engine) is a failure.
                return None
            done[v] = True
            remaining -= 1
            progressed = True
            for element in decoded:
                u = element - 1
                graph.add_edge(v, u)
                learned.append((v, u))
                known[u] += 1
                sketches[u].toggle(v + 1)
            sketches[v] = SetSketch(sketches[v].field, k)  # now empty
        if not progressed:
            return None  # certified: degeneracy > k
    return tuple(learned)


def reconstruct(graph: Graph, k: int) -> Optional[Graph]:
    """Offline round-trip (no engine): encode all nodes, decode."""
    n = graph.n
    messages = [
        encode_neighborhood(n, k, sorted(graph.neighbors(v))) for v in range(n)
    ]
    return decode_blackboard(n, k, messages)


def algorithm_a(ctx: Context, neighbors: Sequence[int], k: int):
    """One execution of A(G, k) from inside a node program (sub-generator).

    ``neighbors`` is this node's adjacency list in G (which may be a
    sampled subgraph, per Theorem 9).  Returns (success, graph-or-None),
    each call its own graph.
    """
    edges = yield from algorithm_a_edges(ctx, neighbors, k)
    if edges is None:
        return False, None
    return True, Graph.from_edges(ctx.n, edges)


def algorithm_a_edges(ctx: Context, neighbors: Sequence[int], k: int):
    """:func:`algorithm_a` without the graph build (sub-generator): the
    learned edges, in the order the decoder learns them, or ``None``
    when the degeneracy exceeds ``k``.  Every node that decoded the same
    blackboard gets the same tuple, so a function of the reconstructed
    graph can be computed once per run through ``ctx.memo``."""
    n = ctx.n
    message = encode_neighborhood(n, k, neighbors)
    limit = message_bits(n, k)
    received = yield from transmit_broadcast(ctx, message, max_bits=limit)
    blackboard = []
    for v in range(n):
        if v == ctx.node_id:
            blackboard.append(message)
            continue
        payload = received.get(v)
        if payload is None:
            raise DecodeError(
                f"A(G, k): node {ctx.node_id} has no message from writer {v}"
            )
        blackboard.append(payload)
    key = (_peel, n, k, tuple(blackboard))
    memo = ctx.memo
    if key in memo:
        return memo[key]
    edges = memo[key] = _peel(n, k, key[3])
    return edges
