"""H-subgraph detection in CLIQUE-BCAST (Theorem 7) plus baselines.

Theorem 7: for fixed H, H-subgraph detection runs in
O(ex(n,H)/n · log n / b) rounds — guess the degeneracy bound
k = 4·ex(n,H)/n from Claim 6, run the one-round reconstruction A(G, k)
(chunked into b-bit frames), and search the reconstructed graph locally.

Soundness when reconstruction *fails* follows from Claim 6's
contrapositive: failure certifies degeneracy > 4·ex(n,H)/n, and any
graph of degeneracy > 4·ex(n,H)/n contains a subgraph of minimum degree
> 4·ex(n,H)/n >= 2·ex(n',H)·(n'/n)·(2/n')... i.e. more than ex(n', H)
edges on its n' vertices, hence a copy of H.  So the protocol always
answers the decision problem correctly; a witness is produced whenever
the reconstruction succeeds.

:func:`full_learning_program` is the trivial O(n log n / b) baseline the
paper mentions for χ(H) >= 3: every node broadcasts its adjacency row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Optional, Tuple

from repro.core.bits import Bits
from repro.core.errors import DecodeError
from repro.core.network import Mode, Network, RunResult
from repro.core.phases import transmit_broadcast_uints
from repro.graphs.graph import Edge, Graph, canonical_edge
from repro.graphs.subgraph_iso import find_embedding
from repro.graphs.turan import degeneracy_guess, ex_upper
from repro.subgraphs.becker import algorithm_a_edges

__all__ = [
    "DetectionOutcome",
    "detection_program",
    "detect_subgraph",
    "full_learning_program",
    "full_learning_detect",
    "shared_witness",
]


@dataclass(frozen=True)
class DetectionOutcome:
    """What each node outputs: the decision, an optional witness (edge
    set of a copy of H), and whether the answer came from a successful
    reconstruction or from the density (degeneracy-overflow) argument."""

    contains: bool
    witness: Optional[FrozenSet[Edge]]
    via_density: bool


def _witness(graph: Graph, pattern: Graph) -> Optional[FrozenSet[Edge]]:
    embedding = find_embedding(graph, pattern)
    if embedding is None:
        return None
    return frozenset(
        canonical_edge(embedding[u], embedding[v]) for u, v in pattern.edges()
    )


def shared_witness(
    ctx, edges: Tuple[Edge, ...], pattern: Graph
) -> Optional[FrozenSet[Edge]]:
    """A copy of ``pattern`` in the graph A(G, k) reconstructed as
    ``edges`` (:func:`~repro.subgraphs.becker.algorithm_a_edges`), as
    its edge set, or ``None``.  Every node that decoded the same
    blackboard holds the same edges, so the run's nodes share one graph
    build and one search through ``ctx.memo``."""
    key = (shared_witness, ctx.n, edges, pattern)
    memo = ctx.memo
    if key in memo:
        return memo[key]
    witness = memo[key] = _witness(Graph.from_edges(ctx.n, edges), pattern)
    return witness


def detection_program(pattern: Graph, ex_bound: Optional[int] = None):
    """Theorem 7's node program.  ``ctx.input`` = sorted adjacency list."""

    def program(ctx):
        k = degeneracy_guess(
            ctx.n,
            pattern,
            ex_upper(ctx.n, pattern) if ex_bound is None else ex_bound,
        )
        k = min(k, max(1, ctx.n - 1))
        edges = yield from algorithm_a_edges(ctx, ctx.input, k)
        if edges is None:
            # Degeneracy > 4·ex(n,H)/n certifies a copy of H exists.
            return DetectionOutcome(contains=True, witness=None, via_density=True)
        witness = shared_witness(ctx, edges, pattern)
        return DetectionOutcome(
            contains=witness is not None, witness=witness, via_density=False
        )

    return program


def detect_subgraph(
    graph: Graph,
    pattern: Graph,
    bandwidth: int,
    ex_bound: Optional[int] = None,
    seed: int = 0,
    record_transcript: bool = False,
) -> Tuple[DetectionOutcome, RunResult]:
    """Run Theorem 7's protocol on ``graph`` in CLIQUE-BCAST."""
    network = Network(
        n=graph.n,
        bandwidth=bandwidth,
        mode=Mode.BROADCAST,
        seed=seed,
        record_transcript=record_transcript,
    )
    inputs = [sorted(graph.neighbors(v)) for v in range(graph.n)]
    result = network.run(detection_program(pattern, ex_bound), inputs=inputs)
    return result.outputs[0], result


def full_learning_program(pattern: Graph):
    """The trivial baseline: broadcast the full adjacency row (n bits per
    node, O(n/b) rounds) and search locally.  For χ(H) >= 3 this matches
    Theorem 7's bound up to the log factor, as the paper notes."""

    def learn(rows: Tuple[int, ...]) -> DetectionOutcome:
        # Every node holds the same rows after the phase, so the run's
        # nodes share one build and one search through ctx.memo.
        n = len(rows)
        graph = Graph(n)
        for v in range(n):
            # Walk only the set bits of the row (bit 0 of the Bits
            # payload is the MSB of its uint, hence u = n-1-position).
            value = rows[v]
            while value:
                low = value & -value
                u = n - low.bit_length()
                if u != v:
                    graph.add_edge(v, u)
                value ^= low
        witness = _witness(graph, pattern)
        return DetectionOutcome(
            contains=witness is not None, witness=witness, via_density=False
        )

    def program(ctx):
        n = ctx.n
        me = ctx.node_id
        # Bit u of the row (counted from its first, most significant
        # bit) says whether u is a neighbour.
        row = 0
        for u in ctx.input:
            row |= 1 << (n - 1 - u)
        rows = yield from transmit_broadcast_uints(ctx, Bits(row, n), max_bits=n)
        if None in rows:
            raise DecodeError(
                f"full learning: node {me} has no adjacency row "
                f"from writer {rows.index(None)}"
            )
        key = (learn, rows)
        outcome = ctx.memo.get(key)
        if outcome is None:
            outcome = ctx.memo[key] = learn(rows)
        return outcome

    return program


def full_learning_detect(
    graph: Graph,
    pattern: Graph,
    bandwidth: int,
    seed: int = 0,
    record_transcript: bool = False,
) -> Tuple[DetectionOutcome, RunResult]:
    network = Network(
        n=graph.n,
        bandwidth=bandwidth,
        mode=Mode.BROADCAST,
        seed=seed,
        record_transcript=record_transcript,
    )
    inputs = [graph.neighbors(v) for v in range(graph.n)]
    result = network.run(full_learning_program(pattern), inputs=inputs)
    return result.outputs[0], result
