"""Theorem 9: H-subgraph detection without knowing ex(n, H).

The algorithm of Section 3.1 for patterns whose Turán number is unknown:

1. Every node v draws X_v uniformly from {0..N-1} (N = largest power of
   two <= n) and broadcasts it (O(log n / b) rounds).  This defines the
   nested random subgraphs G_0 ⊇ G_1 ⊇ ... ⊇ G_ℓ with
   E_j = { {u,v} ∈ E : X_u ≡ X_v (mod 2^j) }  —  every node knows which
   of *its* edges survive in each G_j.
2. For exponentially increasing degeneracy guesses k_i = 2^i and each
   sampling level j = 0..ℓ, run A(G_j, k_i).  When a level decodes:
   a copy of H found in G_j is reported (always sound — G_j ⊆ G); a
   *negative* is accepted only at j = 0, where the decode is exact.

Note on the paper's pseudocode: the printed loop returns "no
H-subgraph" from the first successful level of *any* sparsity, but an
over-sparse sample (e.g. G_j of K_n with k_i = 2) decodes trivially
while losing every copy of H — so read literally it answers incorrectly
on dense inputs at any scale.  The accompanying text makes clear that a
negative should only be trusted when the sample's degeneracy is still
>= 4·ex(n,H)/n; since ex(n,H) is exactly what the algorithm does not
know, the sound realisation is the one above: negatives only from
level 0.  Under it, Theorem 9's statement holds verbatim — H-free
inputs terminate (deterministically correct) after the doubling search
reaches the true degeneracy <= 4·ex(n,H)/n, i.e. O(ex·log²n/(n·b))
rounds, and H-containing inputs are answered w.h.p. as soon as a
still-dense sample decodes.  Pass ``accept_sampled_negatives=True`` to
run the pseudocode as printed (used by the tests to demonstrate the
discrepancy).

G_0 = G itself, so the loop always terminates: once k_i exceeds the true
degeneracy, A(G_0, k_i) succeeds and the answer is exact.

:func:`sampled_degeneracy_profile` exposes the Lemma 8 concentration
statement (degeneracy of G_j ≈ k·2^{-j}) for direct empirical testing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Sequence, Tuple

from repro.core.bits import Bits
from repro.core.errors import DecodeError
from repro.core.network import Mode, Network, RunResult
from repro.core.phases import transmit_broadcast_uints
from repro.graphs.degeneracy import degeneracy
from repro.graphs.graph import Edge, Graph
from repro.subgraphs.becker import algorithm_a_edges
from repro.subgraphs.detection import shared_witness

__all__ = [
    "AdaptiveOutcome",
    "adaptive_program",
    "adaptive_detect",
    "sample_subgraph_edges",
    "sampled_degeneracy_profile",
]


@dataclass(frozen=True)
class AdaptiveOutcome:
    contains: bool
    witness: Optional[FrozenSet[Edge]]
    k_used: int
    level_used: int


def sample_subgraph_edges(
    graph: Graph, labels: Sequence[int], level: int
) -> Graph:
    """The sampled subgraph G_j: keep {u,v} iff X_u ≡ X_v (mod 2^j)."""
    modulus = 1 << level
    sampled = Graph(graph.n)
    for u, v in graph.edges():
        if (labels[u] - labels[v]) % modulus == 0:
            sampled.add_edge(u, v)
    return sampled


def sampled_degeneracy_profile(
    graph: Graph, labels: Sequence[int]
) -> List[Tuple[int, int]]:
    """(level j, degeneracy of G_j) for all levels — the quantity Lemma 8
    says concentrates around k·2^{-j}."""
    levels = max(1, (graph.n).bit_length() - 1)
    return [
        (j, degeneracy(sample_subgraph_edges(graph, labels, j)))
        for j in range(levels + 1)
    ]


def adaptive_program(pattern: Graph, accept_sampled_negatives: bool = False):
    """Theorem 9's node program; ``ctx.input`` = sorted adjacency list.

    ``accept_sampled_negatives`` switches to the paper's literal
    pseudocode (trust "no H" from any successful level) — unsound on
    dense inputs; see the module docstring.
    """

    def program(ctx):
        n = ctx.n
        ell = max(0, n.bit_length() - 1)  # N = 2^ell <= n
        big_n = 1 << ell

        # Step 1: broadcast the random labels X_v.
        my_label = ctx.rng.randrange(big_n)
        label_bits = max(1, ell)
        labels = yield from transmit_broadcast_uints(
            ctx, Bits.from_uint(my_label, label_bits), max_bits=label_bits
        )
        for u in ctx.input:
            if labels[u] is None:
                raise DecodeError(
                    f"adaptive detection: node {ctx.node_id} has no label "
                    f"from writer {u}"
                )

        # Our adjacency in each sampled level (only our own edges are
        # needed — exactly the local knowledge the paper uses).
        def my_neighbors(level: int) -> List[int]:
            modulus = 1 << level
            return [
                u
                for u in ctx.input
                if (labels[u] - labels[ctx.node_id]) % modulus == 0
            ]

        # Step 2: doubling guesses, all sampling levels.
        max_i = max(1, math.ceil(math.log2(max(2, n))))
        for i in range(1, max_i + 1):
            k_i = min(1 << i, max(1, n - 1))
            for j in range(ell + 1):
                edges = yield from algorithm_a_edges(ctx, my_neighbors(j), k_i)
                if edges is None:
                    continue
                witness = shared_witness(ctx, edges, pattern)
                if witness is not None:
                    return AdaptiveOutcome(True, witness, k_i, j)
                if j == 0 or accept_sampled_negatives:
                    return AdaptiveOutcome(False, None, k_i, j)
                # A sparser-level success without H proves nothing, and
                # every sparser level also decodes; move to the next k.
                break
        # Unreachable: k_i reaches n-1 >= degeneracy(G_0).
        raise AssertionError("adaptive loop failed to terminate")

    return program


def adaptive_detect(
    graph: Graph,
    pattern: Graph,
    bandwidth: int,
    seed: int = 0,
    accept_sampled_negatives: bool = False,
    record_transcript: bool = False,
) -> Tuple[AdaptiveOutcome, RunResult]:
    """Run Theorem 9's protocol on ``graph`` in CLIQUE-BCAST."""
    network = Network(
        n=graph.n,
        bandwidth=bandwidth,
        mode=Mode.BROADCAST,
        seed=seed,
        record_transcript=record_transcript,
    )
    inputs = [sorted(graph.neighbors(v)) for v in range(graph.n)]
    result = network.run(
        adaptive_program(pattern, accept_sampled_negatives), inputs=inputs
    )
    return result.outputs[0], result
