"""Lemma 14: the (K_ℓ, K_{N,N})-lower-bound graph.

Construction (see README "Departures from the paper" #6 for the
ownership reading):
four N-sets S1..S4 plus ℓ−4 universal vertices.

* template edges: perfect matchings S1–S2 and S3–S4 (index-wise),
  complete bicliques S1×S4 and S2×S3, universal vertices joined to all
  S-vertices and to each other;
* input-controlled edges: the biclique S1×S3 is F_A (Alice), S2×S4 is
  F_B (Bob); F = K_{N,N}.

For an F-edge e = (i, j): the four vertices v1_i, v2_i, v3_j, v4_j plus
the universal vertices form K_ℓ iff both φ_A(e) = {v1_i, v3_j} and
φ_B(e) = {v2_i, v4_j} are present — every other pair among them is
template.  Conversely each S-set is independent, so a K_ℓ picks exactly
one vertex per S-set, and the matchings force the indices to align:
condition (II) of Definition 10 holds (verified mechanically in the
tests).  With |E_F| = N² = Θ(n²), Lemma 13 yields Theorem 15's Ω(n/b).
"""

from __future__ import annotations

from typing import Optional

from repro.graphs.generators import complete_bipartite, complete_graph
from repro.graphs.graph import Graph
from repro.lower_bounds.lb_graphs import LowerBoundGraph

__all__ = ["clique_lower_bound_graph"]


def clique_lower_bound_graph(
    clique_size: int, side: int, total_nodes: Optional[int] = None
) -> LowerBoundGraph:
    """Build the Lemma 14 graph for H = K_ℓ with |F| = K_{side,side}.

    ``total_nodes`` optionally pads with isolated vertices (the paper's
    "add isolated nodes" step) to reach a target player count n.
    """
    if clique_size < 4:
        raise ValueError("Lemma 14 needs clique size >= 4")
    if side < 1:
        raise ValueError("need side >= 1")
    big_n = side
    base = 4 * big_n + (clique_size - 4)
    n = base if total_nodes is None else total_nodes
    if n < base:
        raise ValueError(f"need at least {base} nodes")

    def s(block: int, i: int) -> int:
        return block * big_n + i

    universal = [4 * big_n + t for t in range(clique_size - 4)]
    template = Graph(n)
    for i in range(big_n):
        template.add_edge(s(0, i), s(1, i))  # matching S1–S2
        template.add_edge(s(2, i), s(3, i))  # matching S3–S4
    for i in range(big_n):
        for j in range(big_n):
            template.add_edge(s(0, i), s(3, j))  # S1 × S4 (template)
            template.add_edge(s(1, i), s(2, j))  # S2 × S3 (template)
            template.add_edge(s(0, i), s(2, j))  # S1 × S3 = F_A
            template.add_edge(s(1, i), s(3, j))  # S2 × S4 = F_B
    core = [s(block, i) for block in range(4) for i in range(big_n)]
    for t, u in enumerate(universal):
        for v in core:
            template.add_edge(u, v)
        for u2 in universal[t + 1 :]:
            template.add_edge(u, u2)

    f_graph = complete_bipartite(big_n, big_n)
    f_edges = sorted(f_graph.edges())
    phi_a = {}
    phi_b = {}
    for i in range(big_n):  # side L of F
        phi_a[i] = s(0, i)
        phi_b[i] = s(1, i)
    for j in range(big_n):  # side R of F
        phi_a[big_n + j] = s(2, j)
        phi_b[big_n + j] = s(3, j)

    extras = universal + list(range(base, n))
    alice = (
        {s(0, i) for i in range(big_n)}
        | {s(2, i) for i in range(big_n)}
        | set(extras[: len(extras) // 2])
    )
    bob = set(range(n)) - alice

    return LowerBoundGraph(
        name=f"K{clique_size}-lower-bound(N={big_n})",
        template=template,
        pattern=complete_graph(clique_size),
        f_graph=f_graph,
        f_edges=f_edges,
        phi_a=phi_a,
        phi_b=phi_b,
        alice_nodes=alice,
        bob_nodes=bob,
        cut_edges=None,  # the bicliques cross the cut: not δ-sparse
    )
