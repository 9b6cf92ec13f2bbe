"""Lemma 18: the (C_ℓ, F)-lower-bound graph for cycles of length ℓ >= 4.

Two vertex rows V_A = {vA_i}, V_B = {vB_i} (i ∈ [N]) carry the two
copies of F; each index pair (vA_i, vB_i) is joined by a template path
P_i whose length depends on the side of i:

* ⌊ℓ/2⌋ − 1 edges for i < N/2,  ⌈ℓ/2⌉ − 1 edges for i >= N/2,

so that an F-edge {i, j} (one index per side when ℓ is odd) closes a
cycle of length exactly 2 + len(P_i) + len(P_j) = ℓ through the Alice
edge {vA_i, vA_j} and the Bob edge {vB_i, vB_j}.

F is chosen C_ℓ-free and extremal:

* odd ℓ — K_{N/2,N/2} (bipartite, so no odd cycles; |E_F| = N²/4, the
  exact Turán number),
* ℓ = 4 — the Erdős–Rényi polarity graph (Θ(N^{3/2}) edges),
* even ℓ >= 6 — the certified deletion-method graph
  (README "Departures from the paper" #3).

The construction is δ-sparse (the only Alice–Bob edges are the N path
middles), so Theorem 19's bound applies to CONGEST as well.
"""

from __future__ import annotations

import random
from typing import List, Optional

from repro.graphs.extremal import dense_cycle_free_graph
from repro.graphs.generators import cycle_graph
from repro.graphs.graph import Graph
from repro.lower_bounds.lb_graphs import LowerBoundGraph

__all__ = ["cycle_lower_bound_graph"]


def cycle_lower_bound_graph(
    cycle_length: int,
    big_n: int,
    f_graph: Optional[Graph] = None,
    rng: Optional[random.Random] = None,
) -> LowerBoundGraph:
    """Build the Lemma 18 graph for H = C_ℓ on 2N + Σ(len(P_i)−1) nodes."""
    if cycle_length < 4:
        raise ValueError("Lemma 18 needs cycle length >= 4")
    if big_n % 2:
        raise ValueError("N must be even (two path-length classes)")
    ell = cycle_length
    if f_graph is None:
        f_graph = dense_cycle_free_graph(big_n, ell, rng)
    if f_graph.n != big_n:
        raise ValueError("F must live on exactly N vertices")
    if ell % 2 == 1:
        # All F-edges must cross the two path-length classes.
        half = big_n // 2
        for u, v in f_graph.edges():
            lo, hi = min(u, v), max(u, v)
            if not (lo < half <= hi):
                raise ValueError(
                    "for odd cycle lengths F must be bipartite across "
                    "[0, N/2) x [N/2, N)"
                )

    half = big_n // 2
    path_len = [
        (ell // 2 - 1) if i < half else ((ell + 1) // 2 - 1)
        for i in range(big_n)
    ]

    # vertex layout: V_A = 0..N-1, V_B = N..2N-1, then path internals.
    internals_needed = sum(max(0, p - 1) for p in path_len)
    n = 2 * big_n + internals_needed
    template = Graph(n)
    next_free = 2 * big_n
    alice_nodes = set(range(big_n))
    bob_nodes = set(range(big_n, 2 * big_n))
    cut = 0
    for i in range(big_n):
        a_end = i
        b_end = big_n + i
        p = path_len[i]
        chain: List[int] = [a_end]
        for _ in range(max(0, p - 1)):
            chain.append(next_free)
            next_free += 1
        chain.append(b_end)
        for u, v in zip(chain, chain[1:]):
            template.add_edge(u, v)
        # Split ownership at the path's middle edge; count it as cut.
        internal = chain[1:-1]
        first_half = internal[: len(internal) // 2 + len(internal) % 2]
        second_half = internal[len(first_half):]
        alice_nodes.update(first_half)
        bob_nodes.update(second_half)
        cut += 1

    for u, v in f_graph.edges():
        template.add_edge(u, v)                      # F_A on V_A
        template.add_edge(big_n + u, big_n + v)      # F_B on V_B

    phi_a = {i: i for i in range(big_n)}
    phi_b = {i: big_n + i for i in range(big_n)}

    return LowerBoundGraph(
        name=f"C{ell}-lower-bound(N={big_n})",
        template=template,
        pattern=cycle_graph(ell),
        f_graph=f_graph,
        f_edges=sorted(f_graph.edges()),
        phi_a=phi_a,
        phi_b=phi_b,
        alice_nodes=alice_nodes,
        bob_nodes=bob_nodes,
        cut_edges=cut,
    )
