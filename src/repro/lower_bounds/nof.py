"""Theorem 24: triangle detection ⟹ 3-party NOF set disjointness.

The reduction uses the Ruzsa–Szemerédi graph G_n (Claim 23): its m =
|A|²/e^{O(√log|A|)} planted triangles are the disjointness universe.
Given NOF inputs X_A, X_B, X_C ⊆ [m], the instance graph G_X keeps

* the A–B edge of triangle t  iff  t ∈ X_C,
* the B–C edge of triangle t  iff  t ∈ X_A,
* the C–A edge of triangle t  iff  t ∈ X_B,

(each edge of G_n lies in exactly one planted triangle, so the rule is
total).  G_X contains a triangle iff some t lies in all three sets —
and crucially each party can build the rows of the nodes it simulates
from the two inputs on the *other* players' foreheads, which is exactly
the number-on-forehead information structure.

Executing a CLIQUE-BCAST triangle-detection protocol on G_X therefore
solves NOF-DISJ_m with n·b·R + 1 bits, so
R >= R_3-NOF(DISJ_m)/(n·b) — Theorem 24.  Plugging in the known NOF
bounds: Ω(m) deterministic (Rao–Yehudayoff) gives Corollary 25's
Ω(n/(e^{O(√log n)} b)); the randomized Ω(√m) (Sherstov) is just shy of
non-trivial, as the paper discusses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import AbstractSet, Optional

from repro.core.network import Mode, Network
from repro.graphs.generators import cycle_graph
from repro.graphs.graph import Graph
from repro.graphs.ruzsa_szemeredi import RuzsaSzemerediGraph, rs_graph
from repro.subgraphs.detection import full_learning_program

__all__ = [
    "nof_instance_graph",
    "NOFReductionRun",
    "NOFTriangleReduction",
    "nof_disj_deterministic_bits",
    "nof_disj_randomized_bits",
    "implied_triangle_rounds",
]

_TRIANGLE = cycle_graph(3)


def nof_instance_graph(
    rs: RuzsaSzemerediGraph,
    x_a: AbstractSet[int],
    x_b: AbstractSet[int],
    x_c: AbstractSet[int],
) -> Graph:
    """Build G_X from the three forehead sets (indices into
    ``rs.triangles``)."""
    instance = Graph(rs.graph.n)
    for t, (a, b, c) in enumerate(rs.triangles):
        if t in x_c:
            instance.add_edge(a, b)
        if t in x_a:
            instance.add_edge(b, c)
        if t in x_b:
            instance.add_edge(a, c)
    return instance


@dataclass(frozen=True)
class NOFReductionRun:
    disjoint: bool
    triangle_found: bool
    rounds: int
    blackboard_bits: int
    bits_by_party: tuple

    @property
    def total_communication(self) -> int:
        return self.blackboard_bits + 1


class NOFTriangleReduction:
    """Solve 3-party NOF DISJ over the planted triangles of G_n."""

    def __init__(
        self,
        class_size: int,
        bandwidth: int,
        seed: int = 0,
        rs: Optional[RuzsaSzemerediGraph] = None,
    ) -> None:
        self.rs = rs if rs is not None else rs_graph(class_size)
        self.bandwidth = bandwidth
        self.seed = seed
        self._program = full_learning_program(_TRIANGLE)

    @property
    def universe_size(self) -> int:
        return self.rs.triangle_count

    def solve(
        self,
        x_a: AbstractSet[int],
        x_b: AbstractSet[int],
        x_c: AbstractSet[int],
    ) -> NOFReductionRun:
        instance = nof_instance_graph(self.rs, x_a, x_b, x_c)
        network = Network(
            n=instance.n,
            bandwidth=self.bandwidth,
            mode=Mode.BROADCAST,
            seed=self.seed,
            record_transcript=True,
        )
        inputs = [sorted(instance.neighbors(v)) for v in range(instance.n)]
        result = network.run(self._program, inputs=inputs)
        outcome = result.outputs[0]
        parts = self.rs.parts
        bits = [0, 0, 0]
        for record in result.transcript or ():
            for sender, _receiver, payload in record.sends:
                for which, part in enumerate(parts):
                    if sender in part:
                        bits[which] += len(payload)
                        break
        return NOFReductionRun(
            disjoint=not outcome.contains,
            triangle_found=outcome.contains,
            rounds=result.rounds,
            blackboard_bits=result.total_bits,
            bits_by_party=tuple(bits),
        )


def nof_disj_deterministic_bits(universe: int) -> int:
    """Rao–Yehudayoff: deterministic 3-NOF DISJ_N needs Ω(N) bits; we
    report the bound with constant 1 (the paper states Ω(N))."""
    return universe


def nof_disj_randomized_bits(universe: int) -> int:
    """Sherstov: randomized 3-NOF DISJ_N needs Ω(√N) bits."""
    return int(math.isqrt(universe))


def implied_triangle_rounds(
    universe: int, n_players: int, bandwidth: int, deterministic: bool = True
) -> int:
    """Theorem 24's round bound: R >= f(m)/(n·b)."""
    bits = (
        nof_disj_deterministic_bits(universe)
        if deterministic
        else nof_disj_randomized_bits(universe)
    )
    return max(1, bits // max(1, n_players * bandwidth))
