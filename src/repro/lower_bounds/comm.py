"""Lemma 13: subgraph detection ⟹ 2-party set disjointness, executed.

The reduction is run *literally*: given a lower-bound graph and inputs
X, Y ⊆ E_F, the players build the instance graph, simulate the chosen
CLIQUE-BCAST detection protocol on it (each party simulating the nodes
it owns), and read the answer off the detection outcome.  The engine's
transcript charges every broadcast bit to the owning party, so the
reduction's cost accounting — at most n·b bits per round on the
blackboard — is measured, not assumed.

Combined with the classical fooling-set bound D(DISJ_m) >= m (indeed
the exact value is m+1), a detection algorithm running in R rounds
yields a DISJ protocol with n·b·R + O(1) bits, so R = Ω(m/(n·b)) —
that is Lemma 13, and with the Lemma 14/18/21 graphs it instantiates
Theorems 15, 19 and 22.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Optional

from repro.core.network import Mode, Network
from repro.lower_bounds.lb_graphs import LowerBoundGraph
from repro.subgraphs.detection import detection_program, full_learning_program

__all__ = [
    "sets_disjoint",
    "deterministic_disj_bits_lower_bound",
    "implied_round_lower_bound",
    "ReductionRun",
    "DisjointnessReduction",
]


def sets_disjoint(x: AbstractSet[int], y: AbstractSet[int]) -> bool:
    return not (set(x) & set(y))


def deterministic_disj_bits_lower_bound(universe: int) -> int:
    """D(DISJ_m) >= m via the classical fooling set {(S, S̄)}: the 2^m
    pairs (S, complement) pairwise fool any protocol, so at least
    log2(2^m) = m bits are required (Kushilevitz–Nisan §1.3)."""
    return universe


def implied_round_lower_bound(
    universe: int, n: int, bandwidth: int, cut_edges: Optional[int] = None
) -> int:
    """Rounds forced by Lemma 13.

    CLIQUE-BCAST: each round writes at most n·b blackboard bits, so
    R >= m/(n·b).  If ``cut_edges`` is given (a δ-sparse construction),
    the CONGEST-UCAST variant applies: each round at most cut·b bits
    cross the partition, so R >= m/(cut·b).
    """
    capacity = (cut_edges if cut_edges is not None else n) * bandwidth
    return max(1, -(-deterministic_disj_bits_lower_bound(universe) // capacity))


@dataclass(frozen=True)
class ReductionRun:
    """One execution of the Lemma 13 reduction."""

    disjoint: bool
    detection_found: bool
    rounds: int
    blackboard_bits: int
    alice_bits: int
    bob_bits: int

    @property
    def total_communication(self) -> int:
        """Bits of 2-party communication the simulation used (every
        broadcast bit is visible to the other party, plus 1 answer bit)."""
        return self.blackboard_bits + 1


class DisjointnessReduction:
    """Solve DISJ over E_F by simulating an H-detection protocol."""

    def __init__(
        self,
        lbg: LowerBoundGraph,
        bandwidth: int,
        detector: str = "theorem7",
        ex_bound: Optional[int] = None,
        seed: int = 0,
    ) -> None:
        self.lbg = lbg
        self.bandwidth = bandwidth
        self.seed = seed
        if detector == "theorem7":
            self._program = detection_program(lbg.pattern, ex_bound)
        elif detector == "full":
            self._program = full_learning_program(lbg.pattern)
        else:
            raise ValueError(f"unknown detector {detector!r}")

    def solve(
        self, alice_set: AbstractSet[int], bob_set: AbstractSet[int]
    ) -> ReductionRun:
        universe = self.lbg.universe_size
        for index in set(alice_set) | set(bob_set):
            if not 0 <= index < universe:
                raise ValueError(f"element {index} outside universe [{universe}]")
        instance = self.lbg.instance_graph(alice_set, bob_set)
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
        alice_bits = 0
        bob_bits = 0
        for record in result.transcript or ():
            for sender, _receiver, payload in record.sends:
                if sender in self.lbg.alice_nodes:
                    alice_bits += len(payload)
                else:
                    bob_bits += len(payload)
        return ReductionRun(
            disjoint=not outcome.contains,
            detection_found=outcome.contains,
            rounds=result.rounds,
            blackboard_bits=result.total_bits,
            alice_bits=alice_bits,
            bob_bits=bob_bits,
        )
