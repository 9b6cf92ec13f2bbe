"""E9 (Theorem 19 / Lemma 18): C_ℓ detection needs Ω(ex(n,C_ℓ)/(n·b)),
in CLIQUE-BCAST and (δ-sparse cut) in CONGEST.

Odd cycles carry |E_F| = N²/4 (quadratic — polynomially hard); C4
carries Θ(N^{3/2}); the sparse cut of exactly N path edges gives the
CONGEST variant an extra factor n/cut.
"""

from __future__ import annotations

import random

from repro.analysis import Table, theorem7_round_bound
from repro.graphs import cycle_graph
from repro.lower_bounds import (
    DisjointnessReduction,
    cycle_lower_bound_graph,
    implied_round_lower_bound,
    sets_disjoint,
    verify_lower_bound_graph,
)

from _util import emit

BANDWIDTH = 4


def test_universe_and_bounds(benchmark, capsys):
    table = Table(
        f"E9 Theorem 19 — cycle detection lower bounds (b={BANDWIDTH})",
        ["ℓ", "N", "n nodes", "|E_F|", "Def. 10 verified", "cut(A,B)", "BCAST LB", "CONGEST LB (cut=N)", "thm7 UB"],
    )
    for ell, sides in ((4, (6, 10, 14)), (5, (6, 10, 14)), (6, (8, 12))):
        for big_n in sides:
            lbg = cycle_lower_bound_graph(ell, big_n, rng=random.Random(ell))
            assert verify_lower_bound_graph(lbg) == []
            # δ-sparse: the template edges between Alice's and Bob's
            # nodes, recounted, are the N path middles the CONGEST bound
            # charges.
            alice = lbg.alice_nodes
            cut = [e for e in lbg.template.edges() if (e[0] in alice) != (e[1] in alice)]
            assert len(cut) == lbg.cut_edges == big_n
            n = lbg.template.n
            bcast_lb = implied_round_lower_bound(lbg.universe_size, n, BANDWIDTH)
            congest_lb = implied_round_lower_bound(
                lbg.universe_size, n, BANDWIDTH, cut_edges=lbg.cut_edges
            )
            ub = theorem7_round_bound(n, cycle_graph(ell), BANDWIDTH)
            table.add_row(
                ell, big_n, n, lbg.universe_size, True, len(cut),
                bcast_lb, congest_lb, ub,
            )
            assert congest_lb >= bcast_lb
    emit(table, capsys, filename="e9_cycle_lower_bound.md")

    benchmark(lambda: cycle_lower_bound_graph(5, 10))


def test_odd_cycle_quadratic_universe(benchmark, capsys):
    """Odd ℓ: |E_F| = (N/2)² — the polynomially-hard case the paper
    contrasts with bipartite H."""
    table = Table(
        "E9 Theorem 19 — odd-cycle universe grows quadratically",
        ["N", "|E_F|", "N²/4"],
    )
    for big_n in (8, 16, 32):
        lbg = cycle_lower_bound_graph(5, big_n)
        table.add_row(big_n, lbg.universe_size, big_n * big_n // 4)
        assert lbg.universe_size == big_n * big_n // 4
    emit(table, capsys, filename="e9_odd_cycle_universe.md")

    benchmark(lambda: cycle_lower_bound_graph(5, 16))


def test_reduction_correctness(benchmark, capsys):
    table = Table(
        "E9 Lemma 18 — executed reduction on C5 instances",
        ["case", "disjoint truth", "answer", "rounds"],
    )
    lbg = cycle_lower_bound_graph(5, 6)
    reduction = DisjointnessReduction(lbg, bandwidth=BANDWIDTH)
    rng = random.Random(0)
    m = lbg.universe_size
    for idx in range(3):
        x = {i for i in range(m) if rng.random() < 0.35}
        y = {i for i in range(m) if rng.random() < 0.35}
        run = reduction.solve(x, y)
        assert run.disjoint == sets_disjoint(x, y)
        table.add_row(idx, sets_disjoint(x, y), run.disjoint, run.rounds)
    emit(table, capsys, filename="e9_reduction_execution.md")

    benchmark(lambda: reduction.solve({0}, {0}))
