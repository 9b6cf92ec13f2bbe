"""E10 (Theorem 22 / Lemma 21): K_{ℓ,m} detection needs Ω(√n/b).

The universe is the edge set of a bipartite C4-free F — the PG(2,q)
incidence graph with (q+1)(q²+q+1) = Θ(N^{3/2}) edges — so the implied
round bound grows as √n/b.
"""

from __future__ import annotations

import math
import random

from repro.analysis import Table, theorem7_round_bound
from repro.graphs import complete_bipartite
from repro.lower_bounds import (
    DisjointnessReduction,
    biclique_lower_bound_graph,
    implied_round_lower_bound,
    sets_disjoint,
    verify_lower_bound_graph,
)

from _util import emit

BANDWIDTH = 2


def test_sqrt_n_scaling(benchmark, capsys):
    table = Table(
        f"E10 Theorem 22 — K_2,2 detection: Ω(√n/b) (b={BANDWIDTH})",
        ["q", "n nodes", "|E_F|=Θ(N^1.5)", "Def. 10 verified", "LB rounds", "LB/√n", "thm7 UB"],
    )
    rates = []
    for q in (2, 3, 5):
        lbg = biclique_lower_bound_graph(2, 2, q=q)
        assert verify_lower_bound_graph(lbg) == []
        n = lbg.template.n
        lb = implied_round_lower_bound(lbg.universe_size, n, BANDWIDTH)
        rate = lb / math.sqrt(n)
        rates.append(rate)
        table.add_row(
            q,
            n,
            lbg.universe_size,
            True,
            lb,
            round(rate, 3),
            theorem7_round_bound(n, complete_bipartite(2, 2), BANDWIDTH),
        )
    emit(table, capsys, filename="e10_bipartite_lower_bound.md")
    # √n shape: the normalised rate stays within a constant band.
    assert max(rates) <= 4 * min(rates)

    benchmark(lambda: biclique_lower_bound_graph(2, 2, q=3))


def test_reduction_correctness(benchmark, capsys):
    table = Table(
        "E10 Lemma 21 — executed reduction on K_2,2 instances",
        ["case", "disjoint truth", "answer", "rounds", "blackboard bits"],
    )
    lbg = biclique_lower_bound_graph(2, 2, q=2)
    reduction = DisjointnessReduction(lbg, bandwidth=BANDWIDTH)
    rng = random.Random(8)
    m = lbg.universe_size
    for idx in range(3):
        x = {i for i in range(m) if rng.random() < 0.3}
        y = {i for i in range(m) if rng.random() < 0.3}
        run = reduction.solve(x, y)
        assert run.disjoint == sets_disjoint(x, y)
        table.add_row(
            idx, sets_disjoint(x, y), run.disjoint, run.rounds, run.blackboard_bits
        )
    emit(table, capsys, filename="e10_reduction_execution.md")

    benchmark(lambda: reduction.solve({0, 1}, {2}))
