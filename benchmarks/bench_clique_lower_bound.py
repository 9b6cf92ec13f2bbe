"""E8 (Theorem 15 / Lemma 14): K_ℓ detection needs Ω(n/b) rounds.

The reduction is executed end-to-end: the Lemma 14 graph turns a
detection protocol into a 2-party DISJ protocol over N² elements, whose
fooling-set bound forces R >= N²/(n·b) = Ω(n/b).  The table shows the
implied lower bound growing linearly with n while the measured upper
bound (Theorem 7 on the same instances) stays within its own budget —
the sandwich the paper establishes.
"""

from __future__ import annotations

import random

from repro.analysis import Table, full_learning_round_bound
from repro.graphs import complete_graph
from repro.lower_bounds import (
    DisjointnessReduction,
    clique_lower_bound_graph,
    implied_round_lower_bound,
    sets_disjoint,
    verify_lower_bound_graph,
)
from repro.subgraphs import detect_subgraph

from _util import emit

BANDWIDTH = 4


def test_lower_bound_scaling(benchmark, capsys):
    table = Table(
        f"E8 Theorem 15 — K4 detection: implied LB Ω(n/b) vs measured UB (b={BANDWIDTH})",
        ["N", "n players", "|E_F|=N²", "Def. 10 verified", "LB rounds", "measured UB rounds", "trivial UB"],
    )
    lbs = []
    for side in (3, 6, 9, 12):
        lbg = clique_lower_bound_graph(4, side)
        # Lemma 14: every clause of Definition 10, checked exhaustively.
        assert verify_lower_bound_graph(lbg) == []
        n = lbg.template.n
        lb = implied_round_lower_bound(lbg.universe_size, n, BANDWIDTH)
        lbs.append((n, lb))
        outcome, result = detect_subgraph(
            lbg.template, complete_graph(4), bandwidth=BANDWIDTH
        )
        assert outcome.contains  # the full template contains K4s
        assert result.rounds >= lb
        table.add_row(
            side,
            n,
            lbg.universe_size,
            True,
            lb,
            result.rounds,
            full_learning_round_bound(n, BANDWIDTH),
        )
    emit(table, capsys, filename="e8_clique_lower_bound.md")
    # Linear shape: LB/n roughly constant.
    rates = [lb / n for n, lb in lbs[1:]]
    assert max(rates) <= 3 * min(rates) + 1

    lbg = clique_lower_bound_graph(4, 3)
    benchmark(
        lambda: implied_round_lower_bound(lbg.universe_size, lbg.template.n, BANDWIDTH)
    )


def test_reduction_end_to_end(benchmark, capsys):
    table = Table(
        "E8 Lemma 13 + Lemma 14 — executed reduction (detection -> DISJ)",
        ["instance", "disjoint truth", "reduction answer", "rounds", "blackboard bits", "n·b·R cap"],
    )
    lbg = clique_lower_bound_graph(4, 3)
    reduction = DisjointnessReduction(lbg, bandwidth=BANDWIDTH)
    rng = random.Random(1)
    m = lbg.universe_size
    cases = [
        ("disjoint", ({0, 2}, {1, 3})),
        ("intersecting", ({0, 4}, {4, 7})),
        ("random", tuple({i for i in range(m) if rng.random() < 0.4} for _ in range(2))),
    ]
    for name, (x, y) in cases:
        run = reduction.solve(x, y)
        cap = lbg.template.n * BANDWIDTH * run.rounds
        assert run.disjoint == sets_disjoint(x, y)
        assert run.blackboard_bits <= cap
        table.add_row(
            name, sets_disjoint(x, y), run.disjoint, run.rounds,
            run.blackboard_bits, cap,
        )
    emit(table, capsys, filename="e8_reduction_execution.md")

    benchmark(lambda: reduction.solve({0, 1}, {1, 2}))
