"""E11 (Theorem 24 / Claim 23 / Corollary 25): triangle detection vs
3-party NOF set disjointness.

Claim 23's Ruzsa–Szemerédi graphs supply m = n²/e^{O(√log n)}
edge-disjoint triangles as the disjointness universe; executing a
CLIQUE-BCAST triangle protocol answers NOF-DISJ_m with n·b·R + 1 bits.
Tables: the universe's superlinear growth, the implied deterministic
(Ω(m) — Rao–Yehudayoff) and randomized (Ω(√m) — Sherstov) round bounds,
and the executed reduction's cost accounting.
"""

from __future__ import annotations

import random

from repro.analysis import Table
from repro.graphs.ruzsa_szemeredi import ap_free_set, rs_graph
from repro.lower_bounds import (
    NOFTriangleReduction,
    implied_triangle_rounds,
)
from repro.matmul import triangle_count

from _util import emit

BANDWIDTH = 8


def test_claim23_density(benchmark, capsys):
    table = Table(
        "E11 Claim 23 — Ruzsa–Szemerédi triangle density m(N)",
        ["N", "|S(N)| (AP-free)", "n nodes", "edges", "triangles m", "m/N"],
    )
    for class_size in (8, 16, 32, 64):
        rs = rs_graph(class_size)
        # Recounted from the graph itself: the planted triangles are all
        # of its triangles, and they cover every edge exactly once.
        assert triangle_count(rs.graph) == rs.triangle_count
        assert rs.graph.m == 3 * rs.triangle_count
        s_size = len(ap_free_set(class_size))
        table.add_row(
            class_size,
            s_size,
            rs.graph.n,
            rs.graph.m,
            rs.triangle_count,
            round(rs.triangle_count / class_size, 2),
        )
    emit(table, capsys, filename="e11_claim23_density.md")
    # superlinear growth of m(N):
    assert rs_graph(64).triangle_count >= 4 * rs_graph(16).triangle_count

    benchmark(lambda: rs_graph(16))


def test_implied_bounds(benchmark, capsys):
    from repro.lower_bounds import (
        nof_disj_deterministic_bits,
        nof_disj_randomized_bits,
    )

    table = Table(
        "E11 Theorem 24 / Cor 25 — implied triangle LBs (rounds shown at b=1)",
        ["N", "n players", "m", "det bits Ω(m)", "rand bits Ω(√m)", "det LB rounds", "rand LB rounds"],
    )
    for class_size in (16, 64, 256):
        rs = rs_graph(class_size)
        n = rs.graph.n
        m = rs.triangle_count
        table.add_row(
            class_size,
            n,
            m,
            nof_disj_deterministic_bits(m),
            nof_disj_randomized_bits(m),
            implied_triangle_rounds(m, n, 1, deterministic=True),
            implied_triangle_rounds(m, n, 1, deterministic=False),
        )
    emit(table, capsys, filename="e11_implied_bounds.md")
    # The paper's contrast: the deterministic Ω(m) bound is non-trivial
    # (grows with n), the randomized Ω(√m) is "just shy" — sublinear in
    # the blackboard capacity, so its round bound stays pinned at 1.
    rs = rs_graph(256)
    m, n = rs.triangle_count, rs.graph.n
    assert nof_disj_deterministic_bits(m) >= 10 * nof_disj_randomized_bits(m)
    assert implied_triangle_rounds(m, n, 1, deterministic=True) > 1
    assert implied_triangle_rounds(m, n, 1, deterministic=False) == 1

    benchmark(lambda: rs_graph(64).triangle_count)


def test_reduction_execution(benchmark, capsys):
    table = Table(
        "E11 Theorem 24 — executed NOF reduction (full-learning detector)",
        ["case", "disjoint truth", "answer", "rounds", "blackboard bits", "n·b·R + 1"],
    )
    reduction = NOFTriangleReduction(5, bandwidth=BANDWIDTH)
    n = reduction.rs.graph.n
    m = reduction.universe_size
    rng = random.Random(3)
    for idx in range(3):
        x_a = {i for i in range(m) if rng.random() < 0.5}
        x_b = {i for i in range(m) if rng.random() < 0.5}
        x_c = {i for i in range(m) if rng.random() < 0.5}
        truth = not (x_a & x_b & x_c)
        run = reduction.solve(x_a, x_b, x_c)
        assert run.disjoint == truth
        cap = n * BANDWIDTH * run.rounds + 1
        assert run.total_communication <= cap
        table.add_row(
            idx, truth, run.disjoint, run.rounds, run.blackboard_bits, cap
        )
    emit(table, capsys, filename="e11_reduction_execution.md")

    benchmark(lambda: reduction.solve({0}, {0}, {0}))
