"""E5 (Theorem 7): H-subgraph detection in O(ex(n,H)·log n/(n·b)).

For each pattern class the paper calls out — even cycles (C4: √n·log n),
complete bipartite (K_{2,2}), trees (O(log n)), and χ >= 3 patterns
(K4: trivial-rate) — we sweep n and compare measured rounds against the
closed-form cost and the trivial full-learning baseline.
"""

from __future__ import annotations

import random

from repro.analysis import (
    Table,
    full_learning_round_bound,
    theorem7_round_bound,
)
from repro.graphs import (
    complete_bipartite,
    complete_graph,
    contains_subgraph,
    cycle_graph,
    path_graph,
    random_k_degenerate,
)
from repro.subgraphs import detect_subgraph

from _util import emit

BANDWIDTH = 8

PATTERNS = [
    ("C4", cycle_graph(4)),
    ("C6", cycle_graph(6)),
    ("K2,2", complete_bipartite(2, 2)),
    ("P4 (tree)", path_graph(4)),
    ("K4", complete_graph(4)),
]


def test_detection_sweep(benchmark, capsys):
    table = Table(
        f"E5 Theorem 7 — subgraph detection rounds (b={BANDWIDTH})",
        ["H", "n", "rounds", "predicted", "trivial", "correct"],
    )
    rng = random.Random(3)
    for name, pattern in PATTERNS:
        for n in (16, 32, 48):
            graph = random_k_degenerate(n, 2, rng)
            truth = contains_subgraph(graph, pattern)
            outcome, result = detect_subgraph(graph, pattern, bandwidth=BANDWIDTH)
            assert outcome.contains == truth
            predicted = theorem7_round_bound(n, pattern, BANDWIDTH)
            table.add_row(
                name,
                n,
                result.rounds,
                predicted,
                full_learning_round_bound(n, BANDWIDTH),
                outcome.contains == truth,
            )
            assert result.rounds == predicted
    emit(table, capsys, filename="e5_subgraph_detection.md")

    graph = random_k_degenerate(24, 2, random.Random(0))
    benchmark(
        lambda: detect_subgraph(graph, cycle_graph(4), bandwidth=BANDWIDTH)
    )


def test_full_learning_scenario_matrix(benchmark, capsys):
    """The full-learning baseline, migrated onto the scenario matrix:
    C4 detection swept over graph families on the legacy engine, with
    per-cell ground-truth validation and legacy-digest pinning."""
    from repro.scenarios import ScenarioMatrix

    table = Table(
        "E5 full-learning C4 detection — scenario matrix (b=8)",
        ["family", "n", "engine", "rounds", "total bits", "contains C4"],
    )
    matrix = ScenarioMatrix(
        protocols=["subgraph_detection"],
        families=["gnp", "sparse", "bipartite"],
        sizes=[16, 24],
        seed=5,
        engines=["legacy"],
    )
    result = matrix.run()
    assert not result.mismatches()
    assert all(cell.status == "ok" for cell in result.cells)
    from repro.graphs import contains_subgraph
    from repro.scenarios.matrix import instance_graph

    for cell in result.cells:
        assert cell.validated is True and cell.matches_reference is True
        graph = instance_graph(5, cell.protocol, cell.family, cell.n)
        table.add_row(
            cell.family,
            cell.n,
            cell.engine,
            cell.rounds,
            cell.total_bits,
            contains_subgraph(graph, cycle_graph(4)),
        )
    emit(table, capsys, filename="e5_full_learning_matrix.md")

    matrix_small = ScenarioMatrix(
        protocols=["subgraph_detection"], families=["gnp"], sizes=[12],
        seed=5, engines=["legacy"],
    )
    benchmark(lambda: matrix_small.run())


def test_asymptotic_shape(benchmark, capsys):
    """The formula's shape at scale: C4 cost ~ √n·log n beats the
    trivial n as n grows; trees stay polylog."""
    table = Table(
        "E5 Theorem 7 — predicted cost shape at scale (b=8)",
        ["n", "C4 (√n log n)", "tree (log n)", "K4 (Turán ~n)", "trivial (n)"],
    )
    for n in (256, 1024, 4096, 16384):
        table.add_row(
            n,
            theorem7_round_bound(n, cycle_graph(4), 8),
            theorem7_round_bound(n, path_graph(4), 8),
            theorem7_round_bound(n, complete_graph(4), 8),
            full_learning_round_bound(n, 8),
        )
    emit(table, capsys, filename="e5_asymptotic_shape.md")
    assert theorem7_round_bound(16384, cycle_graph(4), 8) < full_learning_round_bound(
        16384, 8
    )

    benchmark(lambda: theorem7_round_bound(16384, cycle_graph(4), 8))
