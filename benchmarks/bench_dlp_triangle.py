"""E14 ([8] baseline): deterministic triangle detection in Õ(n^{1/3}).

The Dolev–Lenzen–Peled group-triple algorithm on CLIQUE-UCAST: per-node
traffic Θ(n^{4/3}) bits over n links gives Õ(n^{1/3}/b) rounds.  We
sweep n on dense triangle-free hosts (worst case for early exit) and
compare the measured engine rounds against the n^{1/3} prediction.
"""

from __future__ import annotations

import random

from repro.analysis import Table, dlp_round_bound
from repro.graphs import complete_bipartite, random_graph
from repro.matmul import detect_triangle_dlp, has_triangle, triangle_count
from repro.matmul.triangles_dlp import count_triangles_dlp

from _util import emit

BANDWIDTH = 16


def test_cube_root_scaling(benchmark, capsys):
    table = Table(
        f"E14 DLP triangles — rounds vs n^(1/3) (dense triangle-free, b={BANDWIDTH})",
        ["n", "groups", "rounds", "predicted Õ(n^1/3)", "ratio"],
    )
    ratios = []
    for n in (16, 32, 64):
        graph = complete_bipartite(n // 2, n // 2)
        outcome, result = detect_triangle_dlp(graph, bandwidth=BANDWIDTH)
        assert not outcome.found
        predicted = dlp_round_bound(n, BANDWIDTH)
        ratio = result.rounds / predicted
        ratios.append(ratio)
        table.add_row(
            n, outcome.group_count, result.rounds, round(predicted, 1), round(ratio, 2)
        )
    emit(table, capsys, filename="e14_dlp_scaling.md")
    # Shape: measured/predicted stays within a constant band.
    assert max(ratios) <= 8 * min(ratios)

    graph = complete_bipartite(12, 12)
    benchmark(lambda: detect_triangle_dlp(graph, bandwidth=BANDWIDTH))


def test_correctness_sweep(benchmark, capsys):
    table = Table(
        "E14 DLP triangles — correctness across densities (n=24)",
        ["p", "truth", "found", "rounds", "triangles", "counted", "count rounds"],
    )
    for p in (0.05, 0.15, 0.4):
        rng = random.Random(int(p * 100))
        graph = random_graph(24, p, rng)
        truth = has_triangle(graph)
        outcome, result = detect_triangle_dlp(graph, bandwidth=BANDWIDTH)
        assert outcome.found == truth
        triangles = triangle_count(graph)
        counted, count_result = count_triangles_dlp(graph, bandwidth=BANDWIDTH)
        assert counted == triangles
        table.add_row(
            p, truth, outcome.found, result.rounds,
            triangles, counted, count_result.rounds,
        )
    emit(table, capsys, filename="e14_dlp_correctness.md")

    graph = random_graph(18, 0.2, random.Random(0))
    benchmark(lambda: detect_triangle_dlp(graph, bandwidth=BANDWIDTH))
