"""E17 (related work [30]): MST on the congested clique.

The paper's introduction cites MST as the canonical congested-clique
problem ([30]: O(log log n) rounds).  Our Borůvka baseline runs in
O(log n) phases of one O(log n + log W)-bit broadcast each; the sweep
confirms the logarithmic phase count and exact agreement with the
centralised Kruskal reference.
"""

from __future__ import annotations

import math
import random

from repro.analysis import Table
from repro.graphs import complete_graph, random_graph
from repro.mst import WeightedGraph, boruvka_mst, mst_reference

from _util import emit

BANDWIDTH = 32


def test_logarithmic_phases(benchmark, capsys):
    table = Table(
        f"E17 MST — Borůvka on CLIQUE-BCAST (b={BANDWIDTH})",
        ["n", "edges", "rounds", "⌈log2 n⌉ phases", "exact MST"],
    )
    rng = random.Random(0)
    for n in (8, 16, 32, 48):
        graph = complete_graph(n)
        wg = WeightedGraph(
            graph=graph,
            weights={e: rng.randint(0, 1000) for e in graph.edges()},
        )
        tree, result = boruvka_mst(wg, bandwidth=BANDWIDTH)
        exact = tree == mst_reference(wg)
        table.add_row(
            n, graph.m, result.rounds, math.ceil(math.log2(n)), exact
        )
        assert exact
    emit(table, capsys, filename="e17_mst.md")

    graph = complete_graph(12)
    wg = WeightedGraph(
        graph=graph, weights={e: rng.randint(0, 100) for e in graph.edges()}
    )
    benchmark(lambda: boruvka_mst(wg, bandwidth=BANDWIDTH))


def test_sparse_graphs(benchmark, capsys):
    """Migrated onto the scenario matrix: the ``mst`` protocol spec
    draws seeded weights per cell, runs Borůvka on every supported
    backend, validates against the Kruskal reference, and pins each
    cell's digest to the legacy engine."""
    from repro.scenarios import ScenarioMatrix

    table = Table(
        "E17 MST — scenario matrix (sparse + complete families, all engines)",
        ["family", "n", "engine", "rounds", "total bits"],
    )
    matrix = ScenarioMatrix(
        protocols=["mst"],
        families=["sparse", "cycle", "complete"],
        sizes=[16, 24],
        seed=17,
        engines=["legacy"],
    )
    result = matrix.run()
    assert not result.mismatches()
    assert all(cell.status == "ok" for cell in result.cells)
    for cell in result.cells:
        assert cell.validated is True and cell.matches_reference is True
        table.add_row(cell.family, cell.n, cell.engine, cell.rounds, cell.total_bits)
    emit(table, capsys, filename="e17_mst_sparse.md")

    rng = random.Random(1)
    graph = random_graph(12, 0.2, rng)
    wg = WeightedGraph(
        graph=graph, weights={e: rng.randint(0, 63) for e in graph.edges()}
    )
    benchmark(lambda: boruvka_mst(wg, bandwidth=BANDWIDTH))


def test_gossip_cut_accounting(benchmark, capsys):
    """E9's CONGEST half, executed: the gossip detector on a Lemma 18
    instance pushes at least |E_F| bits across the δ-sparse cut."""
    from repro.congest.gossip import cut_bits, gossip_detect
    from repro.lower_bounds import cycle_lower_bound_graph, sets_disjoint

    table = Table(
        "E17b CONGEST cut accounting — gossip detection on Lemma 18 instances",
        ["N", "cut edges", "|E_F|", "cut bits measured", "cut·b·R cap"],
    )
    bandwidth = 8
    for big_n in (4, 6):
        lbg = cycle_lower_bound_graph(5, big_n)
        rng = random.Random(big_n)
        m = lbg.universe_size
        x = {i for i in range(m) if rng.random() < 0.5}
        y = {i for i in range(m) if rng.random() < 0.5}
        instance = lbg.instance_graph(x, y)
        found, result = gossip_detect(instance, lbg.pattern, bandwidth=bandwidth)
        assert found == (not sets_disjoint(x, y))
        crossing = cut_bits(result, set(lbg.alice_nodes))
        cap = lbg.cut_edges * bandwidth * result.rounds
        table.add_row(big_n, lbg.cut_edges, m, crossing, cap)
        assert m <= crossing <= cap
    emit(table, capsys, filename="e17_cut_accounting.md")

    lbg = cycle_lower_bound_graph(5, 4)
    instance = lbg.instance_graph({0}, {0})
    benchmark(lambda: gossip_detect(instance, lbg.pattern, bandwidth=8))
