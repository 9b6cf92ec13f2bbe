"""E15 (ablations): the library's design choices, isolated.  The router
and the heavy threshold are README "Departures from the paper" #1 and #4.

* bandwidth ablation — Theorem 2's O(b+s) bandwidth is a *choice*: we
  sweep the engine bandwidth for a fixed circuit and watch rounds trade
  against per-round bits.
* heavy-threshold ablation — the 2·n·s heaviness cutoff balances the
  summary rounds against light-routing load; we sweep the multiplier.
* DLP group-count ablation — [8]'s g = n^{1/3} optimises per-player
  traffic; sweeping g shows the U-shape around the optimum.
* router ablation — direct schedules vs two-phase schedules as the
  demand concentrates.
"""

from __future__ import annotations

import random

from repro.analysis import Table
from repro.circuits import builders
from repro.graphs import complete_bipartite
from repro.matmul import detect_triangle_dlp
from repro.routing import build_schedule
from repro.simulation import build_plan, simulate_circuit

from _util import emit


def test_bandwidth_ablation(benchmark, capsys):
    table = Table(
        "E15a — bandwidth vs rounds (threshold-parity circuit, n=8)",
        ["bandwidth", "rounds", "rounds·bandwidth"],
    )
    circuit = builders.threshold_parity_circuit(16)
    rng = random.Random(0)
    xs = [rng.random() < 0.5 for _ in range(16)]
    rows = []
    for bandwidth in (1, 2, 4, 8, 16):
        _, result, _ = simulate_circuit(circuit, 8, xs, bandwidth=bandwidth)
        rows.append((bandwidth, result.rounds))
        table.add_row(bandwidth, result.rounds, bandwidth * result.rounds)
    emit(table, capsys, filename="e15_bandwidth_ablation.md")
    # rounds decrease monotonically in b...
    assert all(r1 >= r2 for (_, r1), (_, r2) in zip(rows, rows[1:]))
    # ...but the bits-per-round product cannot drop below the info bound.
    assert rows[-1][1] >= 1

    benchmark(lambda: simulate_circuit(circuit, 8, xs, bandwidth=4))


def test_dlp_group_count_ablation(benchmark, capsys):
    """[8]'s g ≈ n^{1/3} optimises the *busiest player's inbound
    traffic* (the quantity the Õ(n^{1/3}) bound divides by n·b); the
    engine's two-phase router then spreads hops so well that wall-clock
    rounds flatten at this toy scale — we report both."""
    from repro.matmul.triangles_dlp import dlp_plan

    table = Table(
        "E15b — DLP group count g (n=32 dense bipartite, b=16)",
        ["g", "max inbound bits/player", "rounds"],
    )
    graph = complete_bipartite(16, 16)
    inbound = {}
    for g in (1, 2, 3, 4, 6, 8):
        plan = dlp_plan(32, g)
        per_player = {}
        for (_v, p), bits in plan.lengths.items():
            per_player[p] = per_player.get(p, 0) + bits
        inbound[g] = max(per_player.values(), default=0)
        _, result = detect_triangle_dlp(graph, bandwidth=16, group_count=g)
        table.add_row(g, inbound[g], result.rounds)
    emit(table, capsys, filename="e15_dlp_group_ablation.md")
    # g=1 ships everything to one player: its inbound load is far above
    # the near-optimal spread at g ≈ n^{1/3}.
    assert inbound[1] >= 2 * inbound[3]

    benchmark(lambda: detect_triangle_dlp(graph, bandwidth=16, group_count=3))


def test_router_concentration_ablation(benchmark, capsys):
    table = Table(
        "E15c — router schedules as one pair's load concentrates (n=16)",
        ["frames on (0,1)", "background pairs", "rounds", "mode"],
    )
    n = 16
    for hot in (1, 4, 16, 48):
        demand = {(i, (i + 1) % n): 1 for i in range(n)}
        demand[(0, 1)] = hot
        schedule = build_schedule(demand, n)
        mode = "direct" if hot <= schedule.num_rounds else "two-phase"
        table.add_row(hot, n, schedule.num_rounds, mode)
        assert schedule.num_rounds <= max(8, hot // 2)
    emit(table, capsys, filename="e15_router_ablation.md")

    benchmark(lambda: build_schedule({(0, 1): 48}, 16))


def test_heavy_threshold_sensitivity(benchmark, capsys):
    """The simulation's heavy cutoff is fixed by the proof (2·n·s); here
    we verify the *invariant* that makes any constant work — at most n
    heavy gates — across circuit shapes, which is the property the
    round bound leans on."""
    table = Table(
        "E15d — heavy-gate census across circuit families (n=8)",
        ["circuit", "gates", "wires", "s", "heavy gates", "cap (=n)"],
    )
    rng = random.Random(2)
    families = [
        ("parity f=4", builders.parity_tree(64, 4)),
        ("majority", builders.majority_circuit(64)),
        ("thr-parity", builders.threshold_parity_circuit(16)),
        ("random", builders.random_layered_circuit(16, 4, 10, rng)),
    ]
    for name, circuit in families:
        plan = build_plan(circuit, 8)
        heavy = len(plan.assignment.heavy)
        table.add_row(
            name,
            len(circuit),
            circuit.wire_count(),
            plan.assignment.s_param,
            heavy,
            8,
        )
        assert heavy <= 8
    emit(table, capsys, filename="e15_heavy_census.md")

    benchmark(lambda: build_plan(builders.majority_circuit(64), 8))
