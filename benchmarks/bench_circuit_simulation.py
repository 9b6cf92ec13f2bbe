"""E1 (Theorem 2/4): circuit simulation rounds are O(depth).

Regenerates the paper's headline claim: a depth-D circuit of
b-separable gates with n²·s wires runs in O(D) rounds on
CLIQUE-UCAST(n, O(b+s)).  We sweep depth at (roughly) constant size by
varying the fan-in of a parity tree, and separately sweep size at
constant depth — rounds must track depth, not size.
"""

from __future__ import annotations

import random

from repro.analysis import Table, theorem2_round_bound
from repro.circuits import builders
from repro.simulation import simulate_circuit_many

from _util import emit

N_PLAYERS = 8
INPUTS = 64
TRIALS = 4


def _run(circuit, seed=0):
    """Evaluate the circuit on TRIALS random input vectors through one
    ``run_many`` batch (one plan serves every vector) and cross-check
    each against local evaluation."""
    rng = random.Random(seed)
    vectors = [
        [rng.random() < 0.5 for _ in range(circuit.num_inputs)]
        for _ in range(TRIALS)
    ]
    all_outputs, results, plan = simulate_circuit_many(
        circuit, N_PLAYERS, vectors
    )
    for xs, outputs in zip(vectors, all_outputs):
        expected = circuit.evaluate(xs)
        assert all(outputs[g] == expected[g] for g in circuit.outputs)
    assert len({r.rounds for r in results}) == 1
    return results[0], plan


def test_rounds_track_depth(benchmark, capsys):
    table = Table(
        "E1 Theorem 2 — parity trees: rounds vs depth (n=8 players)",
        ["fan-in", "depth", "wires", "s", "bandwidth", "rounds", "O(D) bound", "rounds/depth"],
    )
    ratios = []
    for fan_in in (64, 8, 4, 2):
        circuit = builders.parity_tree(INPUTS, fan_in)
        result, plan = _run(circuit)
        depth = circuit.depth()
        ratio = result.rounds / depth
        ratios.append(ratio)
        table.add_row(
            fan_in,
            depth,
            circuit.wire_count(),
            plan.assignment.s_param,
            plan.bandwidth,
            result.rounds,
            theorem2_round_bound(depth),
            round(ratio, 2),
        )
    emit(table, capsys, benchmark=None, filename="e1_circuit_simulation.md")
    # Shape check: rounds/depth stays bounded by a constant across the sweep.
    assert max(ratios) <= 6.0

    circuit = builders.parity_tree(INPUTS, 4)
    benchmark(lambda: _run(circuit))


def test_rounds_independent_of_size(benchmark, capsys):
    table = Table(
        "E1 Theorem 2 — size grows, depth fixed: rounds must stay flat",
        ["inputs", "wires", "depth", "rounds"],
    )
    rounds_seen = []
    for inputs in (16, 64, 144):
        fan_in = int(round(inputs ** (1 / 3))) + 1
        # fix depth at 3 by choosing fan-in = inputs^(1/3)
        while fan_in**3 < inputs:
            fan_in += 1
        circuit = builders.parity_tree(inputs, fan_in)
        result, _plan = _run(circuit)
        rounds_seen.append(result.rounds)
        table.add_row(inputs, circuit.wire_count(), circuit.depth(), result.rounds)
    emit(table, capsys, filename="e1_size_independence.md")
    assert max(rounds_seen) <= min(rounds_seen) + 6

    benchmark(lambda: _run(builders.parity_tree(64, 4)))
