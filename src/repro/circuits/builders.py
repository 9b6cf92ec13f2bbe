"""Circuit families used by the simulation benchmarks and tests.

These realise the circuit classes Section 2 connects to the congested
clique: parity (the hard function for bounded-depth threshold circuits),
threshold/majority circuits (TC0), MOD_m circuits (CC[m] / ACC), plus
random layered circuits for property testing.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence

import numpy as np

from repro.circuits.circuit import Circuit
from repro.circuits.gates import (
    AND,
    NOT,
    OR,
    XOR,
    Gate,
    MajorityGate,
    ModGate,
    ThresholdGate,
)

__all__ = [
    "parity_tree",
    "and_tree",
    "or_tree",
    "majority_circuit",
    "mod_tree",
    "cc_parity_circuit",
    "threshold_parity_circuit",
    "inner_product_circuit",
    "random_layered_circuit",
]


def _tree_reduce(circuit: Circuit, gate_factory, leaves: Sequence[int], fan_in: int) -> int:
    """Reduce ``leaves`` with layers of ``fan_in``-ary gates; returns the
    root gate id."""
    if fan_in < 2:
        raise ValueError("fan-in must be at least 2")
    level = list(leaves)
    while len(level) > 1:
        nxt: List[int] = []
        for i in range(0, len(level), fan_in):
            group = level[i : i + fan_in]
            if len(group) == 1:
                nxt.append(group[0])
            else:
                nxt.append(circuit.add_gate(gate_factory(), group))
        level = nxt
    return level[0]


def parity_tree(n_inputs: int, fan_in: int = 2) -> Circuit:
    """Parity of n inputs as a tree of unbounded-fan-in XOR gates with
    the given branching; depth ≈ log_{fan_in} n."""
    circuit = Circuit()
    inputs = circuit.add_inputs(n_inputs)
    root = _tree_reduce(circuit, lambda: XOR, inputs, fan_in)
    circuit.mark_output(root)
    return circuit


def and_tree(n_inputs: int, fan_in: int = 2) -> Circuit:
    circuit = Circuit()
    inputs = circuit.add_inputs(n_inputs)
    root = _tree_reduce(circuit, lambda: AND, inputs, fan_in)
    circuit.mark_output(root)
    return circuit


def or_tree(n_inputs: int, fan_in: int = 2) -> Circuit:
    circuit = Circuit()
    inputs = circuit.add_inputs(n_inputs)
    root = _tree_reduce(circuit, lambda: OR, inputs, fan_in)
    circuit.mark_output(root)
    return circuit


def majority_circuit(n_inputs: int) -> Circuit:
    """Depth-1 majority: one unbounded-fan-in threshold gate (TC0)."""
    circuit = Circuit()
    inputs = circuit.add_inputs(n_inputs)
    root = circuit.add_gate(MajorityGate(n_inputs), inputs)
    circuit.mark_output(root)
    return circuit


def mod_tree(n_inputs: int, modulus: int, fan_in: int) -> Circuit:
    """A tree of MOD_m gates (a CC[m] circuit).  Note MOD gates output
    "sum ≡ 0", so the tree computes an iterated MOD-of-MODs predicate —
    what matters for the benchmarks is its shape (depth, wires,
    O(1)-separable gates), mirroring the CC[m] circuits of Section 2."""
    circuit = Circuit()
    inputs = circuit.add_inputs(n_inputs)
    root = _tree_reduce(circuit, lambda: ModGate(modulus), inputs, fan_in)
    circuit.mark_output(root)
    return circuit


def cc_parity_circuit(n_inputs: int) -> Circuit:
    """Parity from MOD2 gates: MOD2 computes NOT-parity, so parity =
    MOD2(MOD2(x), 0-padding trick) — here simply MOD2 followed by NOT."""
    circuit = Circuit()
    inputs = circuit.add_inputs(n_inputs)
    mod = circuit.add_gate(ModGate(2), inputs)
    root = circuit.add_gate(NOT, [mod])
    circuit.mark_output(root)
    return circuit


def threshold_parity_circuit(n_inputs: int) -> Circuit:
    """Parity as a depth-2 unweighted threshold circuit: exact-count
    gates EXACT_k = THR>=k AND NOT THR>=k+1 for odd k, OR-ed together.
    This is the classic TC0 parity circuit with O(n²) wires — the object
    of the Impagliazzo–Paturi–Saks wire lower bound discussed in
    Section 2.

    Built as one block: for each odd k < n the four gates THR>=k,
    THR>=k+1, its NOT and the AND, then THR>=n alone when n is odd, then
    the OR of the odd detectors (when there are two or more)."""
    circuit = Circuit()
    inputs = np.asarray(circuit.add_inputs(n_inputs), dtype=np.intp)
    start = len(circuit)
    pairs = n_inputs // 2
    lone = n_inputs % 2
    # Gate k - 1 of ``gates`` is THR>=k; NOT, AND and OR follow.
    gates = [ThresholdGate(k) for k in range(1, n_inputs + 1)] + [NOT, AND, OR]
    quad = start + 4 * np.arange(pairs)
    which = np.stack(
        [
            2 * np.arange(pairs),
            2 * np.arange(pairs) + 1,
            np.full(pairs, n_inputs),
            np.full(pairs, n_inputs + 1),
        ],
        axis=1,
    ).reshape(-1)
    fan_ins = np.tile([n_inputs, n_inputs, 1, 2], pairs)
    sources = [
        np.concatenate(
            [
                np.broadcast_to(inputs, (pairs, n_inputs)),
                np.broadcast_to(inputs, (pairs, n_inputs)),
                np.stack([quad + 1, quad, quad + 2], axis=1),
            ],
            axis=1,
        ).reshape(-1)
    ]
    detectors = quad + 3
    if lone:
        which = np.append(which, n_inputs - 1)
        fan_ins = np.append(fan_ins, n_inputs)
        sources.append(inputs)
        detectors = np.append(detectors, start + 4 * pairs)
    if len(detectors) > 1:
        which = np.append(which, n_inputs + 2)
        fan_ins = np.append(fan_ins, len(detectors))
        sources.append(detectors)
    ids = circuit.add_gates(gates, which, fan_ins, np.concatenate(sources))
    circuit.mark_output(int(ids[-1]))
    return circuit


def inner_product_circuit(half_n: int) -> Circuit:
    """IP2: parity of pairwise ANDs of x (first half) and y (second
    half) — the classic hard function of communication complexity."""
    circuit = Circuit()
    xs = circuit.add_inputs(half_n)
    ys = circuit.add_inputs(half_n)
    products = [circuit.add_gate(AND, [x, y]) for x, y in zip(xs, ys)]
    root = circuit.add_gate(XOR, products)
    circuit.mark_output(root)
    return circuit


def random_layered_circuit(
    n_inputs: int,
    depth: int,
    width: int,
    rng: random.Random,
    max_fan_in: int = 4,
    gate_pool: Optional[Sequence[Gate]] = None,
) -> Circuit:
    """A random circuit for property tests: ``depth`` layers of ``width``
    gates, each wired to random gates in earlier layers."""
    if gate_pool is None:
        gate_pool = [AND, OR, XOR, ModGate(3), ThresholdGate(2)]
    circuit = Circuit()
    previous = circuit.add_inputs(n_inputs)
    reachable = list(previous)
    for _ in range(depth):
        layer: List[int] = []
        for _ in range(width):
            fan_in = rng.randint(1, min(max_fan_in, len(reachable)))
            sources = rng.sample(reachable, fan_in)
            gate = rng.choice(gate_pool)
            if gate.arity() == 1:
                sources = sources[:1]
            layer.append(circuit.add_gate(gate, sources))
        reachable.extend(layer)
        previous = layer
    for gid in previous:
        circuit.mark_output(gid)
    return circuit
