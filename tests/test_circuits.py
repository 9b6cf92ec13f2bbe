"""Gates (including b-separability, Definition 1), circuits, builders."""

from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.circuits import (
    AND,
    NOT,
    OR,
    XOR,
    Circuit,
    GenericGate,
    MajorityGate,
    ModGate,
    ThresholdGate,
    builders,
)


def random_partition(rng, size, parts):
    assignment = [rng.randrange(parts) for _ in range(size)]
    groups = {}
    for index, part in enumerate(assignment):
        groups.setdefault(part, []).append(index)
    return list(groups.values())


GATES = [
    AND,
    OR,
    XOR,
    ModGate(2),
    ModGate(3),
    ModGate(5),
    ThresholdGate(2),
    ThresholdGate(4),
    MajorityGate(7),
    ThresholdGate(5, weights=(3, 1, 4, 1, 5, 9, 2)),
    GenericGate(lambda xs: xs.count(True) in (1, 4), 7, "exotic"),
]


class TestGateSemantics:
    def test_basic_gates(self):
        assert AND.compute([True, True, True])
        assert not AND.compute([True, False])
        assert OR.compute([False, True])
        assert not OR.compute([False, False])
        assert XOR.compute([True, True, True])
        assert not XOR.compute([True, True])
        assert NOT.compute([False])

    def test_not_arity(self):
        with pytest.raises(ValueError):
            NOT.compute([True, False])

    def test_mod_gate(self):
        gate = ModGate(3)
        assert gate.compute([True] * 6)
        assert not gate.compute([True] * 4)
        assert gate.compute([])

    def test_mod_gate_modulus_validation(self):
        with pytest.raises(ValueError):
            ModGate(1)

    def test_threshold_unweighted(self):
        gate = ThresholdGate(3)
        assert gate.compute([True, True, True, False])
        assert not gate.compute([True, True, False, False])

    def test_threshold_weighted(self):
        gate = ThresholdGate(5, weights=(4, 2, 1))
        assert gate.compute([True, False, True])
        assert not gate.compute([False, True, True])

    def test_majority(self):
        gate = MajorityGate(5)
        assert gate.compute([True, True, True, False, False])
        assert not gate.compute([True, True, False, False, False])

    def test_separability_widths(self):
        assert AND.summary_width(100) == 1
        assert XOR.summary_width(100) == 1
        assert ModGate(6).summary_width(100) == 3  # ⌈log2 6⌉
        assert ThresholdGate(3).summary_width(100) == 7  # ⌈log2 101⌉
        # Weighted: width tracks the total weight, not the fan-in.
        big = ThresholdGate(1, weights=(1000, 1000))
        assert big.summary_width(2) == 11


class TestSeparability:
    """Definition 1: combine(partial summaries) == direct computation,
    for every gate and arbitrary partitions of its inputs."""

    @given(
        st.integers(min_value=0, max_value=len(GATES) - 1),
        st.integers(min_value=0, max_value=2**7 - 1),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=0, max_value=10**6),
    )
    def test_combine_matches_compute(self, gate_idx, value_mask, parts, seed):
        gate = GATES[gate_idx]
        fan_in = gate.arity() or 7
        values = [bool(value_mask >> i & 1) for i in range(fan_in)]
        rng = random.Random(seed)
        partition = random_partition(rng, fan_in, parts)
        summaries = []
        for group in partition:
            part = [(i, values[i]) for i in group]
            summary = gate.partial_summary(part, fan_in)
            assert len(summary) == gate.summary_width(fan_in)
            summaries.append(summary)
        assert gate.combine(summaries, fan_in) == gate.compute(values)

    def test_singleton_partitions(self):
        for gate in GATES:
            fan_in = gate.arity() or 6
            for mask in range(2**fan_in if fan_in <= 6 else 64):
                values = [bool(mask >> i & 1) for i in range(fan_in)]
                summaries = [
                    gate.partial_summary([(i, values[i])], fan_in)
                    for i in range(fan_in)
                ]
                assert gate.combine(summaries, fan_in) == gate.compute(values)


class TestCircuit:
    def test_construction_and_eval(self):
        c = Circuit()
        x, y = c.add_inputs(2)
        g1 = c.add_gate(AND, [x, y])
        g2 = c.add_gate(XOR, [x, g1])
        c.mark_output(g2)
        assert c.evaluate_outputs([True, True]) == [False]
        assert c.evaluate_outputs([True, False]) == [True]

    def test_forward_reference_rejected(self):
        c = Circuit()
        x = c.add_input()
        with pytest.raises(ValueError):
            c.add_gate(AND, [x, 99])

    def test_arity_enforced(self):
        c = Circuit()
        x, y = c.add_inputs(2)
        with pytest.raises(ValueError):
            c.add_gate(NOT, [x, y])

    def test_layers_definition(self):
        """L_0 = sources; L_r per the paper's recursive definition."""
        c = Circuit()
        x, y = c.add_inputs(2)
        k = c.add_const(True)
        g1 = c.add_gate(AND, [x, y])
        g2 = c.add_gate(OR, [g1, k])
        g3 = c.add_gate(XOR, [x, g2])
        layers = c.layers()
        assert layers[0] == [x, y, k]
        assert layers[1] == [g1]
        assert layers[2] == [g2]
        assert layers[3] == [g3]
        assert c.depth() == 3

    def test_wires_and_weights(self):
        c = Circuit()
        x, y = c.add_inputs(2)
        g = c.add_gate(AND, [x, y])
        c.add_gate(OR, [g, x])
        assert c.wire_count() == 4
        assert c.weight(x) == 2  # fan-out only
        assert c.weight(g) == 3  # 2 in + 1 out

    def test_const_values(self):
        c = Circuit()
        t = c.add_const(True)
        f = c.add_const(False)
        g = c.add_gate(AND, [t, f])
        c.mark_output(g)
        assert c.evaluate_outputs([]) == [False]

    def test_input_count_checked(self):
        c = Circuit()
        c.add_inputs(3)
        with pytest.raises(ValueError):
            c.evaluate([True])

    def test_block_matches_gate_by_gate(self):
        """``add_gates`` builds the circuit ``add_gate`` calls build, and
        checks a block's gates with ``add_gate``'s messages."""
        one, block = Circuit(), Circuit()
        for c in (one, block):
            c.add_inputs(3)
        one.add_gate(AND, [0, 1])
        one.add_gate(ThresholdGate(2), [0, 1, 2])
        one.add_gate(NOT, [4])
        ids = block.add_gates(
            [AND, ThresholdGate(2), NOT], [0, 1, 2], [2, 3, 1], [0, 1, 0, 1, 2, 4]
        )
        assert ids.tolist() == [3, 4, 5]
        assert block == one
        assert list(block.nodes) == list(one.nodes)
        with pytest.raises(ValueError, match="gate 6 references nonexistent input 6"):
            block.add_gates([AND], [0], [2], [0, 6])
        with pytest.raises(ValueError, match="has arity 1, got 2 inputs"):
            block.add_gates([NOT], [0], [2], [0, 1])
        with pytest.raises(ValueError, match="at least one input"):
            block.add_gates([AND], [0], [0], [])
        assert block == one


class TestIdentity:
    """Gates compare by class and parameters, so a circuit equals one
    built the same way and its own pickle and deepcopy round trips."""

    def test_gates_compare_by_class_and_parameters(self):
        assert ThresholdGate(3) == ThresholdGate(3)
        assert hash(ThresholdGate(3)) == hash(ThresholdGate(3))
        assert ThresholdGate(3) != ThresholdGate(4)
        assert ThresholdGate(2, [1, 2]) == ThresholdGate(2, (1, 2))
        assert ThresholdGate(2, [1, 2]) != ThresholdGate(2)
        assert MajorityGate(4) != ThresholdGate(3)
        assert ModGate(3) == ModGate(3) != ModGate(5)
        assert AND == type(AND)() != OR

    @pytest.mark.parametrize(
        "build",
        [
            lambda: builders.threshold_parity_circuit(9),
            lambda: builders.random_layered_circuit(8, 3, 5, random.Random(1)),
            lambda: builders.mod_tree(9, 3, 3),
        ],
        ids=["threshold-parity", "random-layered", "mod-tree"],
    )
    def test_circuit_equals_its_copies(self, build):
        import copy
        import pickle

        circuit = build()
        assert circuit == build()
        assert pickle.loads(pickle.dumps(circuit)) == circuit
        assert copy.deepcopy(circuit) == circuit
        other = build()
        other.mark_output(0)
        assert other != circuit

    def test_strassen_circuits_built_alike_are_equal(self):
        from repro.circuits.arithmetic import matmul_circuit_strassen

        assert matmul_circuit_strassen(8) == matmul_circuit_strassen(8)
        assert matmul_circuit_strassen(8) != matmul_circuit_strassen(8, cutoff=4)


class TestBuilders:
    @pytest.mark.parametrize("n,fan_in", [(8, 2), (9, 3), (16, 4), (5, 2)])
    def test_parity_tree(self, n, fan_in):
        c = builders.parity_tree(n, fan_in)
        rng = random.Random(n)
        for _ in range(20):
            xs = [rng.random() < 0.5 for _ in range(n)]
            assert c.evaluate_outputs(xs) == [sum(xs) % 2 == 1]

    def test_and_or_trees(self):
        c_and = builders.and_tree(6, 2)
        c_or = builders.or_tree(6, 3)
        for mask in range(64):
            xs = [bool(mask >> i & 1) for i in range(6)]
            assert c_and.evaluate_outputs(xs) == [all(xs)]
            assert c_or.evaluate_outputs(xs) == [any(xs)]

    def test_majority_circuit(self):
        c = builders.majority_circuit(5)
        assert c.depth() == 1
        for mask in range(32):
            xs = [bool(mask >> i & 1) for i in range(5)]
            assert c.evaluate_outputs(xs) == [sum(xs) >= 3]

    def test_cc_parity(self):
        c = builders.cc_parity_circuit(7)
        rng = random.Random(3)
        for _ in range(20):
            xs = [rng.random() < 0.5 for _ in range(7)]
            assert c.evaluate_outputs(xs) == [sum(xs) % 2 == 1]

    @pytest.mark.parametrize("n", [2, 3, 6, 9])
    def test_threshold_parity(self, n):
        c = builders.threshold_parity_circuit(n)
        # THR layer, NOT, AND, OR: constant depth 4 regardless of n.
        assert c.depth() <= 4
        for mask in range(2**n):
            xs = [bool(mask >> i & 1) for i in range(n)]
            assert c.evaluate_outputs(xs) == [sum(xs) % 2 == 1]

    def test_inner_product(self):
        c = builders.inner_product_circuit(4)
        rng = random.Random(9)
        for _ in range(30):
            xs = [rng.random() < 0.5 for _ in range(4)]
            ys = [rng.random() < 0.5 for _ in range(4)]
            expected = sum(x and y for x, y in zip(xs, ys)) % 2 == 1
            assert c.evaluate_outputs(xs + ys) == [expected]

    def test_mod_tree_shape(self):
        c = builders.mod_tree(27, 3, 3)
        assert c.depth() == 3
        assert c.max_summary_width() == 2

    @given(st.integers(min_value=0, max_value=10**6))
    def test_random_layered_circuit_evaluates(self, seed):
        rng = random.Random(seed)
        c = builders.random_layered_circuit(6, depth=3, width=4, rng=rng)
        xs = [rng.random() < 0.5 for _ in range(6)]
        outputs = c.evaluate_outputs(xs)
        assert len(outputs) == len(c.outputs)
        assert c.depth() <= 3 + 1
