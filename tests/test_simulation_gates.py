"""Theorem 2 with the *full* gate zoo: weighted thresholds, generic
gates, mixed pools — the simulation must be correct for every
b-separable gate class the paper names, not just the friendly ones, on
the generator path and on the kernel path (grouped gate evaluation and
the bit-matrix routing bridge)."""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
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
from repro.simulation import simulate_circuit
from repro.circuits.vectorized import compile_groups, vector_compute


def exotic_pool(rng):
    return [
        AND,
        OR,
        XOR,
        ModGate(rng.choice([2, 3, 5, 7])),
        ThresholdGate(rng.randint(1, 3)),
        ThresholdGate(
            rng.randint(1, 9),
            weights=tuple(rng.randint(0, 4) for _ in range(4)),
        ),
        GenericGate(lambda xs: xs.count(True) % 3 == 1, 4, "count%3"),
        GenericGate(lambda xs: xs[0] != xs[-1], 4, "ends-differ"),
    ]


class TestExoticGates:
    """Every test runs on the generator path; :class:`TestExoticGatesKernel`
    reruns them all on the kernel path."""

    kernel = False

    def simulate(self, circuit, n_players, xs):
        return simulate_circuit(circuit, n_players, xs, kernel=self.kernel)

    @given(
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=2, max_value=7),
    )
    # One test body serves both paths' classes, so Hypothesis sees two
    # executors by design.
    @settings(
        max_examples=25, suppress_health_check=[HealthCheck.differing_executors]
    )
    def test_random_exotic_circuits(self, seed, n_players):
        rng = random.Random(seed)
        pool = exotic_pool(rng)
        circuit = Circuit()
        inputs = circuit.add_inputs(8)
        reachable = list(inputs)
        for _ in range(rng.randint(2, 12)):
            gate = rng.choice(pool)
            arity = gate.arity() or rng.randint(1, 4)
            sources = [rng.choice(reachable) for _ in range(arity)]
            reachable.append(circuit.add_gate(gate, sources))
        circuit.mark_output(reachable[-1])
        xs = [rng.random() < 0.5 for _ in range(8)]
        outputs, _, _ = self.simulate(circuit, n_players, xs)
        assert [outputs[g] for g in circuit.outputs] == circuit.evaluate_outputs(xs)

    def test_weighted_threshold_heavy_gate(self):
        """A single huge weighted-threshold gate goes heavy; summaries
        must carry partial *weighted* sums."""
        circuit = Circuit()
        inputs = circuit.add_inputs(48)
        weights = tuple((i * 7) % 13 for i in range(48))
        gate = ThresholdGate(sum(weights) // 2, weights=weights)
        circuit.mark_output(circuit.add_gate(gate, inputs))
        rng = random.Random(4)
        for _ in range(5):
            xs = [rng.random() < 0.5 for _ in range(48)]
            outputs, _, plan = self.simulate(circuit, 6, xs)
            assert outputs[circuit.outputs[0]] == circuit.evaluate_outputs(xs)[0]
        # bandwidth reflects the weighted sum's width, not the fan-in
        assert plan.bandwidth >= sum(weights).bit_length()

    def test_generic_gate_heavy(self):
        """A generic gate's fallback decomposition ships raw positions;
        summary width 2·fan-in must still simulate correctly, also past
        63 bits (fan-in 40), where a kernel round carries byte rows."""
        for fan_in in (24, 40):
            circuit = Circuit()
            inputs = circuit.add_inputs(fan_in)
            gate = GenericGate(
                lambda xs: sum(xs) in (3, 7, 11), fan_in, "membership"
            )
            circuit.mark_output(circuit.add_gate(gate, inputs))
            rng = random.Random(5)
            for _ in range(5):
                xs = [rng.random() < 0.5 for _ in range(fan_in)]
                outputs, _, plan = self.simulate(circuit, 4, xs)
                assert outputs[circuit.outputs[0]] == circuit.evaluate_outputs(xs)[0]
            assert plan.bandwidth == 2 * fan_in

    def test_duplicate_wire_inputs(self):
        """The same gate feeding one consumer twice (multi-edges)."""
        circuit = Circuit()
        x, y = circuit.add_inputs(2)
        g = circuit.add_gate(XOR, [x, x, y])  # x twice
        circuit.mark_output(g)
        for xs in ([True, True], [True, False], [False, True]):
            outputs, _, _ = self.simulate(circuit, 2, list(xs))
            assert outputs[g] == circuit.evaluate_outputs(list(xs))[0]

    def test_mod_gate_chain_mixed_moduli(self):
        circuit = Circuit()
        inputs = circuit.add_inputs(12)
        m3 = circuit.add_gate(ModGate(3), inputs[:6])
        m5 = circuit.add_gate(ModGate(5), inputs[6:])
        maj = circuit.add_gate(MajorityGate(2), [m3, m5])
        circuit.mark_output(maj)
        rng = random.Random(6)
        for _ in range(5):
            xs = [rng.random() < 0.5 for _ in range(12)]
            outputs, _, _ = self.simulate(circuit, 4, xs)
            assert outputs[maj] == circuit.evaluate_outputs(xs)[0]

    @pytest.mark.parametrize("n_players", [2, 3, 5, 8, 13])
    def test_player_count_sweep(self, n_players):
        """The same circuit across many clique sizes."""
        circuit = builders.threshold_parity_circuit(10)
        rng = random.Random(n_players)
        xs = [rng.random() < 0.5 for _ in range(10)]
        outputs, _, _ = self.simulate(circuit, n_players, xs)
        assert [outputs[g] for g in circuit.outputs] == circuit.evaluate_outputs(xs)


class TestExoticGatesKernel(TestExoticGates):
    kernel = True


def zoo_gates(rng):
    """``(gate, fan-in)`` for every built-in family, with mixed
    parameters inside one family, fan-in 1 included, and the Strassen
    XOR-4 gates' and threshold/parity's wide fan-ins (4 and 64)."""
    gates = [(NOT, 1)]
    for fan_in in (1, 2, 3, 4, 5, 64):
        gates += [
            (AND, fan_in),
            (OR, fan_in),
            (XOR, fan_in),
            (ModGate(rng.choice([2, 3, 5, 7])), fan_in),
            (ThresholdGate(rng.randint(0, fan_in + 1)), fan_in),
            (MajorityGate(fan_in), fan_in),
            (
                ThresholdGate(
                    rng.randint(0, 4 * fan_in),
                    weights=tuple(rng.randint(0, 4) for _ in range(fan_in)),
                ),
                fan_in,
            ),
        ]
    gates.append((GenericGate(lambda xs: xs.count(True) % 3 == 1, 3, "c3"), 3))
    return gates


class TestGroupedEvaluator:
    """:class:`GateGroups` against the per-gate :func:`vector_compute`
    loop it replaced, on random ``K × gates`` 0/1 value matrices."""

    @pytest.mark.parametrize("instances", [1, 4])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_per_gate_loop(self, seed, instances):
        rng = random.Random(seed)
        circuit = Circuit()
        sources = circuit.add_inputs(10)
        gids = []
        for _ in range(3):
            for gate, fan_in in zoo_gates(rng):
                # Repeated sources exercise duplicate wire inputs.
                inputs = [rng.choice(sources) for _ in range(fan_in)]
                gids.append(circuit.add_gate(gate, inputs))
        rng.shuffle(gids)
        nodes = circuit.nodes
        np_rng = np.random.default_rng(seed)
        vals = np_rng.integers(0, 2, size=(instances, len(circuit)), dtype=np.uint8)
        expected = vals.copy()
        for gid in gids:
            cols = np.asarray(nodes[gid].inputs, dtype=np.intp)
            expected[:, gid] = vector_compute(nodes[gid].gate, expected[:, cols])
        got = vals.copy()
        [groups] = compile_groups(circuit, [gids])
        groups.evaluate(got)
        assert (got == expected).all()
