"""F2 matmul circuits (naive + Strassen) against the numpy reference."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from repro.circuits.arithmetic import (
    matmul_circuit_naive,
    matmul_circuit_strassen,
    pack_matrices,
    unpack_product,
)
from repro.matmul.boolean import f2_matmul


def random_matrix(size, rng):
    return [[rng.randint(0, 1) for _ in range(size)] for _ in range(size)]


class TestNaiveCircuit:
    @pytest.mark.parametrize("size", [1, 2, 3, 4, 6])
    def test_matches_numpy(self, size):
        circuit = matmul_circuit_naive(size)
        rng = random.Random(size)
        for _ in range(5):
            a = random_matrix(size, rng)
            b = random_matrix(size, rng)
            got = unpack_product(
                circuit.evaluate_outputs(pack_matrices(a, b)), size
            )
            expected = f2_matmul(np.array(a), np.array(b))
            assert (np.array(got) == expected).all()

    def test_shape(self):
        size = 5
        circuit = matmul_circuit_naive(size)
        assert circuit.num_inputs == 2 * size * size
        assert len(circuit.outputs) == size * size
        assert circuit.depth() == 2
        # k³ AND gates with 2 wires + k² XOR gates with k wires.
        assert circuit.wire_count() == 2 * size**3 + size**3


class TestStrassenCircuit:
    @pytest.mark.parametrize("size", [1, 2, 3, 4, 5, 8])
    def test_matches_numpy(self, size):
        circuit = matmul_circuit_strassen(size)
        rng = random.Random(100 + size)
        for _ in range(5):
            a = random_matrix(size, rng)
            b = random_matrix(size, rng)
            got = unpack_product(
                circuit.evaluate_outputs(pack_matrices(a, b)), size
            )
            expected = f2_matmul(np.array(a), np.array(b))
            assert (np.array(got) == expected).all()

    def test_wire_growth_exponent(self):
        """Strassen's doubling ratio tends to 7 (exponent log2 7 ≈ 2.81)
        while the naive circuit's is exactly 8 (cubic).  At toy sizes the
        constant overhead keeps absolute counts above naive — the paper's
        conditional result is about the exponent, which is what we check."""
        w16 = matmul_circuit_strassen(16).wire_count()
        w32 = matmul_circuit_strassen(32).wire_count()
        exponent = math.log2(w32 / w16)
        naive_exponent = math.log2(
            matmul_circuit_naive(32).wire_count()
            / matmul_circuit_naive(16).wire_count()
        )
        assert naive_exponent == pytest.approx(3.0)
        assert exponent < 2.95

    def test_logarithmic_depth(self):
        d8 = matmul_circuit_strassen(8).depth()
        d32 = matmul_circuit_strassen(32).depth()
        assert d32 <= d8 + 2 * math.log2(32 / 8) + 1

    def test_padding_correct(self):
        # size 5 pads to 8 internally but exposes exactly 25 outputs.
        circuit = matmul_circuit_strassen(5)
        assert len(circuit.outputs) == 25
        assert circuit.num_inputs == 50
