"""Arithmetic circuits over F2 for matrix multiplication (Section 2.1).

The paper's conditional triangle-detection result translates small
arithmetic circuits for matrix multiplication into fast CLIQUE-UCAST
protocols via the Theorem 2 simulation.  Over F2, addition is XOR and
multiplication is AND, so an arithmetic circuit *is* a Boolean circuit
of O(1)-separable gates.

Two constructions are provided:

* :func:`matmul_circuit_naive` — the school method: k³ AND gates and k²
  unbounded-fan-in XOR gates, depth 2, Θ(k³) wires.
* :func:`matmul_circuit_strassen` — Strassen's recursion (exponent
  log2 7 ≈ 2.81): Θ(k^{2.81}) wires and O(log k) depth, standing in for
  the "size O(n^{2+ε}) circuits" of the conjecture.  The block structure
  mirrors the Bürgisser–Clausen–Shokrollahi Prop. 15.1 argument the
  paper cites for getting few wires *and* small depth.

Both are built as arrays, one block of gates per matrix operation: a
Strassen recursion level's additions, its seven sub-products and its
quadrant sums are each one vectorized block over every sub-problem of
that level.  Gate ids are the depth-first ids of the textbook recursion
(first operand sums, then each product's subtree, then the quadrant
sums), computed from the subtree sizes, so the circuit is the one the
recursion would build gate by gate.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.circuits.circuit import Circuit
from repro.circuits.gates import AND, XOR

__all__ = [
    "matmul_circuit_naive",
    "matmul_circuit_strassen",
    "matrix_inputs",
    "pack_matrices",
    "unpack_product",
]

Matrix = List[List[int]]  # gate ids


def matrix_inputs(circuit: Circuit, size: int) -> Matrix:
    """Add size² fresh inputs arranged row-major as a matrix of gate ids."""
    ids = circuit.add_inputs(size * size)
    return [ids[i * size : (i + 1) * size] for i in range(size)]


_XOR, _AND = 0, 1


class _Blocks:
    """The XOR and AND gates of one product, placed at computed ids and
    appended to the circuit in id order as one block."""

    def __init__(self, start: int, count: int) -> None:
        self.start = start
        self.which = np.zeros(count, dtype=np.int8)
        self.fan_ins = np.zeros(count, dtype=np.int64)
        self.parts = []

    def add(self, which: int, ids: np.ndarray, sources: np.ndarray) -> None:
        """Gates ``ids`` (any shape), gate ``ids[...]`` reading
        ``sources[..., :]``."""
        rows = ids.reshape(-1) - self.start
        sources = sources.reshape(len(rows), -1)
        self.which[rows] = which
        self.fan_ins[rows] = sources.shape[1]
        self.parts.append((rows, sources))

    def emit(self, circuit: Circuit) -> None:
        indptr = np.concatenate(([0], np.cumsum(self.fan_ins)))
        flat = np.empty(int(indptr[-1]), dtype=np.intp)
        for rows, sources in self.parts:
            flat[indptr[rows][:, None] + np.arange(sources.shape[1])] = sources
        circuit.add_gates([XOR, AND], self.which, self.fan_ins, flat)


def _gate_count(size: int, cutoff: int) -> int:
    """Gates one ``size × size`` product adds."""
    if size <= cutoff:
        return size**3 + (size * size if size > 1 else 0)
    half = size // 2
    return 14 * half * half + 7 * _gate_count(half, cutoff)


def _mult_naive(
    blocks: _Blocks, a: np.ndarray, b: np.ndarray, base: np.ndarray
) -> np.ndarray:
    """The school method on ``K`` stacked ``s × s`` products, product
    ``k``'s gates from ``base[k]`` on: for each entry (i, j), row-major,
    its ``s`` ANDs a[i][l]·b[l][j], then the XOR of them (none when
    s = 1).  Returns the ``K × s × s`` ids of the products' entries."""
    count, size, _ = a.shape
    stride = size + 1 if size > 1 else 1
    entry = np.arange(size * size).reshape(size, size) * stride
    products = (base[:, None, None] + entry)[..., None] + np.arange(size)
    shape = (count, size, size, size)
    blocks.add(
        _AND,
        products,
        np.stack(
            [
                np.broadcast_to(a[:, :, None, :], shape),
                np.broadcast_to(b.transpose(0, 2, 1)[:, None, :, :], shape),
            ],
            axis=-1,
        ),
    )
    if size == 1:
        return products[..., 0]
    sums = products[..., 0] + size
    blocks.add(_XOR, sums, products)
    return sums


def _mult_strassen(
    blocks: _Blocks, a: np.ndarray, b: np.ndarray, base: np.ndarray, cutoff: int
) -> np.ndarray:
    """Strassen's recursion on ``K`` stacked products at once, product
    ``k``'s gates from ``base[k]`` on, in the depth-first order of the
    recursion: S1 = A11+A22, T1 = B11+B22, M1's subtree, S2, M2's
    subtree, T3, M3, T4, M4, S5, M5, S6, T6, M6, S7, T7, M7, then the
    quadrant sums C11, C12, C21, C22 (over F2, subtraction is XOR)."""
    size = a.shape[1]
    if size <= cutoff:
        return _mult_naive(blocks, a, b, base)
    half = size // 2
    q = half * half
    sub = _gate_count(half, cutoff)
    a11, a12, a21, a22 = a[:, :half, :half], a[:, :half, half:], a[:, half:, :half], a[:, half:, half:]
    b11, b12, b21, b22 = b[:, :half, :half], b[:, :half, half:], b[:, half:, :half], b[:, half:, half:]
    grid = np.arange(q).reshape(half, half)

    def xor(terms, offset):
        ids = base[:, None, None] + offset + grid
        blocks.add(_XOR, ids, np.stack(terms, axis=-1))
        return ids

    s1 = xor([a11, a22], 0)
    t1 = xor([b11, b22], q)
    s2 = xor([a21, a22], 2 * q + sub)
    t3 = xor([b12, b22], 3 * q + 2 * sub)
    t4 = xor([b21, b11], 4 * q + 3 * sub)
    s5 = xor([a11, a12], 5 * q + 4 * sub)
    s6 = xor([a21, a11], 6 * q + 5 * sub)
    t6 = xor([b11, b12], 7 * q + 5 * sub)
    s7 = xor([a12, a22], 8 * q + 6 * sub)
    t7 = xor([b21, b22], 9 * q + 6 * sub)
    starts = np.asarray(
        [2 * q, 3 * q + sub, 4 * q + 2 * sub, 5 * q + 3 * sub,
         6 * q + 4 * sub, 8 * q + 5 * sub, 10 * q + 6 * sub]
    )
    m = _mult_strassen(
        blocks,
        np.stack([s1, s2, a11, a22, s5, s6, s7], axis=1).reshape(-1, half, half),
        np.stack([t1, b11, t3, t4, b22, t6, t7], axis=1).reshape(-1, half, half),
        (base[:, None] + starts).reshape(-1),
        cutoff,
    ).reshape(-1, 7, half, half)
    m1, m2, m3, m4, m5, m6, m7 = (m[:, i] for i in range(7))
    sums = 10 * q + 7 * sub
    c11 = xor([m1, m4, m5, m7], sums)
    c12 = xor([m3, m5], sums + q)
    c21 = xor([m2, m4], sums + 2 * q)
    c22 = xor([m1, m2, m3, m6], sums + 3 * q)
    return np.concatenate(
        [np.concatenate([c11, c12], axis=2), np.concatenate([c21, c22], axis=2)],
        axis=1,
    )


def _padded_size(size: int) -> int:
    padded = 1
    while padded < size:
        padded *= 2
    return padded


def _pad_matrix(circuit: Circuit, mat: np.ndarray, padded: int) -> np.ndarray:
    size = len(mat)
    if padded == size:
        return mat
    out = np.full((padded, padded), circuit.add_const(False), dtype=np.intp)
    out[:size, :size] = mat
    return out


def _product(circuit: Circuit, a: np.ndarray, b: np.ndarray, cutoff: int) -> np.ndarray:
    """Append the gates of A·B (Strassen down to ``cutoff``, the school
    method below it) and return the ids of its entries."""
    start = len(circuit)
    blocks = _Blocks(start, _gate_count(len(a), cutoff))
    c = _mult_strassen(blocks, a[None], b[None], np.asarray([start]), cutoff)[0]
    blocks.emit(circuit)
    return c


def matmul_circuit_naive(size: int) -> Circuit:
    """C = A·B over F2, school method.  Inputs: A row-major, then B
    row-major; outputs: C row-major."""
    circuit = Circuit()
    a = np.asarray(matrix_inputs(circuit, size), dtype=np.intp).reshape(size, size)
    b = np.asarray(matrix_inputs(circuit, size), dtype=np.intp).reshape(size, size)
    for gid in _product(circuit, a, b, size).reshape(-1).tolist():
        circuit.mark_output(gid)
    return circuit


def matmul_circuit_strassen(size: int, cutoff: int = 2) -> Circuit:
    """C = A·B over F2 by Strassen's recursion (padded to a power of 2)."""
    circuit = Circuit()
    a = np.asarray(matrix_inputs(circuit, size), dtype=np.intp).reshape(size, size)
    b = np.asarray(matrix_inputs(circuit, size), dtype=np.intp).reshape(size, size)
    padded = _padded_size(size)
    a = _pad_matrix(circuit, a, padded)
    b = _pad_matrix(circuit, b, padded)
    c = _product(circuit, a, b, cutoff)
    for gid in c[:size, :size].reshape(-1).tolist():
        circuit.mark_output(gid)
    return circuit


def pack_matrices(a_rows: Sequence[Sequence[int]], b_rows: Sequence[Sequence[int]]) -> List[bool]:
    """Flatten two 0/1 matrices into the circuit input order."""
    flat: List[bool] = []
    for row in a_rows:
        flat.extend(bool(x) for x in row)
    for row in b_rows:
        flat.extend(bool(x) for x in row)
    return flat


def unpack_product(outputs: Sequence[bool], size: int) -> List[List[int]]:
    """Reshape the circuit's outputs back into a size×size 0/1 matrix."""
    return [
        [1 if outputs[i * size + j] else 0 for j in range(size)]
        for i in range(size)
    ]
