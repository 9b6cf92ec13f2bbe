"""Reference (centralised) matrix algebra for Section 2.1.

These numpy implementations are the ground truth against which the
distributed protocols are tested: F2 products and triangle counting via
trace(A³)/6.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.graphs.graph import Graph

__all__ = [
    "adjacency",
    "f2_matmul",
    "triangle_count",
    "has_triangle",
    "find_triangle",
]


def adjacency(graph: Graph) -> np.ndarray:
    return graph.adjacency_matrix().astype(np.int64)


def _as_f2_u8(m: np.ndarray) -> np.ndarray:
    return (np.asarray(m) & 1).astype(np.uint8)


def _f2_matmul_u8(a8: np.ndarray, b8: np.ndarray) -> np.ndarray:
    # uint8 accumulation wraps mod 256, which preserves parity — the
    # whole product stays in one byte per entry, no int64 round-trip.
    return (a8 @ b8) & np.uint8(1)


def f2_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return _f2_matmul_u8(_as_f2_u8(a), _as_f2_u8(b)).astype(np.int64)


def triangle_count(graph: Graph) -> int:
    # Work straight off the uint8 adjacency; a closed-walk count is at
    # most n^3 < 2^31 for any n this library simulates, so int32
    # accumulation suffices (int64 as a guard for absurd sizes).
    a8 = graph.adjacency_matrix()
    dtype = np.int64 if graph.n > 1290 else np.int32
    a = a8.astype(dtype)
    closed = np.einsum("ij,ji->", a @ a, a)
    return int(closed) // 6


def has_triangle(graph: Graph) -> bool:
    a8 = graph.adjacency_matrix()
    a = a8.astype(np.int32)
    return bool(((a @ a) * a8).any())


def find_triangle(graph: Graph) -> Optional[Tuple[int, int, int]]:
    a = adjacency(graph)
    paths = (a @ a) * a
    hits = np.argwhere(paths > 0)
    if hits.size == 0:
        return None
    i, j = map(int, hits[0])
    for k in range(graph.n):
        if a[i, k] and a[k, j]:
            return tuple(sorted((i, k, j)))  # type: ignore[return-value]
    raise AssertionError("inconsistent path count")  # pragma: no cover
