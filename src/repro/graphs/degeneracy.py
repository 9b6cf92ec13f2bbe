"""Degeneracy and elimination orderings (Matula–Beck bucket peeling).

The degeneracy of G is the smallest k such that every subgraph of G has a
vertex of degree at most k (Section 3.1 of the paper).  The peeling order
produced here is exactly the ordering used in Lemma 8's proof: vertex
``order[i]`` has at most ``k`` neighbours among ``order[i+1:]``.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.graphs.graph import Graph

__all__ = ["degeneracy", "degeneracy_ordering"]


def degeneracy_ordering(graph: Graph) -> Tuple[int, List[int]]:
    """Return ``(k, order)`` where ``k`` is the degeneracy and ``order`` is
    a peeling order certifying it (each vertex has <= k later neighbours).

    Runs in O(n + m) with a bucket queue.
    """
    n = graph.n
    if n == 0:
        return 0, []
    degree = [graph.degree(v) for v in range(n)]
    max_deg = max(degree)
    buckets: List[List[int]] = [[] for _ in range(max_deg + 1)]
    for v in range(n):
        buckets[degree[v]].append(v)
    removed = [False] * n
    order: List[int] = []
    k = 0
    current = 0
    while len(order) < n:
        if current > max_deg:  # pragma: no cover - defensive
            raise AssertionError("bucket queue exhausted prematurely")
        if not buckets[current]:
            current += 1
            continue
        v = buckets[current].pop()
        if removed[v] or degree[v] != current:
            continue  # stale entry left behind by a degree decrement
        removed[v] = True
        k = max(k, current)
        order.append(v)
        for u in graph.neighbors(v):
            if not removed[u]:
                degree[u] -= 1
                buckets[degree[u]].append(u)
                if degree[u] < current:
                    current = degree[u]
    return k, order


def degeneracy(graph: Graph) -> int:
    """The degeneracy of ``graph``."""
    return degeneracy_ordering(graph)[0]
