"""Dense H-free graphs: the extremal constructions behind Section 3.

* :func:`polarity_graph` — the Erdős–Rényi polarity graph ER_q: C4-free
  with (1/2 + o(1))·n^{3/2} edges, the construction showing
  ex(n, C4) = Θ(n^{3/2}).  Used by Lemma 18 for ℓ = 4.
* :func:`incidence_graph` — the bipartite point–line incidence graph of
  the projective plane PG(2, q): girth 6 (hence C4-free), Θ(n^{3/2})
  edges.  This is the *bipartite* C4-free graph Observation 20 asks for,
  used by Lemma 21.
* :func:`cycle_free_graph` — the Erdős deletion method for even ℓ >= 6,
  where exact extremal graphs are unknown even to mathematics (README
  "Departures from the paper" #3): sample at the Bondy–Simonovits density
  and delete one edge from every surviving copy of C_ℓ; the result is
  certified C_ℓ-free by exhaustive search.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from repro.graphs.graph import Graph
from repro.graphs.generators import complete_bipartite, random_graph
from repro.graphs.subgraph_iso import find_embedding
from repro.graphs.generators import cycle_graph

__all__ = [
    "is_prime",
    "next_prime",
    "projective_points",
    "polarity_graph",
    "incidence_graph",
    "cycle_free_graph",
    "dense_c4_free_bipartite",
    "dense_cycle_free_graph",
]


def is_prime(q: int) -> bool:
    if q < 2:
        return False
    if q % 2 == 0:
        return q == 2
    f = 3
    while f * f <= q:
        if q % f == 0:
            return False
        f += 2
    return True


def next_prime(q: int) -> int:
    candidate = max(2, q)
    while not is_prime(candidate):
        candidate += 1
    return candidate


def projective_points(q: int) -> List[Tuple[int, int, int]]:
    """The q² + q + 1 points of PG(2, q), normalised so the first nonzero
    coordinate equals 1."""
    points = [(1, y, z) for y in range(q) for z in range(q)]
    points.extend((0, 1, z) for z in range(q))
    points.append((0, 0, 1))
    return points


def _dot(a: Tuple[int, int, int], b: Tuple[int, int, int], q: int) -> int:
    return (a[0] * b[0] + a[1] * b[1] + a[2] * b[2]) % q


def polarity_graph(q: int) -> Graph:
    """The Erdős–Rényi polarity graph ER_q for prime q.

    Vertices are the points of PG(2, q); x ~ y iff x·y = 0 (mod q) and
    x != y.  The graph is C4-free with q²+q+1 vertices and
    (1/2)q(q+1)² - O(q) edges.
    """
    if not is_prime(q):
        raise ValueError("polarity graph needs a prime order q")
    points = projective_points(q)
    graph = Graph(len(points))
    for i, p in enumerate(points):
        for j in range(i + 1, len(points)):
            if _dot(p, points[j], q) == 0:
                graph.add_edge(i, j)
    return graph


def incidence_graph(q: int) -> Graph:
    """The bipartite point–line incidence graph of PG(2, q) for prime q.

    Side A (vertices 0..q²+q) are points; side B are lines (represented
    by dual coordinates).  Point p lies on line L iff p·L = 0.  The graph
    has girth 6, so it is C4-free, with (q+1)(q²+q+1) edges on
    2(q²+q+1) vertices — matching Observation 20's bipartite C4-free
    graph with >= ex(N, C4)/2 edges.
    """
    if not is_prime(q):
        raise ValueError("incidence graph needs a prime order q")
    points = projective_points(q)
    count = len(points)
    graph = Graph(2 * count)
    for i, p in enumerate(points):
        for j, line in enumerate(points):
            if _dot(p, line, q) == 0:
                graph.add_edge(i, count + j)
    return graph


def cycle_free_graph(
    n: int,
    length: int,
    rng: Optional[random.Random] = None,
    density_factor: float = 0.25,
) -> Graph:
    """A reasonably dense certified C_ℓ-free graph on ``n`` vertices via
    the Erdős deletion method (for even ℓ; odd ℓ callers should use
    complete bipartite graphs, which have no odd cycles at all)."""
    if rng is None:
        rng = random.Random(0)
    if length % 2 == 1:
        half = n // 2
        return complete_bipartite(half, n - half)
    k = length // 2
    target_edges = density_factor * n ** (1.0 + 1.0 / k)
    p = min(1.0, 2.0 * target_edges / max(1, n * (n - 1) // 2))
    graph = random_graph(n, p, rng)
    pattern = cycle_graph(length)
    while True:
        embedding = find_embedding(graph, pattern)
        if embedding is None:
            return graph
        cycle_edges = [
            (embedding[u], embedding[v]) for u, v in pattern.edges()
        ]
        u, v = rng.choice(cycle_edges)
        graph.remove_edge(u, v)


def dense_c4_free_bipartite(min_n: int) -> Tuple[Graph, int]:
    """The smallest incidence graph with at least ``min_n`` vertices;
    returns (graph, points_per_side)."""
    q = 2
    while 2 * (q * q + q + 1) < min_n:
        q = next_prime(q + 1)
    graph = incidence_graph(q)
    return graph, q * q + q + 1


def dense_cycle_free_graph(n: int, length: int, rng: Optional[random.Random] = None) -> Graph:
    """Dispatcher used by Lemma 18: the densest C_ℓ-free graph we can
    build on n vertices.

    * odd ℓ   -> K_{⌊n/2⌋,⌈n/2⌉} (extremal, per the paper),
    * ℓ = 4   -> polarity graph trimmed/padded to n vertices,
    * even ℓ >= 6 -> deletion-method graph.
    """
    if length % 2 == 1:
        half = n // 2
        return complete_bipartite(half, n - half)
    if length == 4:
        q = 2
        while True:
            nq = next_prime(q + 1)
            if nq * nq + nq + 1 > n:
                break
            q = nq
        base = polarity_graph(q)
        if base.n >= n:
            sub, _ = base.induced_subgraph(list(range(n)))
            return sub
        padded = Graph(n)
        for u, v in base.edges():
            padded.add_edge(u, v)
        return padded
    return cycle_free_graph(n, length, rng)
