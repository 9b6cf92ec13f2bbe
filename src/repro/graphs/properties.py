"""Structural predicates on small pattern graphs.

These drive the ex(n, H) dispatcher in :mod:`repro.graphs.turan` and a
few case splits in the lower-bound constructions.
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

from repro.graphs.graph import Graph

__all__ = [
    "is_clique",
    "is_forest",
    "cycle_length",
    "bipartition",
    "is_bipartite",
    "connected_components",
]


def connected_components(graph: Graph) -> List[List[int]]:
    seen = [False] * graph.n
    components = []
    for root in graph.vertices():
        if seen[root]:
            continue
        stack = [root]
        seen[root] = True
        component = []
        while stack:
            v = stack.pop()
            component.append(v)
            for u in graph.neighbors(v):
                if not seen[u]:
                    seen[u] = True
                    stack.append(u)
        components.append(sorted(component))
    return components


def is_clique(graph: Graph) -> bool:
    n = graph.n
    return n >= 1 and graph.m == n * (n - 1) // 2


def is_forest(graph: Graph) -> bool:
    components = connected_components(graph)
    return graph.m == graph.n - len(components)


def cycle_length(graph: Graph) -> Optional[int]:
    """If the graph is exactly one cycle (plus isolated vertices), its
    length; otherwise None."""
    cycle_vertices = [v for v in graph.vertices() if graph.degree(v) > 0]
    if len(cycle_vertices) < 3:
        return None
    if any(graph.degree(v) != 2 for v in cycle_vertices):
        return None
    if graph.m != len(cycle_vertices):
        return None
    components = [c for c in connected_components(graph) if len(c) > 1]
    if len(components) != 1:
        return None
    return len(cycle_vertices)


def bipartition(graph: Graph) -> Optional[Tuple[Set[int], Set[int]]]:
    """A 2-colouring (ignoring isolated vertices placed on side 0), or
    None if the graph is not bipartite."""
    colour = [-1] * graph.n
    for root in graph.vertices():
        if colour[root] != -1:
            continue
        colour[root] = 0
        stack = [root]
        while stack:
            v = stack.pop()
            for u in graph.neighbors(v):
                if colour[u] == -1:
                    colour[u] = 1 - colour[v]
                    stack.append(u)
                elif colour[u] == colour[v]:
                    return None
    side0 = {v for v in graph.vertices() if colour[v] == 0}
    side1 = {v for v in graph.vertices() if colour[v] == 1}
    return side0, side1


def is_bipartite(graph: Graph) -> bool:
    return bipartition(graph) is not None
