"""Graph substrate: the library's own graph type, generators, degeneracy,
subgraph search, Turán machinery, extremal and Ruzsa–Szemerédi graphs."""

from repro.graphs.graph import Edge, Graph, canonical_edge
from repro.graphs.degeneracy import degeneracy, degeneracy_ordering
from repro.graphs.generators import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    empty_graph,
    matching_graph,
    path_graph,
    plant_subgraph,
    random_bipartite,
    random_graph,
    random_k_degenerate,
    star_graph,
    turan_graph,
)
from repro.graphs.subgraph_iso import (
    contains_subgraph,
    count_copies,
    enumerate_copies,
    find_embedding,
    iter_embeddings,
)
from repro.graphs import extremal, properties, ruzsa_szemeredi, turan

__all__ = [
    "Graph",
    "Edge",
    "canonical_edge",
    "degeneracy",
    "degeneracy_ordering",
    "empty_graph",
    "complete_graph",
    "complete_bipartite",
    "cycle_graph",
    "path_graph",
    "star_graph",
    "matching_graph",
    "turan_graph",
    "random_graph",
    "random_bipartite",
    "random_k_degenerate",
    "plant_subgraph",
    "find_embedding",
    "iter_embeddings",
    "contains_subgraph",
    "enumerate_copies",
    "count_copies",
    "turan",
    "extremal",
    "properties",
    "ruzsa_szemeredi",
]
