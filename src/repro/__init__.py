"""repro — a reproduction of Drucker, Kuhn & Oshman,
"On the Power of the Congested Clique Model" (PODC 2014).

The package provides executable, bit-accounting simulators for the
CLIQUE-UCAST, CLIQUE-BCAST and CONGEST models, every algorithm the paper
describes (circuit simulation, subgraph detection, triangle detection),
and every lower-bound construction (Definition 10 graphs, the
Ruzsa–Szemerédi/NOF reduction, the non-explicit counting bound) as
concrete, machine-verified objects.

See README.md for the system inventory and the departures from the
paper, and EXPERIMENTS.md for the theorem-by-theorem reproduction
record.
"""

__version__ = "1.0.0"

from repro.core import (
    Bits,
    Context,
    Inbox,
    Mode,
    Network,
    Outbox,
    RunResult,
    run_protocol,
)
from repro.graphs import Graph

__all__ = [
    "__version__",
    "Bits",
    "Mode",
    "Network",
    "Context",
    "Inbox",
    "Outbox",
    "RunResult",
    "run_protocol",
    "Graph",
]
