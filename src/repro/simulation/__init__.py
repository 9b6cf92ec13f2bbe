"""Theorem 2: simulating bounded-depth circuits on CLIQUE-UCAST."""

from repro.simulation.assignment import GateAssignment, assign_gates
from repro.simulation.kernel import make_kernel_program
from repro.simulation.protocol import (
    LayerPlan,
    SimulationPlan,
    build_plan,
    execute_plan,
    make_program,
    simulate_circuit,
    simulate_circuit_many,
)

__all__ = [
    "GateAssignment",
    "assign_gates",
    "LayerPlan",
    "SimulationPlan",
    "build_plan",
    "execute_plan",
    "make_program",
    "make_kernel_program",
    "simulate_circuit",
    "simulate_circuit_many",
]
