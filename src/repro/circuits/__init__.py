"""Circuit substrate: gates with b-separability, DAG circuits, builders,
and F2 arithmetic circuits for matrix multiplication."""

from repro.circuits.circuit import CONST_KIND, GATE_KIND, INPUT_KIND, Circuit, GateNode
from repro.circuits.gates import (
    AND,
    NOT,
    OR,
    XOR,
    AndGate,
    Gate,
    GenericGate,
    MajorityGate,
    ModGate,
    NotGate,
    OrGate,
    ThresholdGate,
    XorGate,
)
from repro.circuits import arithmetic, builders

__all__ = [
    "Circuit",
    "GateNode",
    "INPUT_KIND",
    "CONST_KIND",
    "GATE_KIND",
    "Gate",
    "AndGate",
    "OrGate",
    "NotGate",
    "XorGate",
    "ModGate",
    "ThresholdGate",
    "MajorityGate",
    "GenericGate",
    "AND",
    "OR",
    "NOT",
    "XOR",
    "builders",
    "arithmetic",
]
