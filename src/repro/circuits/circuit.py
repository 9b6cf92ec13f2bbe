"""DAG circuits with the paper's complexity measures.

A circuit is a DAG of gates (Section 2): inputs are source nodes,
outputs are marked gates, the *depth* is the longest input-to-output
path, and the *wire count* is the number of edges.  ``layers()``
computes exactly the layering used in Theorem 2's simulation:
L_0 = gates with no inputs, and L_r = gates whose inputs all lie in
earlier layers.

Gate ids are dense integers assigned in insertion order; inputs must
already exist when a gate is added, which guarantees acyclicity by
construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.circuits.gates import Gate

__all__ = ["GateNode", "Circuit", "INPUT_KIND", "CONST_KIND", "GATE_KIND"]

INPUT_KIND = "input"
CONST_KIND = "const"
GATE_KIND = "gate"


@dataclass(frozen=True, slots=True)
class GateNode:
    gate_id: int
    kind: str
    gate: Optional[Gate]
    inputs: Tuple[int, ...]
    const_value: bool = False
    input_index: int = -1


class Circuit:
    """A Boolean circuit as a DAG of :class:`GateNode`\\ s."""

    def __init__(self) -> None:
        self._nodes: List[GateNode] = []
        self._outputs: List[int] = []
        self._input_ids: List[int] = []
        self._fan_out: List[int] = []
        self._layers_cache: Optional[List[List[int]]] = None

    # -- construction ----------------------------------------------------

    def add_input(self) -> int:
        gid = len(self._nodes)
        self._nodes.append(
            GateNode(gid, INPUT_KIND, None, (), input_index=len(self._input_ids))
        )
        self._fan_out.append(0)
        self._input_ids.append(gid)
        self._layers_cache = None
        return gid

    def add_inputs(self, count: int) -> List[int]:
        return [self.add_input() for _ in range(count)]

    def add_const(self, value: bool) -> int:
        gid = len(self._nodes)
        self._nodes.append(GateNode(gid, CONST_KIND, None, (), const_value=bool(value)))
        self._fan_out.append(0)
        self._layers_cache = None
        return gid

    def add_gate(self, gate: Gate, inputs: Sequence[int]) -> int:
        gid = len(self._nodes)
        for source in inputs:
            if not 0 <= source < gid:
                raise ValueError(
                    f"gate {gid} references nonexistent input {source}"
                )
        arity = gate.arity()
        if arity is not None and len(inputs) != arity:
            raise ValueError(
                f"gate {gate!r} has arity {arity}, got {len(inputs)} inputs"
            )
        if not inputs:
            raise ValueError("non-input gates must have at least one input")
        self._nodes.append(GateNode(gid, GATE_KIND, gate, tuple(inputs)))
        self._fan_out.append(0)
        for source in inputs:
            self._fan_out[source] += 1
        self._layers_cache = None
        return gid

    def mark_output(self, gate_id: int) -> None:
        self.node(gate_id)
        self._outputs.append(gate_id)

    # -- queries ----------------------------------------------------------

    def node(self, gate_id: int) -> GateNode:
        if not 0 <= gate_id < len(self._nodes):
            raise ValueError(f"no gate with id {gate_id}")
        return self._nodes[gate_id]

    def __len__(self) -> int:
        return len(self._nodes)

    @property
    def nodes(self) -> Sequence[GateNode]:
        return self._nodes

    @property
    def outputs(self) -> List[int]:
        return list(self._outputs)

    @property
    def input_ids(self) -> List[int]:
        return list(self._input_ids)

    @property
    def num_inputs(self) -> int:
        return len(self._input_ids)

    def fan_in(self, gate_id: int) -> int:
        return len(self.node(gate_id).inputs)

    def fan_out(self, gate_id: int) -> int:
        return self._fan_out[gate_id]

    def weight(self, gate_id: int) -> int:
        """w(G) = |in(G)| + |out(G)| — the measure driving Theorem 2's
        heavy/light split."""
        return self.fan_in(gate_id) + self.fan_out(gate_id)

    def wire_count(self) -> int:
        """Number of wires N (edges of the DAG)."""
        return sum(len(node.inputs) for node in self._nodes)

    def layers(self) -> List[List[int]]:
        """The paper's layering: L_0 = sources; L_r = gates whose inputs
        all lie in strictly earlier layers."""
        if self._layers_cache is not None:
            return self._layers_cache
        layer_of: Dict[int, int] = {}
        layers: List[List[int]] = []
        for node in self._nodes:
            if node.kind in (INPUT_KIND, CONST_KIND):
                level = 0
            else:
                level = 1 + max(layer_of[src] for src in node.inputs)
            layer_of[node.gate_id] = level
            while len(layers) <= level:
                layers.append([])
            layers[level].append(node.gate_id)
        self._layers_cache = layers
        return layers

    def depth(self) -> int:
        """Longest path from a source to any gate (= number of non-input
        layers)."""
        return len(self.layers()) - 1

    def max_summary_width(self) -> int:
        """Largest separability parameter over all gates — the b of
        Definition 1 actually needed by this circuit."""
        width = 1
        for node in self._nodes:
            if node.kind == GATE_KIND:
                width = max(width, node.gate.summary_width(len(node.inputs)))
        return width

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, input_values: Sequence[bool]) -> Dict[int, bool]:
        """Direct (non-distributed) evaluation; returns value of every
        gate.  This is the ground truth the simulation is tested against."""
        if len(input_values) != self.num_inputs:
            raise ValueError(
                f"expected {self.num_inputs} inputs, got {len(input_values)}"
            )
        values: Dict[int, bool] = {}
        for node in self._nodes:
            if node.kind == INPUT_KIND:
                values[node.gate_id] = bool(input_values[node.input_index])
            elif node.kind == CONST_KIND:
                values[node.gate_id] = node.const_value
            else:
                values[node.gate_id] = node.gate.compute(
                    [values[src] for src in node.inputs]
                )
        return values

    def evaluate_outputs(self, input_values: Sequence[bool]) -> List[bool]:
        values = self.evaluate(input_values)
        return [values[gid] for gid in self._outputs]

    def stats(self) -> Dict[str, int]:
        return {
            "gates": len(self._nodes),
            "inputs": self.num_inputs,
            "outputs": len(self._outputs),
            "wires": self.wire_count(),
            "depth": self.depth(),
            "max_summary_width": self.max_summary_width(),
        }

    def __repr__(self) -> str:
        return (
            f"Circuit(gates={len(self._nodes)}, wires={self.wire_count()}, "
            f"depth={self.depth()})"
        )
