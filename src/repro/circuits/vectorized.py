"""Gate evaluation over 0/1 value matrices.

A ``K × gates`` ``uint8`` matrix holds one row of gate values per
instance (``K = 1`` for a single player's value vector).  The generator
simulation (:mod:`repro.simulation.protocol`, one player at a time) and
its kernel form (:mod:`repro.simulation.kernel`, all players and
instances at once) both evaluate a layer's gates through
:class:`GateGroups`; :meth:`~repro.circuits.circuit.Circuit.evaluate`
stays the per-gate ground truth.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.circuits.circuit import CONST_KIND
from repro.circuits.gates import (
    AndGate,
    ModGate,
    NotGate,
    OrGate,
    ThresholdGate,
    XorGate,
)

__all__ = ["constant_columns", "vector_compute", "GateGroups"]


def constant_columns(circuit) -> Tuple[np.ndarray, np.ndarray]:
    """(gate-id columns, 0/1 values) of the circuit's constant nodes —
    the seed every fresh value matrix needs."""
    cols = np.asarray(
        [node.gate_id for node in circuit.nodes if node.kind == CONST_KIND],
        dtype=np.intp,
    )
    vals = np.asarray(
        [
            1 if node.const_value else 0
            for node in circuit.nodes
            if node.kind == CONST_KIND
        ],
        dtype=np.uint8,
    )
    return cols, vals


def vector_compute(gate, part: np.ndarray) -> np.ndarray:
    """Evaluate ``gate`` on a ``K × fan_in`` 0/1 matrix of its input
    values — one result per instance, vectorized for every built-in
    gate family (arbitrary :class:`~repro.circuits.gates.Gate`
    subclasses fall back to per-instance ``compute``).  This is the
    per-gate reference :class:`GateGroups` reproduces, and how it
    evaluates gate classes outside its grouped families."""
    if isinstance(gate, AndGate):
        return part.all(axis=1)
    if isinstance(gate, OrGate):
        return part.any(axis=1)
    if isinstance(gate, NotGate):
        return part[:, 0] == 0
    if isinstance(gate, XorGate):
        return part.sum(axis=1, dtype=np.int64) % 2 == 1
    if isinstance(gate, ModGate):
        return part.sum(axis=1, dtype=np.int64) % gate.modulus == 0
    if isinstance(gate, ThresholdGate):
        if gate.weights is None:
            total = part.sum(axis=1, dtype=np.int64)
        else:
            total = part.astype(np.int64) @ np.asarray(gate.weights, dtype=np.int64)
        return total >= gate.threshold
    return np.array(
        [gate.compute([bool(x) for x in row]) for row in part], dtype=bool
    )


#: The gate families :class:`GateGroups` evaluates in groups, in
#: :func:`vector_compute`'s ``isinstance`` order — a subclass such as
#: :class:`~repro.circuits.gates.MajorityGate` joins its base family.
_FAMILIES = (AndGate, OrGate, NotGate, XorGate, ModGate, ThresholdGate)


class GateGroups:
    """Gates with no dependencies among them (one layer's) compiled for
    evaluation over a ``K × gates`` 0/1 value matrix.

    Gates are grouped by family and fan-in.  A group keeps its output
    columns, its ``gates × fan-in`` input columns and, where its family
    has them, per-gate moduli, thresholds and weights, so
    :meth:`evaluate` costs one gather and one reduction per group.
    Gates of any other class are evaluated one at a time with
    :func:`vector_compute`.
    """

    __slots__ = ("groups", "others")

    def __init__(self, nodes, gids) -> None:
        family_of: Dict[type, type] = {}
        members: Dict[Tuple[type, int], List[int]] = {}
        self.others = []
        for gid in gids:
            node = nodes[gid]
            kind = type(node.gate)
            if kind not in family_of:
                family_of[kind] = next(
                    (f for f in _FAMILIES if issubclass(kind, f)), None
                )
            family = family_of[kind]
            if family is None:
                cols = np.asarray(node.inputs, dtype=np.intp)
                self.others.append((gid, node.gate, cols))
            else:
                members.setdefault((family, len(node.inputs)), []).append(gid)
        self.groups = []
        for (family, fan_in), group in members.items():
            gates = [nodes[gid].gate for gid in group]
            param = weights = None
            if family is ModGate:
                param = np.asarray([g.modulus for g in gates], dtype=np.int64)
            elif family is ThresholdGate:
                param = np.asarray([g.threshold for g in gates], dtype=np.int64)
                if any(g.weights is not None for g in gates):
                    weights = np.asarray(
                        [
                            (1,) * fan_in if g.weights is None else g.weights
                            for g in gates
                        ],
                        dtype=np.int64,
                    )
            cols = np.asarray([nodes[gid].inputs for gid in group], dtype=np.intp)
            out = np.asarray(group, dtype=np.intp)
            self.groups.append((family, out, cols, param, weights))

    def input_columns(self) -> List[np.ndarray]:
        """The input columns the gates read, one array per group and
        per ungrouped gate."""
        return [group[2] for group in self.groups] + [
            cols for _gid, _gate, cols in self.others
        ]

    def evaluate(self, vals: np.ndarray) -> None:
        """Write every gate's value into its column of ``vals``."""
        for family, out, cols, param, weights in self.groups:
            part = vals[:, cols]
            if family is AndGate:
                result = part.all(axis=2)
            elif family is OrGate:
                result = part.any(axis=2)
            elif family is NotGate:
                result = part[:, :, 0] == 0
            elif family is XorGate:
                result = part.sum(axis=2, dtype=np.int64) % 2 == 1
            elif family is ModGate:
                result = part.sum(axis=2, dtype=np.int64) % param == 0
            else:
                if weights is None:
                    total = part.sum(axis=2, dtype=np.int64)
                else:
                    total = (part * weights).sum(axis=2)
                result = total >= param
            vals[:, out] = result
        for gid, gate, cols in self.others:
            vals[:, gid] = vector_compute(gate, vals[:, cols])
