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

from itertools import chain
from typing import Dict, List, Tuple

import numpy as np

from repro.circuits.circuit import CONST_CODE, grouped
from repro.circuits.gates import (
    AndGate,
    ModGate,
    NotGate,
    OrGate,
    ThresholdGate,
    XorGate,
)

__all__ = ["constant_columns", "vector_compute", "GateGroups", "compile_groups"]


def constant_columns(circuit) -> Tuple[np.ndarray, np.ndarray]:
    """(gate-id columns, 0/1 values) of the circuit's constant nodes —
    the seed every fresh value matrix needs."""
    cols = np.flatnonzero(circuit.kind_codes == CONST_CODE)
    return cols, circuit.values[cols].astype(np.uint8)


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


def _families(circuit):
    """Per entry of the circuit's gate table: its index in
    :data:`_FAMILIES` (-1 outside them), its modulus or threshold, and
    its weights (``None`` when unweighted)."""
    family_of: Dict[type, int] = {}
    codes, params, weights = [], [], []
    for gate in circuit.gate_table:
        kind = type(gate)
        if kind not in family_of:
            family_of[kind] = next(
                (i for i, f in enumerate(_FAMILIES) if issubclass(kind, f)), -1
            )
        codes.append(family_of[kind])
        params.append(
            gate.modulus
            if isinstance(gate, ModGate)
            else gate.threshold if isinstance(gate, ThresholdGate) else 0
        )
        weights.append(gate.weights if isinstance(gate, ThresholdGate) else None)
    return (
        np.asarray(codes, dtype=np.int64),
        np.asarray(params, dtype=np.int64),
        weights,
    )


def compile_groups(circuit, gid_lists) -> List["GateGroups"]:
    """One :class:`GateGroups` per list of gate ids in ``gid_lists``,
    read off the circuit's arrays with one grouping for all of them.
    Each list's groups come in order of first appearance in it, with
    their gates in list order."""
    family_codes, params, weights = circuit.derived("gate_families", _families)
    table = circuit.gate_table
    indices = circuit.indices
    sizes = [len(gids) for gids in gid_lists]
    gids = np.fromiter(chain.from_iterable(gid_lists), dtype=np.intp, count=sum(sizes))
    lists = np.repeat(np.arange(len(sizes)), sizes)
    slots = circuit.gate_slots[gids]
    fan_ins = circuit.fan_ins[gids]
    starts = circuit.indptr[gids]
    families = family_codes[slots]
    parts: List[Tuple[list, list]] = [([], []) for _ in sizes]
    for i in np.flatnonzero(families < 0).tolist():
        parts[lists[i]][1].append(
            (int(gids[i]), table[slots[i]], indices[starts[i] : starts[i] + fan_ins[i]])
        )
    at = np.flatnonzero(families >= 0)
    fan_stride = int(fan_ins.max()) + 1 if len(gids) else 1
    keys = (lists[at] * len(_FAMILIES) + families[at]) * fan_stride + fan_ins[at]
    for key, positions in grouped(keys, at):
        rest, fan_in = divmod(key, fan_stride)
        which, family_index = divmod(rest, len(_FAMILIES))
        family = _FAMILIES[family_index]
        positions = np.asarray(positions, dtype=np.intp)
        member_slots = slots[positions]
        param = group_weights = None
        if family is ModGate or family is ThresholdGate:
            param = params[member_slots]
        if family is ThresholdGate:
            rows = [weights[slot] for slot in member_slots.tolist()]
            if any(row is not None for row in rows):
                group_weights = np.asarray(
                    [(1,) * fan_in if row is None else row for row in rows],
                    dtype=np.int64,
                ).T
        cols = indices[np.arange(fan_in)[:, None] + starts[positions]]
        parts[which][0].append((family, gids[positions], cols, param, group_weights))
    return [GateGroups(groups, others) for groups, others in parts]


class GateGroups:
    """Gates with no dependencies among them (one layer's) compiled for
    evaluation over a ``K × gates`` 0/1 value matrix
    (:func:`compile_groups` builds them).

    Gates are grouped by family and fan-in.  A group keeps its output
    columns, its ``fan-in × gates`` input columns and, where its family
    has them, per-gate moduli, thresholds and ``fan-in × gates``
    weights, so :meth:`evaluate` costs one gather and one reduction per
    group, the reduction running along the gates.  Gates of any other
    class are evaluated one at a time with :func:`vector_compute`.
    """

    __slots__ = ("groups", "others")

    def __init__(self, groups, others) -> None:
        self.groups = groups
        self.others = others

    def output_columns(self) -> List[np.ndarray]:
        """The columns the gates write, one array per group and per
        ungrouped gate."""
        return [group[1] for group in self.groups] + [
            np.asarray([gid], dtype=np.intp) for gid, _gate, _cols in self.others
        ]

    def input_columns(self) -> List[np.ndarray]:
        """The input columns the gates read, one array per group
        (``gates × fan-in``) and per ungrouped gate."""
        return [group[2].T for group in self.groups] + [
            cols for _gid, _gate, cols in self.others
        ]

    def evaluate(self, vals: np.ndarray) -> None:
        """Write every gate's value into its column of the ``uint8``
        matrix ``vals``.  AND, OR and XOR groups reduce their inputs
        with ``np.bitwise_and``/``or``/``xor``, NOT flips its input with
        ``^ 1``: the 0/1 results go straight into ``vals``.  No group
        reduces over an empty axis (``Circuit.add_gate`` gives every
        gate an input), where ``bitwise_and`` would give 255."""
        for family, out, cols, param, weights in self.groups:
            # K × fan-in × gates: each reduction runs along the gates.
            part = vals.take(cols, axis=1)
            if family is AndGate:
                result = np.bitwise_and.reduce(part, axis=1)
            elif family is OrGate:
                result = np.bitwise_or.reduce(part, axis=1)
            elif family is NotGate:
                result = part[:, 0] ^ 1
            elif family is XorGate:
                result = np.bitwise_xor.reduce(part, axis=1)
            elif family is ModGate:
                result = part.sum(axis=1, dtype=np.int64) % param == 0
            else:
                if weights is None:
                    total = part.sum(axis=1, dtype=np.int64)
                else:
                    total = (part * weights).sum(axis=1)
                result = total >= param
            vals[:, out] = result
        for gid, gate, cols in self.others:
            vals[:, gid] = vector_compute(gate, vals[:, cols])
