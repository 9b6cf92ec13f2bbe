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

A circuit is stored as arrays indexed by gate id (its *array form*),
which the Theorem 2 planner, its per-player view and its kernel form
read with numpy:

* ``kind_codes``: :data:`INPUT_CODE`, :data:`CONST_CODE` or
  :data:`GATE_CODE`;
* ``gate_table``, the circuit's distinct :class:`~repro.circuits.gates.Gate`
  objects, and ``gate_slots``, each gate's index into it (-1 for inputs
  and constants);
* ``values``: an input's position in the input vector, a constant's
  0/1 value (0 for gates);
* the fan-in in CSR form: gate ``g`` reads ``indices[indptr[g]:indptr[g + 1]]``;
* ``fan_outs``, one ``bincount`` of ``indices``, and ``levels``, every
  gate's layer, from one vectorized pass.

:meth:`Circuit.add_gates` appends a block of gates at once; the
matrix-multiplication and threshold circuits are built one block per
matrix operation.  :class:`GateNode`\\ s are built on demand by
:meth:`Circuit.node` and :attr:`Circuit.nodes`, and
:meth:`Circuit.evaluate` stays the independent per-gate
``Gate.compute`` reference.  Two circuits built the same way are equal,
and a circuit equals its pickle and deepcopy round trips.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.circuits.gates import Gate

__all__ = [
    "GateNode",
    "Circuit",
    "INPUT_KIND",
    "CONST_KIND",
    "GATE_KIND",
    "INPUT_CODE",
    "CONST_CODE",
    "GATE_CODE",
    "grouped",
]

INPUT_KIND = "input"
CONST_KIND = "const"
GATE_KIND = "gate"

#: The kind codes of :attr:`Circuit.kind_codes`.
INPUT_CODE, CONST_CODE, GATE_CODE = 0, 1, 2


@dataclass(frozen=True, slots=True)
class GateNode:
    gate_id: int
    kind: str
    gate: Optional[Gate]
    inputs: Tuple[int, ...]
    const_value: bool = False
    input_index: int = -1


def _readonly(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class _Nodes:
    """:attr:`Circuit.nodes`: every gate's :class:`GateNode`, built when
    it is read."""

    __slots__ = ("_circuit",)

    def __init__(self, circuit: "Circuit") -> None:
        self._circuit = circuit

    def __len__(self) -> int:
        return len(self._circuit)

    def __getitem__(self, gate_id: int) -> GateNode:
        return self._circuit.node(gate_id)

    def __iter__(self):
        return map(self._circuit.node, range(len(self._circuit)))


class Circuit:
    """A Boolean circuit as a DAG, stored in its array form (module
    docstring)."""

    def __init__(self) -> None:
        self._table: List[Gate] = []
        self._slot_of: Dict[Gate, int] = {}
        self._size = 0
        self._outputs: List[int] = []
        self._input_ids: List[int] = []
        # Compacted arrays, blocks appended since, and the rows added one
        # at a time since the last block (codes, slots, values, fan-ins,
        # flat sources).
        self._compact: Tuple[np.ndarray, ...] = (
            np.zeros(0, dtype=np.int8),
            np.zeros(0, dtype=np.int32),
            np.zeros(0, dtype=np.int32),
            np.zeros(1, dtype=np.int64),
            np.zeros(0, dtype=np.intp),
        )
        self._blocks: List[Tuple[np.ndarray, ...]] = []
        self._rows: Tuple[list, ...] = ([], [], [], [], [])
        self._derived: Dict[str, Any] = {}

    # -- construction ----------------------------------------------------

    def _slot(self, gate: Gate) -> int:
        slot = self._slot_of.get(gate)
        if slot is None:
            slot = self._slot_of[gate] = len(self._table)
            self._table.append(gate)
        return slot

    def _add_row(self, code: int, slot: int, value: int, sources) -> int:
        gid = self._size
        codes, slots, values, counts, flat = self._rows
        codes.append(code)
        slots.append(slot)
        values.append(value)
        counts.append(len(sources))
        flat.extend(sources)
        self._size += 1
        if self._derived:
            self._derived = {}
        return gid

    def _add_block(self, codes, slots, values, counts, sources) -> None:
        self._flush_rows()
        self._blocks.append((codes, slots, values, counts, sources))
        self._size += len(codes)
        if self._derived:
            self._derived = {}

    def _flush_rows(self) -> None:
        if self._rows[0]:
            codes, slots, values, counts, flat = self._rows
            self._blocks.append(
                (
                    np.asarray(codes, dtype=np.int8),
                    np.asarray(slots, dtype=np.int32),
                    np.asarray(values, dtype=np.int32),
                    np.asarray(counts, dtype=np.int64),
                    np.asarray(flat, dtype=np.intp),
                )
            )
            self._rows = ([], [], [], [], [])

    def _arrays(self) -> Tuple[np.ndarray, ...]:
        """``(codes, slots, values, indptr, indices)``, with every block
        and row added so far compacted into them."""
        self._flush_rows()
        if self._blocks:
            codes, slots, values, indptr, indices = self._compact
            blocks = self._blocks
            counts = np.concatenate([block[3] for block in blocks])
            self._compact = tuple(
                _readonly(array)
                for array in (
                    np.concatenate([codes] + [block[0] for block in blocks]),
                    np.concatenate([slots] + [block[1] for block in blocks]),
                    np.concatenate([values] + [block[2] for block in blocks]),
                    np.concatenate([indptr, indptr[-1] + np.cumsum(counts)]),
                    np.concatenate([indices] + [block[4] for block in blocks]),
                )
            )
            self._blocks = []
        return self._compact

    def add_input(self) -> int:
        gid = self._add_row(INPUT_CODE, -1, len(self._input_ids), ())
        self._input_ids.append(gid)
        return gid

    def add_inputs(self, count: int) -> List[int]:
        start = self._size
        first = len(self._input_ids)
        self._add_block(
            np.full(count, INPUT_CODE, dtype=np.int8),
            np.full(count, -1, dtype=np.int32),
            np.arange(first, first + count, dtype=np.int32),
            np.zeros(count, dtype=np.int64),
            np.zeros(0, dtype=np.intp),
        )
        gids = list(range(start, start + count))
        self._input_ids.extend(gids)
        return gids

    def add_const(self, value: bool) -> int:
        return self._add_row(CONST_CODE, -1, 1 if value else 0, ())

    def add_gate(self, gate: Gate, inputs: Sequence[int]) -> int:
        gid = self._size
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
        return self._add_row(GATE_CODE, self._slot(gate), 0, inputs)

    def add_gates(
        self,
        gates: Sequence[Gate],
        which,
        fan_ins,
        sources,
    ) -> np.ndarray:
        """Append ``len(which)`` gates as one block and return their ids.
        Gate ``i`` of the block is ``gates[which[i]]`` reading the next
        ``fan_ins[i]`` ids of the flat ``sources``; a source may be any
        earlier gate, in the block or before it.  Checked as
        :meth:`add_gate` checks a gate, with its messages."""
        which = np.asarray(which, dtype=np.intp).reshape(-1)
        fan_ins = np.asarray(fan_ins, dtype=np.int64).reshape(-1)
        sources = np.asarray(sources, dtype=np.intp).reshape(-1)
        start = self._size
        if len(fan_ins) != len(which) or int(fan_ins.sum()) != len(sources):
            raise ValueError("a block needs one fan-in per gate and its sources")
        rows = np.repeat(np.arange(start, start + len(which)), fan_ins)
        bad = np.flatnonzero((sources < 0) | (sources >= rows))
        if bad.size:
            raise ValueError(
                f"gate {int(rows[bad[0]])} references nonexistent input "
                f"{int(sources[bad[0]])}"
            )
        for index, gate in enumerate(gates):
            arity = gate.arity()
            if arity is not None:
                wrong = np.flatnonzero((which == index) & (fan_ins != arity))
                if wrong.size:
                    raise ValueError(
                        f"gate {gate!r} has arity {arity}, got "
                        f"{int(fan_ins[wrong[0]])} inputs"
                    )
        if (fan_ins < 1).any():
            raise ValueError("non-input gates must have at least one input")
        used = np.bincount(which, minlength=len(gates)).tolist()
        slot_of = np.asarray(
            [self._slot(gate) if uses else -1 for gate, uses in zip(gates, used)],
            dtype=np.int32,
        )
        count = len(which)
        self._add_block(
            np.full(count, GATE_CODE, dtype=np.int8),
            slot_of[which],
            np.zeros(count, dtype=np.int32),
            fan_ins,
            sources,
        )
        return np.arange(start, start + count)

    def mark_output(self, gate_id: int) -> None:
        self._check(gate_id)
        self._outputs.append(int(gate_id))

    # -- the array form ---------------------------------------------------

    @property
    def kind_codes(self) -> np.ndarray:
        return self._arrays()[0]

    @property
    def gate_slots(self) -> np.ndarray:
        return self._arrays()[1]

    @property
    def values(self) -> np.ndarray:
        return self._arrays()[2]

    @property
    def indptr(self) -> np.ndarray:
        return self._arrays()[3]

    @property
    def indices(self) -> np.ndarray:
        return self._arrays()[4]

    @property
    def gate_table(self) -> Tuple[Gate, ...]:
        return tuple(self._table)

    def derived(self, key: str, build: Callable[["Circuit"], Any]) -> Any:
        """``build(self)``, computed at the first call for ``key`` and
        cached until the circuit changes; caches stay out of the
        circuit's equality and pickled state."""
        value = self._derived.get(key, self._derived)
        if value is self._derived:
            value = self._derived[key] = build(self)
        return value

    @property
    def fan_ins(self) -> np.ndarray:
        return self.derived("fan_ins", lambda c: _readonly(np.diff(c.indptr)))

    @property
    def fan_outs(self) -> np.ndarray:
        return self.derived(
            "fan_outs",
            lambda c: _readonly(np.bincount(c.indices, minlength=len(c))),
        )

    @property
    def levels(self) -> np.ndarray:
        """Every gate's layer in :meth:`layers`."""
        return self.derived("levels", _levels)

    @property
    def id_objects(self) -> np.ndarray:
        """The gate ids as one ``object`` array of Python ints: lists of
        ids gathered from it share these ints instead of each holding
        its own copies."""
        return self.derived(
            "id_objects", lambda c: _readonly(np.arange(len(c)).astype(object))
        )

    # -- queries ----------------------------------------------------------

    def _check(self, gate_id: int) -> None:
        if not 0 <= gate_id < self._size:
            raise ValueError(f"no gate with id {gate_id}")

    def node(self, gate_id: int) -> GateNode:
        gate_id = operator.index(gate_id)
        self._check(gate_id)
        codes, slots, values, indptr, indices = self._arrays()
        code = codes[gate_id]
        inputs = tuple(indices[indptr[gate_id] : indptr[gate_id + 1]].tolist())
        if code == GATE_CODE:
            return GateNode(gate_id, GATE_KIND, self._table[slots[gate_id]], inputs)
        if code == CONST_CODE:
            return GateNode(
                gate_id, CONST_KIND, None, inputs, const_value=bool(values[gate_id])
            )
        return GateNode(
            gate_id, INPUT_KIND, None, inputs, input_index=int(values[gate_id])
        )

    def __len__(self) -> int:
        return self._size

    @property
    def nodes(self) -> Sequence[GateNode]:
        return _Nodes(self)

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
        self._check(gate_id)
        return int(self.fan_ins[gate_id])

    def fan_out(self, gate_id: int) -> int:
        self._check(gate_id)
        return int(self.fan_outs[gate_id])

    def weight(self, gate_id: int) -> int:
        """w(G) = |in(G)| + |out(G)| — the measure driving Theorem 2's
        heavy/light split."""
        return self.fan_in(gate_id) + self.fan_out(gate_id)

    def wire_count(self) -> int:
        """Number of wires N (edges of the DAG)."""
        return len(self.indices)

    def layers(self) -> List[List[int]]:
        """The paper's layering: L_0 = sources; L_r = gates whose inputs
        all lie in strictly earlier layers."""
        return self.derived("layers", _layers)

    def depth(self) -> int:
        """Longest path from a source to any gate (= number of non-input
        layers)."""
        return len(self.layers()) - 1

    def max_summary_width(self) -> int:
        """Largest separability parameter over all gates — the b of
        Definition 1 actually needed by this circuit."""
        gates = self.kind_codes == GATE_CODE
        kinds = set(zip(self.gate_slots[gates].tolist(), self.fan_ins[gates].tolist()))
        return max([1] + [self._table[slot].summary_width(k) for slot, k in kinds])

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, input_values: Sequence[bool]) -> Dict[int, bool]:
        """Direct (non-distributed) evaluation; returns value of every
        gate.  This is the ground truth the simulation is tested against:
        one ``Gate.compute`` call per gate, in id order."""
        if len(input_values) != self.num_inputs:
            raise ValueError(
                f"expected {self.num_inputs} inputs, got {len(input_values)}"
            )
        codes, slots, values, indptr, indices = (
            array.tolist() for array in self._arrays()
        )
        table = self._table
        results: List[bool] = []
        for gid, code in enumerate(codes):
            if code == INPUT_CODE:
                results.append(bool(input_values[values[gid]]))
            elif code == CONST_CODE:
                results.append(bool(values[gid]))
            else:
                results.append(
                    table[slots[gid]].compute(
                        [results[src] for src in indices[indptr[gid] : indptr[gid + 1]]]
                    )
                )
        return dict(enumerate(results))

    def evaluate_outputs(self, input_values: Sequence[bool]) -> List[bool]:
        values = self.evaluate(input_values)
        return [values[gid] for gid in self._outputs]

    def stats(self) -> Dict[str, int]:
        return {
            "gates": len(self),
            "inputs": self.num_inputs,
            "outputs": len(self._outputs),
            "wires": self.wire_count(),
            "depth": self.depth(),
            "max_summary_width": self.max_summary_width(),
        }

    # -- identity -------------------------------------------------------------

    def __getstate__(self):
        codes, slots, values, indptr, indices = self._arrays()
        return {
            "table": list(self._table),
            "codes": codes,
            "slots": slots,
            "values": values,
            "indptr": indptr,
            "indices": indices,
            "outputs": list(self._outputs),
            "input_ids": list(self._input_ids),
        }

    def __setstate__(self, state) -> None:
        self.__init__()
        self._table = list(state["table"])
        self._slot_of = {gate: slot for slot, gate in enumerate(self._table)}
        self._compact = tuple(
            _readonly(np.array(state[key]))
            for key in ("codes", "slots", "values", "indptr", "indices")
        )
        self._size = len(self._compact[0])
        self._outputs = list(state["outputs"])
        self._input_ids = list(state["input_ids"])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Circuit):
            return NotImplemented
        if other is self:
            return True
        mine, theirs = self.__getstate__(), other.__getstate__()
        return all(
            np.array_equal(value, theirs[key])
            if isinstance(value, np.ndarray)
            else value == theirs[key]
            for key, value in mine.items()
        )

    def __repr__(self) -> str:
        return (
            f"Circuit(gates={len(self)}, wires={self.wire_count()}, "
            f"depth={self.depth()})"
        )


def grouped(keys, values, objects=None) -> List[Tuple[int, List[int]]]:
    """``(key, values)`` for each distinct key of ``keys`` in order of
    first appearance, with the distinct ``values`` at its positions in
    ascending order: the dict of lists a loop over the positions would
    build, from one sort.  With ``objects`` (an ``object`` array, such
    as :attr:`Circuit.id_objects`), each value ``v`` is listed as
    ``objects[v]``."""
    keys = np.asarray(keys, dtype=np.int64).reshape(-1)
    values = np.asarray(values, dtype=np.int64).reshape(-1)
    if not len(keys):
        return []
    span = int(values.max()) + 1
    if keys.min() >= 0 and values.min() >= 0 and int(keys.max()) < (1 << 62) // span:
        # One sort of (key, value) packed into one int: several times
        # faster than ``lexsort``.
        order = np.argsort(keys * span + values)
    else:
        order = np.lexsort((values, keys))
    k = keys[order]
    v = values[order]
    new_key = np.concatenate(([True], k[1:] != k[:-1]))
    heads = np.flatnonzero(new_key)
    first = np.minimum.reduceat(order, heads)
    keep = new_key | np.concatenate(([True], v[1:] != v[:-1]))
    bounds = ((np.cumsum(keep) - 1)[heads]).tolist() + [int(keep.sum())]
    flat = (v[keep] if objects is None else objects[v[keep]]).tolist()
    group_keys = k[heads].tolist()
    return [
        (group_keys[g], flat[bounds[g] : bounds[g + 1]])
        for g in np.argsort(first).tolist()
    ]


def _levels(circuit: Circuit) -> np.ndarray:
    """Every gate's layer: 0 for sources, else one more than its deepest
    input.  One vectorized pass per layer: each pass lifts every gate to
    one above its inputs' current layers, which settles the gates of
    the next layer, until nothing moves."""
    codes, _slots, _values, indptr, indices = circuit._arrays()
    level = np.zeros(len(codes), dtype=np.int32)
    gates = np.flatnonzero(codes == GATE_CODE)
    if gates.size:
        # Every gate reads at least one source, so its segment of
        # ``indices`` starts at its ``indptr`` and ends at the next
        # gate's.
        starts = indptr[gates]
        current = level[gates]
        while True:
            lifted = np.maximum.reduceat(level[indices], starts) + 1
            if np.array_equal(lifted, current):
                break
            level[gates] = current = lifted
    return _readonly(level)


def _layers(circuit: Circuit) -> List[List[int]]:
    levels = circuit.levels
    if not len(levels):
        return []
    order = circuit.id_objects[np.argsort(levels, kind="stable")]
    bounds = np.cumsum(np.bincount(levels))[:-1]
    return [part.tolist() for part in np.split(order, bounds)]
