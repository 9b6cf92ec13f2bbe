"""Kernel form of the Theorem 2 simulation: the whole plan as one
declared round sequence over a stacked gate-value matrix.

The generator :func:`~repro.simulation.protocol.execute_plan` resumes
``n`` coroutines per round; here the same public
:class:`~repro.simulation.protocol.SimulationPlan` compiles into kernel
rounds (:mod:`repro.core.kernels`) operating on one ``K × gates``
value matrix — all nodes, and all ``K`` instances of a
:meth:`~repro.core.network.Network.run_many` sweep, advance with a few
numpy operations per round.  The round sequence, widths and bit totals
are identical to the generator's by construction (the same plan drives
both), and the equivalence suite pins outputs byte-for-byte.

:class:`KernelPlan` compiles a plan into index arrays once
(:meth:`~repro.simulation.protocol.SimulationPlan.kernel_plan` caches it
on the plan, so every program built from one plan shares it); its
rounds can then be appended any number of times (``triangle_mm``
appends them once per trial) without recompiling:

* Gate evaluation is grouped
  (:class:`~repro.circuits.vectorized.GateGroups`, the evaluator the
  generator path runs per player).  Each layer's light gates, and its
  heavy gates at their owners, are grouped by gate family and fan-in
  (every layer's at once, by
  :func:`~repro.circuits.vectorized.compile_groups` over the circuit's
  arrays),
  and each group is evaluated with one gather of its ``gates × fan-in``
  input columns and one reduction, for every instance at once.  Only
  gate classes outside the built-in families fall back to
  :func:`~repro.circuits.vectorized.vector_compute`, one gate at a
  time.
* Routed payloads never become :class:`~repro.core.bits.Bits`: a
  :class:`~repro.routing.lenzen.BitRoute` gathers their bits from the
  value matrix straight into the routed frame-value matrix, and
  scatters the frames the final hops delivered back into it; it places
  every payload bit in the frame grid with array arithmetic, one
  dictionary lookup per frame.

Partial summaries for the heavy-gate rounds are produced per message
(:func:`vector_summary`).  Owners evaluate a heavy gate directly from
its input values rather than re-combining the received summaries — by
Definition 1 (b-separability) the two are the same function, which is
also why the generator's ``combine`` of honest summaries matches.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, List, Tuple

import numpy as np

from repro.circuits.gates import (
    AndGate,
    GenericGate,
    ModGate,
    NotGate,
    OrGate,
    ThresholdGate,
    XorGate,
)
from repro.circuits.vectorized import compile_groups, constant_columns
from repro.core.kernels import NUMERIC_WIDTH_LIMIT, KernelBuilder, ints_to_rows
from repro.core.network import Mode
from repro.routing.lenzen import BitRoute, kernel_route_bits
from repro.simulation.protocol import SimulationPlan

__all__ = [
    "vector_summary",
    "KernelPlan",
    "append_simulation_rounds",
    "make_kernel_program",
]


def vector_summary(
    gate, positions: List[int], part: np.ndarray, fan_in: int, nbytes: int
) -> np.ndarray:
    """One part's b-separability summary for every instance at once:
    ``part`` is the ``K × len(positions)`` 0/1 matrix of the part's
    input values, ``positions`` their indices in the gate's input list
    (weighted gates need them).  Returns the summaries in the payload
    form of their round: a ``uint64`` ``K``-vector when ``nbytes`` is 0,
    else, for a round of ``nbytes``-byte rows (past 63 bits), ``K ×
    nbytes`` ``uint8`` rows with each summary right-aligned, a narrow
    one in the last 8 bytes."""
    summary = _summary_values(gate, positions, part, fan_in)
    if isinstance(summary, list):
        if nbytes:
            return ints_to_rows(summary, nbytes)
        return np.asarray(summary, dtype=np.uint64)
    if nbytes:
        rows = np.zeros((len(summary), nbytes), dtype=np.uint8)
        rows[:, -8:] = summary.astype(">u8").view(np.uint8).reshape(-1, 8)
        return rows
    return summary


def _summary_values(gate, positions: List[int], part: np.ndarray, fan_in: int):
    """:func:`vector_summary`'s values: a ``uint64`` ``K``-vector, or a
    list of ``K`` Python ints for a generic gate past 63 bits and for
    a gate class outside the built-in families."""
    if isinstance(gate, (AndGate, NotGate)):
        return part.all(axis=1).astype(np.uint64)
    if isinstance(gate, OrGate):
        return part.any(axis=1).astype(np.uint64)
    if isinstance(gate, XorGate):
        return (part.sum(axis=1, dtype=np.int64) % 2).astype(np.uint64)
    if isinstance(gate, ModGate):
        return (
            part.sum(axis=1, dtype=np.int64) % gate.modulus
        ).astype(np.uint64)
    if isinstance(gate, ThresholdGate):
        if gate.weights is None:
            total = part.sum(axis=1, dtype=np.int64)
        else:
            weights = np.asarray(
                [gate.weights[p] for p in positions], dtype=np.int64
            )
            total = part.astype(np.int64) @ weights
        return total.astype(np.uint64)
    if isinstance(gate, GenericGate):
        covered = 0
        for position in positions:
            covered |= 1 << position
        if 2 * fan_in <= 63:
            values = np.zeros(len(part), dtype=np.uint64)
            for i, position in enumerate(positions):
                values |= part[:, i].astype(np.uint64) << np.uint64(position)
            return (np.uint64(covered << fan_in)) | values
        out = []
        for row in part.tolist():
            values = 0
            for i, position in enumerate(positions):
                if row[i]:
                    values |= 1 << position
            out.append((covered << fan_in) | values)
        return out
    # Unknown gate type: honest per-instance fallback.
    return [
        gate.partial_summary(
            [(p, bool(row[i])) for i, p in enumerate(positions)], fan_in
        ).to_uint()
        for row in part.tolist()
    ]


def _push_round(push_recv: Dict[Tuple[int, int], int]):
    """``(pairs, gate columns)`` of a heavy-push round: one 1-bit
    message per plan edge, in (sender, receiver) order."""
    edges = sorted(push_recv.items())
    by_src: Dict[int, List[int]] = {}
    for (src, dst), _gid in edges:
        by_src.setdefault(src, []).append(dst)
    cols = np.asarray([gid for _, gid in edges], dtype=np.intp)
    return sorted(by_src.items()), cols


def _summary_round(plan: SimulationPlan, lp):
    """``(pairs, widths, messages)`` of a heavy-summary round: one
    message per (contributing sender, heavy gate) carrying the sender's
    partial summary, ``messages`` as ``(gate, positions, columns,
    fan-in)``."""
    circuit = plan.circuit
    table = circuit.gate_table
    entries = []
    for gid in lp.heavy_gates:
        owner = plan.assignment.owner[gid]
        for sender in sorted(lp.summary_senders[gid]):
            entries.append((sender, owner, gid, lp.summary_senders[gid][sender]))
    entries.sort(key=lambda m: (m[0], m[1]))
    by_src: Dict[int, List[int]] = {}
    widths: List[int] = []
    messages = []
    for sender, owner, gid, positions in entries:
        by_src.setdefault(sender, []).append(owner)
        widths.append(plan.summary_width(gid))
        inputs = circuit.indices[circuit.indptr[gid] : circuit.indptr[gid + 1]]
        messages.append(
            (table[circuit.gate_slots[gid]], positions, inputs[positions], len(inputs))
        )
    return sorted(by_src.items()), widths, messages


class KernelPlan:
    """A :class:`~repro.simulation.protocol.SimulationPlan` compiled
    into the index arrays of its kernel rounds: per layer, the heavy
    gates' :class:`GateGroups`, the summary and push rounds, the light
    wires' :class:`~repro.routing.lenzen.BitRoute` and the light gates'
    :class:`GateGroups`."""

    __slots__ = ("inputs", "layer0_push", "layers")

    def __init__(self, plan: SimulationPlan) -> None:
        circuit = plan.circuit
        self.inputs = (
            BitRoute(plan.input_order, plan.bandwidth, plan.input_schedule)
            if plan.input_lengths
            else None
        )
        self.layer0_push = (
            _push_round(plan.layer0_push_recv) if plan.layer0_push_recv else None
        )
        # Every layer's heavy gates and light gates, grouped at once.
        groups = compile_groups(
            circuit,
            [
                gids
                for lp in plan.layer_plans
                for gids in (
                    lp.heavy_gates,
                    np.sort(
                        np.fromiter(
                            chain.from_iterable(lp.light_owned.values()), dtype=np.intp
                        )
                    ),
                )
            ],
        )
        self.layers = []
        for i, lp in enumerate(plan.layer_plans):
            heavy, lights = groups[2 * i : 2 * i + 2]
            self.layers.append(
                (
                    heavy if lp.heavy_gates else None,
                    _summary_round(plan, lp) if lp.has_summary_round else None,
                    _push_round(lp.push_recv) if lp.push_recv else None,
                    BitRoute(lp.light_order, plan.bandwidth, lp.light_schedule)
                    if lp.light_lengths
                    else None,
                    lights if lp.light_owned else None,
                )
            )


def append_simulation_rounds(
    builder: KernelBuilder, plan: KernelPlan, vals_key: str
) -> None:
    """Append every communication round of the compiled ``plan`` to
    ``builder``, mirroring :func:`~repro.simulation.protocol.execute_plan`
    phase for phase.  ``state[vals_key]`` must hold the ``K × gates``
    0/1 value matrix with constants and the instance's input gate values
    filled in before the first appended round fires (stage it with
    ``builder.before``)."""

    def push_round(push) -> None:
        pairs, cols = push

        def send(state):
            return state[vals_key][:, cols].astype(np.uint64)

        def recv(state, delivered):
            state[vals_key][:, cols] = delivered.astype(np.uint8)

        builder.unicast_round(pairs, 1, send, recv)

    def evaluate(groups):
        return lambda state: groups.evaluate(state[vals_key])

    if plan.inputs is not None:
        kernel_route_bits(builder, plan.inputs, vals_key)
    if plan.layer0_push is not None:
        push_round(plan.layer0_push)
    for heavy, summary, push, light_route, lights in plan.layers:
        if summary is not None:
            pairs, widths, messages = summary
            # A round past the uint64 limit carries byte rows.
            width = max(widths)
            nbytes = -(-width // 8) if width > NUMERIC_WIDTH_LIMIT else 0

            def send(state, _messages=messages, _nbytes=nbytes):
                vals = state[vals_key]
                shape = (vals.shape[0], len(_messages))
                out = (
                    np.empty(shape + (_nbytes,), dtype=np.uint8)
                    if _nbytes
                    else np.empty(shape, dtype=np.uint64)
                )
                for j, (gate, positions, cols, fan_in) in enumerate(_messages):
                    out[:, j] = vector_summary(
                        gate, positions, vals[:, cols], fan_in, _nbytes
                    )
                return out

            # Owners combine — evaluating the gate on its (by now
            # globally known) input values, which b-separability makes
            # identical to combining the received summaries.
            compute = evaluate(heavy)
            builder.unicast_round(
                pairs,
                width,
                send,
                lambda state, delivered, _compute=compute: _compute(state),
                widths=widths,
            )
        elif heavy is not None:
            # No summaries needed: owners evaluate locally before any
            # dependent round fires.
            builder.before(evaluate(heavy))
        if push is not None:
            push_round(push)
        if light_route is not None:
            kernel_route_bits(builder, light_route, vals_key)
        if lights is not None:
            builder.before(evaluate(lights))


def make_kernel_program(plan: SimulationPlan):
    """The kernel twin of :func:`~repro.simulation.protocol.make_program`:
    same per-node inputs (``{input gid: bool}`` dicts), same outputs
    (each node's ``{output gid: bool}``), zero generator steps."""
    circuit = plan.circuit
    owner = plan.assignment.owner
    n = plan.n
    builder = KernelBuilder(n, Mode.UNICAST, bandwidth=plan.bandwidth)
    vals_key = "vals"
    const_cols, const_vals = constant_columns(circuit)

    def init(state, kctx):
        vals = np.zeros((kctx.instances, len(circuit)), dtype=np.uint8)
        if const_cols.size:
            vals[:, const_cols] = const_vals
        for k, inputs in enumerate(kctx.inputs_list):
            if inputs is None:
                continue
            for per_node in inputs:
                for gid, value in (per_node or {}).items():
                    vals[k, gid] = 1 if value else 0
        state[vals_key] = vals

    builder.on_init(init)
    append_simulation_rounds(builder, plan.kernel_plan(), vals_key)
    out_by_node: List[List[int]] = [[] for _ in range(n)]
    for gid in circuit.outputs:
        out_by_node[owner[gid]].append(gid)

    def finish(state, kctx):
        vals = state[vals_key]
        return [
            [
                {gid: bool(vals[k, gid]) for gid in out_by_node[v]}
                for v in range(n)
            ]
            for k in range(kctx.instances)
        ]

    return builder.build(finish, name="simulate_circuit")
