"""Section 2.1 on the engine: triangle detection via matmul circuits.

The paper's conditional result: if matrix multiplication has arithmetic
circuits of size O(n^δ), Theorem 2 turns them into an O(n^{δ−2})-round
CLIQUE-UCAST protocol, and Shamir's masked-F2 reduction turns Boolean
triangle detection into a handful of such products.  We instantiate the
pipeline with both circuit families from
:mod:`repro.circuits.arithmetic`:

* naive (Θ(n³) wires → s = Θ(n) → bandwidth Θ(n), O(1) rounds),
* Strassen (Θ(n^{2.81}) wires → s = Θ(n^{0.81}) bandwidth, O(log n)
  rounds) — the stand-in for the conjectured O(n^{2+ε}) circuits.

Protocol per trial (mask r drawn from the shared public coin):

1. Player i locally masks its adjacency row: M_i = A_i ∘ r.
2. The circuit computes C = M · A over F2 via ``execute_plan``.
3. Output entries C[i][j] are routed from their simulation owners to
   player i, who checks A_ij ∧ C_ij — a triangle witness.  This is the
   library's Remark 3 router (output redistribution): row i of C lands
   at player i, the convention Censor-Hillel et al., "Algebraic Methods
   in the Congested Clique", use for their matrix algorithms.
4. One unicast round aggregates the flags at player 0.

All heavy exchanges here — the circuit simulation's routed phases and
the output redistribution, each a
:class:`~repro.routing.lenzen.ColumnRoute` compiled once per plan or
program, and the final aggregation via :func:`transmit_unicast` — move
fixed-width frames, so their rounds cross the wire as plain ints, with
no per-message :class:`~repro.core.bits.Bits`.  The output
redistribution's schedule (:func:`output_schedule`) is one per plan and
size: a caller that builds both program forms hands the same schedule
to both.

The protocol is *oblivious*: every round's structure comes from the
public :class:`SimulationPlan` and routing schedules, never from the
adjacency rows.  :func:`triangle_mm_kernel_program` declares that
structure as kernel rounds, and :func:`detect_triangle_mm_many` runs
detection over many same-size graphs through
:meth:`~repro.core.network.Network.run_many` with one plan build.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.circuits.arithmetic import matmul_circuit_naive, matmul_circuit_strassen
from repro.circuits.circuit import Circuit
from repro.core.bits import Bits
from repro.core.errors import DecodeError
from repro.core.network import Mode, Network, RunResult
from repro.core.phases import transmit_unicast
from repro.graphs.graph import Graph
from repro.routing.lenzen import ColumnRoute, payload_demand
from repro.routing.schedule import RoutingSchedule, build_schedule
from repro.simulation.protocol import SimulationPlan, build_plan, run_player

__all__ = [
    "matmul_input_partition",
    "TriangleMMOutcome",
    "output_schedule",
    "triangle_mm_program",
    "triangle_mm_kernel_program",
    "detect_triangle_mm",
    "detect_triangle_mm_many",
]


def matmul_input_partition(size: int) -> List[int]:
    """Row i of both matrices belongs to player i — the "each player gets
    n bits per matrix" partition of Section 2.1."""
    partition = []
    for _matrix in range(2):
        for i in range(size):
            partition.extend([i] * size)
    return partition


@dataclass(frozen=True)
class TriangleMMOutcome:
    found: bool
    witness: Optional[Tuple[int, int]]
    trials: int


def _output_routing_plan(
    plan: SimulationPlan, size: int
) -> Tuple[Dict[Tuple[int, int], List[int]], Dict[Tuple[int, int], int]]:
    """Route output gate C[i][j] from its simulation owner to player i."""
    order: Dict[Tuple[int, int], List[int]] = {}
    outputs = plan.circuit.outputs
    for position, gid in enumerate(outputs):
        row = position // size
        src = plan.assignment.owner[gid]
        if src != row:
            order.setdefault((src, row), []).append(gid)
    lengths = {pair: len(gids) for pair, gids in order.items()}
    return order, lengths


def output_schedule(plan: SimulationPlan, size: int) -> RoutingSchedule:
    """The routing schedule of the output redistribution: each entry
    C[i][j] from its simulation owner to player i.  It is a pure
    function of the plan and ``size``; both program forms route on it."""
    _order, lengths = _output_routing_plan(plan, size)
    return build_schedule(payload_demand(lengths, plan.bandwidth), size)


def _read_reports(
    received: Dict[int, Bits], witness: Optional[Tuple[int, int]], vertex_bits: int
) -> Optional[Tuple[int, int]]:
    """Player 0's aggregation: ``witness`` if it holds one, else the
    first witness reported, in sender order.  A report that is not
    ``1 + 2·vertex_bits`` bits long raises :class:`DecodeError` naming
    its sender."""
    report_len = 1 + 2 * vertex_bits
    for sender, payload in sorted(received.items()):
        if len(payload) != report_len:
            raise DecodeError(
                f"player 0 got a {len(payload)}-bit report from node "
                f"{sender}, expected {report_len} bits"
            )
        if payload[0] == 1 and witness is None:
            witness = (
                payload[1 : 1 + vertex_bits].to_uint(),
                payload[1 + vertex_bits :].to_uint(),
            )
    return witness


def triangle_mm_program(
    graph: Graph,
    plan: SimulationPlan,
    trials: int,
    out_schedule: Optional[RoutingSchedule] = None,
):
    """Node program: ``ctx.input`` is this node's adjacency row (list of
    n 0/1 ints).  Only ``graph.n`` shapes the program, so one program
    serves every graph of that size.

    Everything the rounds need beyond the inputs is compiled here, once
    per program: each node's output columns — a
    :class:`~repro.routing.lenzen.ColumnRoute` from the node's
    gate-value vector into its row of C over ``out_schedule`` (built
    here when not given: :func:`output_schedule`), and the entries of
    that row it owns itself."""
    size = graph.n
    plan.check_size(size)
    circuit = plan.circuit
    input_ids = circuit.input_ids
    out_order, _out_lengths = _output_routing_plan(plan, size)
    if out_schedule is None:
        out_schedule = output_schedule(plan, size)
    owner = plan.assignment.owner
    own: List[Tuple[List[int], List[int]]] = [([], []) for _ in range(size)]
    column = {}
    for position, gid in enumerate(circuit.outputs):
        row, column[gid] = divmod(position, size)
        if owner[gid] == row:
            own[row][0].append(gid)
            own[row][1].append(column[gid])
    sends: List[Dict[int, List[int]]] = [{} for _ in range(size)]
    recvs: List[Dict[int, List[int]]] = [{} for _ in range(size)]
    for (src, dst), gids in out_order.items():
        sends[src][dst] = gids
        recvs[dst][src] = [column[gid] for gid in gids]
    routes = [
        (
            ColumnRoute(out_schedule, v, plan.bandwidth, sends[v], recvs[v]),
            np.asarray(own[v][0], dtype=np.intp),
            np.asarray(own[v][1], dtype=np.intp),
        )
        for v in range(size)
    ]

    def program(ctx):
        me = ctx.node_id
        row = list(ctx.input)
        out_route, own_gids, own_columns = routes[me]
        # Every node draws the same masks from the public coin, so the
        # first node to get here draws all trials' masks for the run.
        key = (triangle_mm_program, size, trials)
        masks = ctx.memo.get(key)
        if masks is None:
            coin = ctx.shared_rng
            masks = ctx.memo[key] = tuple(
                tuple(coin.randint(0, 1) for _ in range(size))
                for _ in range(trials)
            )
        found_local: Optional[Tuple[int, int]] = None
        for mask in masks:
            masked_row = [row[j] & mask[j] for j in range(size)]
            my_inputs: Dict[int, bool] = {}
            for j in range(size):
                my_inputs[input_ids[me * size + j]] = bool(masked_row[j])
                my_inputs[input_ids[size * size + me * size + j]] = bool(row[j])
            vals = yield from run_player(ctx, plan, my_inputs)
            # A payload that lost a frame leaves its entries 0.
            row_c = np.zeros(size, dtype=np.uint8)
            row_c[own_columns] = vals[own_gids]
            yield from out_route.run(ctx, vals, row_c)
            if found_local is None:
                for j, entry in enumerate(row_c.tolist()):
                    if row[j] and entry:
                        found_local = (min(me, j), max(me, j))
                        break
            # Lockstep: even after finding a witness we keep executing
            # the remaining trials' phases — peers cannot know we are
            # done, and the routing schedules expect our frames.
        # Aggregation: everyone reports to player 0 (1 + 2·log n bits).
        vertex_bits = max(1, (size - 1).bit_length())
        report_len = 1 + 2 * vertex_bits
        if me != 0:
            if found_local is None:
                payload = Bits.zeros(report_len)
            else:
                payload = Bits.concat(
                    [
                        Bits.from_uint(1, 1),
                        Bits.from_uint(found_local[0], vertex_bits),
                        Bits.from_uint(found_local[1], vertex_bits),
                    ]
                )
            yield from transmit_unicast(ctx, {0: payload}, max_bits=report_len)
            return TriangleMMOutcome(
                found=found_local is not None, witness=found_local, trials=trials
            )
        received = yield from transmit_unicast(ctx, {}, max_bits=report_len)
        witness = _read_reports(received, found_local, vertex_bits)
        return TriangleMMOutcome(
            found=witness is not None, witness=witness, trials=trials
        )

    return program


def triangle_mm_kernel_program(
    graph: Graph,
    plan: SimulationPlan,
    trials: int,
    out_schedule: Optional[RoutingSchedule] = None,
):
    """The kernel twin of :func:`triangle_mm_program`: the full pipeline
    — per-trial masking, circuit simulation, output redistribution,
    witness aggregation — as one declared kernel round sequence over
    stacked adjacency/value matrices, zero generator steps.  Inputs and
    outputs match the generator program byte for byte (same shared-coin
    masks, same witness tie-breaking, same accounting).
    ``out_schedule`` is as for :func:`triangle_mm_program`."""
    from repro.circuits.vectorized import constant_columns
    from repro.core.kernels import KernelBuilder
    from repro.core.network import Mode
    from repro.core.phases import kernel_transmit_unicast
    from repro.routing.lenzen import BitRoute, kernel_route_bits
    from repro.simulation.kernel import append_simulation_rounds

    size = graph.n
    plan.check_size(size)
    circuit = plan.circuit
    input_ids = circuit.input_ids
    out_order, _out_lengths = _output_routing_plan(plan, size)
    if out_schedule is None:
        out_schedule = output_schedule(plan, size)
    # Compiled once per plan, appended once per trial.
    kernel_plan = plan.kernel_plan()
    out_route = BitRoute(out_order, plan.bandwidth, out_schedule)
    builder = KernelBuilder(size, Mode.UNICAST, bandwidth=plan.bandwidth)
    vals_key = "vals"
    first_ids = np.asarray(input_ids[: size * size], dtype=np.intp)
    second_ids = np.asarray(input_ids[size * size :], dtype=np.intp)
    output_gids = np.asarray(circuit.outputs, dtype=np.intp)
    const_cols, const_vals = constant_columns(circuit)

    def init(state, kctx):
        instances = kctx.instances
        rows = np.zeros((instances, size, size), dtype=np.uint8)
        for k, inputs in enumerate(kctx.inputs_list):
            for v in range(size):
                rows[k, v] = np.asarray(inputs[v], dtype=np.uint8)
        state["rows"] = rows
        # The shared public coin: every generator node draws the same
        # mask stream, so one clone serves all nodes and all instances.
        rng = kctx.shared_rng()
        state["masks"] = np.asarray(
            [
                [rng.randint(0, 1) for _ in range(size)]
                for _ in range(trials)
            ],
            dtype=np.uint8,
        )
        vals = np.zeros((instances, len(circuit)), dtype=np.uint8)
        if const_cols.size:
            vals[:, const_cols] = const_vals
        state[vals_key] = vals
        # Witness slots: -1 = none found yet (first trial, then first
        # column wins — the generator's tie-breaking order).
        state["wit_u"] = np.full((instances, size), -1, dtype=np.int64)
        state["wit_v"] = np.full((instances, size), -1, dtype=np.int64)

    builder.on_init(init)

    def score(state):
        # The routed output frames have landed back in the value matrix:
        # assemble C and score this trial's witnesses.
        vals = state[vals_key]
        rows = state["rows"]
        instances = vals.shape[0]
        c_matrix = vals[:, output_gids].reshape(instances, size, size)
        hit = rows & c_matrix
        any_hit = hit.any(axis=2)
        first_j = hit.argmax(axis=2)
        wit_u = state["wit_u"]
        wit_v = state["wit_v"]
        me = np.arange(size, dtype=np.int64)[None, :]
        update = (wit_u < 0) & any_hit
        j_hit = first_j.astype(np.int64)
        wit_u[update] = np.minimum(me, j_hit)[update]
        wit_v[update] = np.maximum(me, j_hit)[update]

    for _trial in range(trials):

        def prepare(state, _t=_trial):
            vals = state[vals_key]
            rows = state["rows"]
            instances = vals.shape[0]
            mask = state["masks"][_t]
            masked = rows & mask[None, None, :]
            vals[:, first_ids] = masked.reshape(instances, size * size)
            vals[:, second_ids] = rows.reshape(instances, size * size)

        builder.before(prepare)
        append_simulation_rounds(builder, kernel_plan, vals_key)
        kernel_route_bits(builder, out_route, vals_key)
        builder.before(score)

    # ---- aggregation at player 0 (1 + 2·log n bits per node) ----------
    vertex_bits = max(1, (size - 1).bit_length())
    report_len = 1 + 2 * vertex_bits
    links = [(v, 0) for v in range(1, size)]

    def get_reports(state):
        wit_u = state["wit_u"]
        wit_v = state["wit_v"]
        instances = wit_u.shape[0]
        maps = [dict() for _ in range(instances)]
        for k in range(instances):
            for v in range(1, size):
                if wit_u[k, v] < 0:
                    payload = Bits.zeros(report_len)
                else:
                    payload = Bits(
                        (1 << 2 * vertex_bits)
                        | (int(wit_u[k, v]) << vertex_bits)
                        | int(wit_v[k, v]),
                        report_len,
                    )
                maps[k][(v, 0)] = payload
        return maps

    def set_reports(state, received):
        state["reports"] = received

    if links:
        kernel_transmit_unicast(
            builder, links, report_len, get_reports, set_reports
        )

    def finish(state, kctx):
        wit_u = state["wit_u"]
        wit_v = state["wit_v"]
        reports = state.get("reports")
        outcomes = []
        for k in range(kctx.instances):
            per_node = []
            for v in range(size):
                local = (
                    None
                    if wit_u[k, v] < 0
                    else (int(wit_u[k, v]), int(wit_v[k, v]))
                )
                witness = local
                if v == 0 and reports is not None:
                    witness = _read_reports(reports[k][0], local, vertex_bits)
                per_node.append(
                    TriangleMMOutcome(
                        found=witness is not None,
                        witness=witness,
                        trials=trials,
                    )
                )
            outcomes.append(per_node)
        return outcomes

    return builder.build(finish, name="triangle_mm")


def detect_triangle_mm(
    graph: Graph,
    trials: int = 8,
    circuit_kind: str = "strassen",
    bandwidth: Optional[int] = None,
    seed: int = 0,
    plan: Optional[SimulationPlan] = None,
    record_transcript: bool = False,
    kernel: bool = False,
) -> Tuple[TriangleMMOutcome, RunResult, SimulationPlan]:
    """Full pipeline: build the matmul circuit, simulate, detect.

    The decision at player 0 has one-sided error <= 2^{-trials} (misses
    only); "found" answers carry a witness edge and are always correct.
    ``kernel=True`` runs the vectorized kernel form of the protocol
    (:func:`triangle_mm_kernel_program`) — same results, no generator
    stepping.
    """
    size = graph.n
    if plan is None:
        builder: Callable[[int], Circuit] = (
            matmul_circuit_strassen if circuit_kind == "strassen" else matmul_circuit_naive
        )
        circuit = builder(size)
        plan = build_plan(
            circuit, size, matmul_input_partition(size), bandwidth
        )
    network = Network(
        n=size,
        bandwidth=plan.bandwidth,
        mode=Mode.UNICAST,
        seed=seed,
        record_transcript=record_transcript,
    )
    rows = [
        [1 if graph.has_edge(v, u) else 0 for u in range(size)]
        for v in range(size)
    ]
    program = (
        triangle_mm_kernel_program(graph, plan, trials)
        if kernel
        else triangle_mm_program(graph, plan, trials)
    )
    result = network.run(program, inputs=rows)
    return result.outputs[0], result, plan


def detect_triangle_mm_many(
    graphs: Sequence[Graph],
    trials: int = 8,
    circuit_kind: str = "strassen",
    bandwidth: Optional[int] = None,
    seed: int = 0,
    plan: Optional[SimulationPlan] = None,
    kernel: bool = False,
) -> Tuple[List[TriangleMMOutcome], List[RunResult], SimulationPlan]:
    """Triangle detection over many same-size graphs with one plan
    build, via :meth:`~repro.core.network.Network.run_many`.
    Per-instance results are byte-identical to calling
    :func:`detect_triangle_mm` with the same plan, seed and trials on
    each graph.  ``kernel=True`` swaps in the vectorized kernel program
    — all graphs advance through every round as one stacked matrix
    operation."""
    if not graphs:
        raise ValueError("detect_triangle_mm_many needs at least one graph")
    size = graphs[0].n
    for graph in graphs:
        if graph.n != size:
            raise ValueError("detect_triangle_mm_many needs same-size graphs")
    if plan is None:
        builder: Callable[[int], Circuit] = (
            matmul_circuit_strassen if circuit_kind == "strassen" else matmul_circuit_naive
        )
        plan = build_plan(
            builder(size), size, matmul_input_partition(size), bandwidth
        )
    network = Network(n=size, bandwidth=plan.bandwidth, mode=Mode.UNICAST, seed=seed)
    program = (
        triangle_mm_kernel_program(graphs[0], plan, trials)
        if kernel
        else triangle_mm_program(graphs[0], plan, trials)
    )
    inputs_list = [
        [
            [1 if graph.has_edge(v, u) else 0 for u in range(size)]
            for v in range(size)
        ]
        for graph in graphs
    ]
    results = network.run_many(program, inputs_list)
    return [result.outputs[0] for result in results], results, plan
