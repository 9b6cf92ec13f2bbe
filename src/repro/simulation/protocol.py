"""The Theorem 2 protocol: evaluating a circuit on CLIQUE-UCAST.

The simulation follows the paper's proof layer by layer.  For each layer
L_r of the circuit:

(a) *Heavy gates* are evaluated through their b-separability: every
    player owning some of a heavy gate's input gates sends one summary
    to the gate's owner, who combines them.  Because each player owns at
    most one heavy gate, this is a single engine round per layer.
(b) *Heavy outputs* are pushed once (deduplicated) to every player
    owning a light consumer — one bit per link, one round per layer.
(c) *Light-light wires* form a balanced demand (each player carries
    O(n·s) light weight) and are routed with the deterministic
    edge-colouring router — O(1) rounds per layer.

Before the layers run, the (arbitrary, roughly balanced) initial input
partition is redistributed to the assignment's owners with the same
router, exactly as the paper's final remark prescribes.

All scheduling data (which rounds exist, who sends what where, payload
lengths) is derived from the circuit structure and the deterministic
assignment — public information — so nodes never need to coordinate.
The engine's round count is therefore an honest measurement of the
simulation's round complexity, which Theorem 2 bounds by O(depth).

That same publicness makes the protocol *oblivious*: the round
structure is a pure function of the :class:`SimulationPlan`, input
values only fill payload bits.  :func:`make_program` declares this to
the engine (:func:`~repro.core.compiled.mark_oblivious`), so evaluating
one circuit on many input vectors — :func:`simulate_circuit_many` —
records the round schedule once and replays it payload-only for every
further instance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.circuits.circuit import CONST_KIND, GATE_KIND, Circuit
from repro.core.bits import Bits
from repro.core.compiled import declare_schedule_digest, mark_oblivious
from repro.core.network import Context, Mode, Network, Outbox, RunResult
from repro.routing.lenzen import payload_demand, route_payloads
from repro.routing.schedule import RoutingSchedule, build_schedule
from repro.simulation.assignment import GateAssignment, assign_gates

__all__ = [
    "LayerPlan",
    "SimulationPlan",
    "build_plan",
    "simulate_circuit",
    "simulate_circuit_many",
]

Pair = Tuple[int, int]


@dataclass
class LayerPlan:
    """Public per-layer schedule."""

    layer_index: int
    heavy_gates: List[int] = field(default_factory=list)
    # heavy gid -> sender player -> positions (indices into in(G)).
    summary_senders: Dict[int, Dict[int, List[int]]] = field(default_factory=dict)
    # heavy gid -> positions handled locally by the owner (incl. consts).
    summary_local: Dict[int, List[int]] = field(default_factory=dict)
    has_summary_round: bool = False
    # (sender, receiver) -> heavy gid whose value that push carries.
    push_recv: Dict[Pair, int] = field(default_factory=dict)
    # (src, dst) -> ordered source-gate ids for the light-wire payloads.
    light_order: Dict[Pair, List[int]] = field(default_factory=dict)
    light_lengths: Dict[Pair, int] = field(default_factory=dict)
    light_schedule: Optional[RoutingSchedule] = None
    # player -> light gate ids of this layer it must evaluate.
    light_owned: Dict[int, List[int]] = field(default_factory=dict)


@dataclass
class SimulationPlan:
    """Everything every player knows before the protocol starts."""

    circuit: Circuit
    n: int
    assignment: GateAssignment
    bandwidth: int
    input_order: Dict[Pair, List[int]] = field(default_factory=dict)
    input_lengths: Dict[Pair, int] = field(default_factory=dict)
    input_schedule: Optional[RoutingSchedule] = None
    layer0_push_recv: Dict[Pair, int] = field(default_factory=dict)
    layer_plans: List[LayerPlan] = field(default_factory=list)

    def summary_width(self, gid: int) -> int:
        node = self.circuit.node(gid)
        return node.gate.summary_width(len(node.inputs))


def _heavy_push_destinations(
    circuit: Circuit, assignment: GateAssignment
) -> Dict[int, List[int]]:
    """For each heavy gate, the players owning at least one of its light
    consumers (the deduplicated sends of step (b))."""
    destinations: Dict[int, set] = {gid: set() for gid in assignment.heavy}
    for node in circuit.nodes:
        if node.kind != GATE_KIND:
            continue
        consumer_owner = assignment.owner[node.gate_id]
        for src in node.inputs:
            if src in assignment.heavy and consumer_owner != assignment.owner[src]:
                if node.gate_id not in assignment.heavy:
                    destinations[src].add(consumer_owner)
    return {gid: sorted(dests) for gid, dests in destinations.items()}


def build_plan(
    circuit: Circuit,
    n: int,
    input_partition: Optional[Sequence[int]] = None,
    bandwidth: Optional[int] = None,
) -> SimulationPlan:
    """Precompute the full public schedule of the simulation.

    ``input_partition[i]`` names the player initially holding circuit
    input i (defaults to round-robin).
    """
    assignment = assign_gates(circuit, n)
    layers = circuit.layers()
    owner = assignment.owner

    heavy_widths = [
        circuit.node(gid).gate.summary_width(circuit.fan_in(gid))
        for gid in assignment.heavy
        if circuit.node(gid).kind == GATE_KIND
    ]
    if bandwidth is None:
        bandwidth = max([1, assignment.s_param] + heavy_widths)

    plan = SimulationPlan(
        circuit=circuit, n=n, assignment=assignment, bandwidth=bandwidth
    )

    # ---- input redistribution -------------------------------------------
    input_ids = circuit.input_ids
    if input_partition is None:
        input_partition = [i % n for i in range(len(input_ids))]
    if len(input_partition) != len(input_ids):
        raise ValueError("input_partition must name a player per input")
    for position, gid in enumerate(input_ids):
        holder = input_partition[position]
        target = owner[gid]
        if holder != target:
            plan.input_order.setdefault((holder, target), []).append(gid)
    plan.input_lengths = {
        pair: len(gids) for pair, gids in plan.input_order.items()
    }
    plan.input_schedule = build_schedule(
        payload_demand(plan.input_lengths, bandwidth), n
    )

    # ---- heavy pushes ------------------------------------------------------
    push_dests = _heavy_push_destinations(circuit, assignment)
    layer_of: Dict[int, int] = {}
    for level, gids in enumerate(layers):
        for gid in gids:
            layer_of[gid] = level
    for gid, dests in push_dests.items():
        level = layer_of[gid]
        for dest in dests:
            if level == 0:
                plan.layer0_push_recv[(owner[gid], dest)] = gid

    # ---- per-layer plans -----------------------------------------------------
    for level in range(1, len(layers)):
        lp = LayerPlan(layer_index=level)
        light_members: Dict[Pair, set] = {}
        for gid in layers[level]:
            node = circuit.node(gid)
            if gid in assignment.heavy:
                lp.heavy_gates.append(gid)
                senders: Dict[int, List[int]] = {}
                local: List[int] = []
                for pos, src in enumerate(node.inputs):
                    src_node = circuit.node(src)
                    if src_node.kind == CONST_KIND or owner[src] == owner[gid]:
                        local.append(pos)
                    else:
                        senders.setdefault(owner[src], []).append(pos)
                lp.summary_senders[gid] = senders
                lp.summary_local[gid] = local
                if senders:
                    lp.has_summary_round = True
            else:
                lp.light_owned.setdefault(owner[gid], []).append(gid)
                for src in node.inputs:
                    src_node = circuit.node(src)
                    if src_node.kind == CONST_KIND:
                        continue
                    if src in assignment.heavy:
                        continue  # covered by the push rounds
                    if owner[src] == owner[gid]:
                        continue
                    members = light_members.setdefault(
                        (owner[src], owner[gid]), set()
                    )
                    members.add(src)
            if gid in push_dests:
                for dest in push_dests[gid]:
                    lp.push_recv[(owner[gid], dest)] = gid
        lp.light_order = {
            pair: sorted(members) for pair, members in light_members.items()
        }
        lp.light_lengths = {
            pair: len(gids) for pair, gids in lp.light_order.items()
        }
        if lp.light_lengths:
            lp.light_schedule = build_schedule(
                payload_demand(lp.light_lengths, bandwidth), n
            )
        plan.layer_plans.append(lp)

    return plan


def execute_plan(ctx: Context, plan: SimulationPlan, my_inputs: Mapping[int, bool]):
    """Run the simulation as a sub-generator (``yield from``) so callers
    can compose it with further protocol phases (e.g. the triangle
    detection wrapper of Section 2.1).  Returns the values of every gate
    this node owns or learned."""
    circuit = plan.circuit
    owner = plan.assignment.owner
    me = ctx.node_id
    values: Dict[int, bool] = {}
    for node in circuit.nodes:
        if node.kind == CONST_KIND:
            values[node.gate_id] = node.const_value
    # Inputs we keep (already owned by us under the assignment).
    for gid, value in my_inputs.items():
        if owner[gid] == me:
            values[gid] = bool(value)

    # ---- input redistribution ----------------------------------------
    if plan.input_lengths:
        payloads = {}
        for (src, dst), gids in plan.input_order.items():
            if src == me:
                payloads[dst] = Bits.from_bools(
                    [bool(my_inputs[g]) for g in gids]
                )
        received = yield from route_payloads(
            ctx,
            plan.input_lengths,
            payloads,
            plan.bandwidth,
            plan.input_schedule,
        )
        for src, bits in received.items():
            for gid, bit in zip(plan.input_order[(src, me)], bits):
                values[gid] = bool(bit)

    # ---- layer-0 heavy pushes ------------------------------------------
    if plan.layer0_push_recv:
        messages = {
            dst: Bits.from_uint(1 if values[gid] else 0, 1)
            for (src, dst), gid in plan.layer0_push_recv.items()
            if src == me
        }
        inbox = yield Outbox.unicast(messages)
        for sender, payload in inbox.items():
            gid = plan.layer0_push_recv[(sender, me)]
            values[gid] = bool(payload.to_uint())

    # ---- layers ------------------------------------------------------------
    for lp in plan.layer_plans:
        if lp.has_summary_round:
            messages = {}
            for gid in lp.heavy_gates:
                gate_owner = owner[gid]
                if gate_owner == me:
                    continue
                positions = lp.summary_senders[gid].get(me)
                if not positions:
                    continue
                node = circuit.node(gid)
                part = [(pos, values[node.inputs[pos]]) for pos in positions]
                messages[gate_owner] = node.gate.partial_summary(
                    part, len(node.inputs)
                )
            inbox = yield Outbox.unicast(messages)
            for gid in lp.heavy_gates:
                if owner[gid] != me:
                    continue
                node = circuit.node(gid)
                summaries = []
                local_positions = lp.summary_local[gid]
                if local_positions:
                    part = [
                        (pos, values[node.inputs[pos]])
                        for pos in local_positions
                    ]
                    summaries.append(
                        node.gate.partial_summary(part, len(node.inputs))
                    )
                for sender in lp.summary_senders[gid]:
                    summaries.append(inbox.get(sender))
                values[gid] = node.gate.combine(summaries, len(node.inputs))
        else:
            # No summaries needed anywhere: heavy gates (if any) have
            # all inputs local to their owners.
            for gid in lp.heavy_gates:
                if owner[gid] == me:
                    node = circuit.node(gid)
                    values[gid] = node.gate.compute(
                        [values[src] for src in node.inputs]
                    )

        if lp.push_recv:
            messages = {
                dst: Bits.from_uint(1 if values[gid] else 0, 1)
                for (src, dst), gid in lp.push_recv.items()
                if src == me
            }
            inbox = yield Outbox.unicast(messages)
            for sender, payload in inbox.items():
                gid = lp.push_recv[(sender, me)]
                values[gid] = bool(payload.to_uint())

        if lp.light_lengths:
            payloads = {}
            for (src, dst), gids in lp.light_order.items():
                if src == me:
                    payloads[dst] = Bits.from_bools(
                        [values[g] for g in gids]
                    )
            received = yield from route_payloads(
                ctx,
                lp.light_lengths,
                payloads,
                plan.bandwidth,
                lp.light_schedule,
            )
            for src, bits in received.items():
                for gid, bit in zip(lp.light_order[(src, me)], bits):
                    values[gid] = bool(bit)

        for gid in lp.light_owned.get(me, ()):  # evaluate my light gates
            node = circuit.node(gid)
            values[gid] = node.gate.compute(
                [values[src] for src in node.inputs]
            )

    return {
        gid: values[gid] for gid in circuit.outputs if owner[gid] == me
    }


def make_program(plan: SimulationPlan):
    """The node program executing ``plan``; ``ctx.input`` must be a dict
    {input gate id: bool} for the inputs this node initially holds."""

    def program(ctx: Context):
        result = yield from execute_plan(ctx, plan, ctx.input or {})
        return result

    # The round structure is a pure function of the plan — see the
    # module docstring.
    declare_schedule_digest(program, "simulate_circuit", plan)
    return mark_oblivious(program, "simulate_circuit", id(plan))


def simulate_circuit(
    circuit: Circuit,
    n: int,
    input_values: Sequence[bool],
    input_partition: Optional[Sequence[int]] = None,
    bandwidth: Optional[int] = None,
    plan: Optional[SimulationPlan] = None,
    seed: int = 0,
    kernel: bool = False,
) -> Tuple[Dict[int, bool], RunResult, SimulationPlan]:
    """Run the full Theorem 2 simulation and return (outputs by gate id,
    engine result, plan)."""
    all_outputs, results, plan = simulate_circuit_many(
        circuit,
        n,
        [input_values],
        input_partition=input_partition,
        bandwidth=bandwidth,
        plan=plan,
        seed=seed,
        kernel=kernel,
    )
    return all_outputs[0], results[0], plan


def simulate_circuit_many(
    circuit: Circuit,
    n: int,
    input_values_list: Sequence[Sequence[bool]],
    input_partition: Optional[Sequence[int]] = None,
    bandwidth: Optional[int] = None,
    plan: Optional[SimulationPlan] = None,
    seed: int = 0,
    kernel: bool = False,
) -> Tuple[List[Dict[int, bool]], List[RunResult], SimulationPlan]:
    """Evaluate ``circuit`` on many input vectors with one compiled
    schedule: the plan is built once and
    :meth:`~repro.core.network.Network.run_many` replays the recorded
    round structure for every instance after the first.  Per-instance
    results are byte-identical to :func:`simulate_circuit`.

    ``kernel=True`` runs the vectorized kernel form of the simulation
    (:func:`repro.simulation.kernel.make_kernel_program`) instead of
    the generator loop — same results, zero generator resumptions."""
    for input_values in input_values_list:
        if len(input_values) != circuit.num_inputs:
            raise ValueError(
                f"expected {circuit.num_inputs} inputs, got {len(input_values)}"
            )
    if plan is None:
        plan = build_plan(circuit, n, input_partition, bandwidth)
    if input_partition is None:
        input_partition = [i % n for i in range(circuit.num_inputs)]
    inputs_list = []
    for input_values in input_values_list:
        per_node_inputs: List[Dict[int, bool]] = [dict() for _ in range(n)]
        for position, gid in enumerate(circuit.input_ids):
            per_node_inputs[input_partition[position]][gid] = bool(
                input_values[position]
            )
        inputs_list.append(per_node_inputs)
    network = Network(n=n, bandwidth=plan.bandwidth, mode=Mode.UNICAST, seed=seed)
    if kernel:
        from repro.simulation.kernel import make_kernel_program

        program: Any = make_kernel_program(plan)
    else:
        program = make_program(plan)
    results = network.run_many(program, inputs_list)
    all_outputs: List[Dict[int, bool]] = []
    for result in results:
        outputs: Dict[int, bool] = {}
        for node_output in result.outputs:
            if node_output:
                outputs.update(node_output)
        all_outputs.append(outputs)
    return all_outputs, results, plan


@dataclass
class OutputRouting:
    """Remark 3: a public plan for redistributing multi-bit operator
    outputs from their simulation owners to caller-chosen players."""

    order: Dict[Pair, List[int]] = field(default_factory=dict)
    lengths: Dict[Pair, int] = field(default_factory=dict)
    schedule: Optional[RoutingSchedule] = None
    target_of: Dict[int, int] = field(default_factory=dict)


def build_output_routing(
    plan: SimulationPlan, target_of: Mapping[int, int]
) -> OutputRouting:
    """Plan the Remark 3 output redistribution: every output gate id in
    ``target_of`` is shipped from its owner to ``target_of[gid]``."""
    routing = OutputRouting(target_of=dict(target_of))
    for gid in plan.circuit.outputs:
        if gid not in target_of:
            continue
        src = plan.assignment.owner[gid]
        dst = target_of[gid]
        if src != dst:
            routing.order.setdefault((src, dst), []).append(gid)
    routing.lengths = {pair: len(gids) for pair, gids in routing.order.items()}
    routing.schedule = build_schedule(
        payload_demand(routing.lengths, plan.bandwidth), plan.n
    )
    return routing


def redistribute_outputs(
    ctx: Context,
    plan: SimulationPlan,
    routing: OutputRouting,
    values: Mapping[int, bool],
):
    """Execute the Remark 3 redistribution (sub-generator).  ``values``
    is this node's gate-value map from :func:`execute_plan`; returns the
    {gate id: value} entries this node is a target for."""
    me = ctx.node_id
    payloads = {}
    for (src, dst), gids in routing.order.items():
        if src == me:
            payloads[dst] = Bits.from_bools([values[g] for g in gids])
    received = yield from route_payloads(
        ctx, routing.lengths, payloads, plan.bandwidth, routing.schedule
    )
    mine: Dict[int, bool] = {}
    for gid, target in routing.target_of.items():
        if target == me and plan.assignment.owner[gid] == me:
            mine[gid] = values[gid]
    for src, bits in received.items():
        for gid, bit in zip(routing.order[(src, me)], bits):
            mine[gid] = bool(bit)
    return mine
