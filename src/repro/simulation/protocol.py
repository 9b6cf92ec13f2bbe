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
:func:`build_plan` reads it off the circuit's array form
(:mod:`repro.circuits.circuit`): one sort over the wires per kind of
traffic gives every layer's summary senders, pushes and light-wire
orders, in the order a loop over the gates would list them.
The engine's round count is therefore an honest measurement of the
simulation's round complexity, which Theorem 2 bounds by O(depth).

That same publicness makes the protocol *oblivious*: the round
structure is a pure function of the :class:`SimulationPlan`, input
values only fill payload bits.  The kernel twin
(:func:`repro.simulation.kernel.make_kernel_program`) declares that
structure, so the kernel engine compiles it once and evaluates many
input vectors as stacked matrix operations.

Each player runs its part of the plan from a per-player view
(:class:`PlanView`, one :class:`PlayerView` per player), compiled once
per plan and shared by every execution — all players, all trials,
every generator run.  :meth:`SimulationPlan.view` and
:meth:`SimulationPlan.kernel_plan` compile the two engine forms on
first use; both run while the scenario registry prepares a coordinate
(the view when it builds the plan, the kernel plan when it builds the
kernel program), so no engine run pays for them, and the registry
holds the compiled plan for every coordinate of the same size.  For
each phase the view lists the gate columns the player sends to each
destination and receives from each source, compiled with the phase's
routing schedule into a :class:`~repro.routing.lenzen.ColumnRoute`, and
a :class:`~repro.circuits.vectorized.GateGroups` over the light gates
it owns (every player's, for every layer, grouped at once by
:func:`~repro.circuits.vectorized.compile_groups`).  A player keeps its
gate values in one ``uint8`` vector copied from a constants template;
routed frames are packed straight from its columns and unpacked
straight into them, and a layer's light gates cost one gather and one
reduction per (family, fan-in) group.  Heavy gates
keep their reference semantics: senders call ``partial_summary`` and
owners ``combine``, reading and writing the same vector.  Compiling the
view checks that every value a player sends or reads is known to it by
then; each execution checks that the node holds every input the plan
says it holds, and that every heavy push and routed payload planned to
it arrives whole.  These failures raise
:class:`~repro.core.errors.SimulationPlanError` naming the player and
the gate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.circuits.circuit import CONST_CODE, GATE_CODE, Circuit, grouped
from repro.circuits.vectorized import compile_groups, constant_columns
from repro.core.bits import Bits
from repro.core.errors import SimulationPlanError
from repro.core.network import Context, Mode, Network, Outbox, RunResult
from repro.routing.lenzen import ColumnRoute, payload_demand
from repro.routing.schedule import RoutingSchedule, build_schedule
from repro.simulation.assignment import GateAssignment, assign_gates

if TYPE_CHECKING:
    from repro.simulation.kernel import KernelPlan

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
        circuit = self.circuit
        return circuit.gate_table[circuit.gate_slots[gid]].summary_width(
            circuit.fan_in(gid)
        )

    def view(self) -> "PlanView":
        """This plan compiled per player, for the legacy engine:
        built at the first call and shared by every later execution.
        The scenario registry calls it while it prepares a coordinate;
        a library caller's first generator run builds it.  A cache, not
        plan content — it stays out of the plan's equality and pickled
        state — so a plan must not be edited once it is compiled."""
        view = self.__dict__.get("_view")
        if view is None:
            view = self._view = PlanView(self)
        return view

    def kernel_plan(self) -> "KernelPlan":
        """This plan compiled into the kernel engine's index arrays
        (:class:`~repro.simulation.kernel.KernelPlan`), cached like
        :meth:`view`."""
        kernel_plan = self.__dict__.get("_kernel_plan")
        if kernel_plan is None:
            from repro.simulation.kernel import KernelPlan

            kernel_plan = self._kernel_plan = KernelPlan(self)
        return kernel_plan

    def check_size(self, n: int) -> None:
        """Raise :class:`ValueError` unless this plan is for ``n``
        players."""
        if n != self.n:
            raise ValueError(f"the plan is for n={self.n} players, not n={n}")

    def __getstate__(self):
        state = self.__dict__.copy()
        state.pop("_view", None)
        state.pop("_kernel_plan", None)
        return state


def build_plan(
    circuit: Circuit,
    n: int,
    input_partition: Optional[Sequence[int]] = None,
    bandwidth: Optional[int] = None,
) -> SimulationPlan:
    """Precompute the full public schedule of the simulation.

    ``input_partition[i]`` names the player initially holding circuit
    input i (defaults to round-robin).

    Every order is read off the circuit's arrays, one sort per kind of
    traffic for the whole circuit, and comes out as the loop over gates
    in id order (and each gate's inputs in order) would build it: dict
    keys in order of first appearance, lists ascending.
    """
    assignment = assign_gates(circuit, n)
    owner_ids = assignment.owner
    owner = np.asarray(owner_ids, dtype=np.int64)
    codes = circuit.kind_codes
    table = circuit.gate_table
    slots = circuit.gate_slots
    indptr = circuit.indptr
    indices = circuit.indices
    fan_ins = circuit.fan_ins
    levels = circuit.levels
    is_heavy = np.zeros(len(circuit), dtype=bool)
    is_heavy[np.asarray(sorted(assignment.heavy), dtype=np.int64)] = True

    heavy_widths = [
        table[slots[gid]].summary_width(int(fan_ins[gid]))
        for gid in assignment.heavy
        if codes[gid] == GATE_CODE
    ]
    if bandwidth is None:
        bandwidth = max([1, assignment.s_param] + heavy_widths)

    plan = SimulationPlan(
        circuit=circuit, n=n, assignment=assignment, bandwidth=bandwidth
    )

    # ---- input redistribution -------------------------------------------
    input_ids = np.asarray(circuit.input_ids, dtype=np.int64)
    if input_partition is None:
        input_partition = [i % n for i in range(len(input_ids))]
    if len(input_partition) != len(input_ids):
        raise ValueError("input_partition must name a player per input")
    holders = np.asarray(input_partition, dtype=np.int64)
    targets = owner[input_ids]
    moved = holders != targets
    ids = circuit.id_objects
    for key, gids in grouped(
        holders[moved] * n + targets[moved], input_ids[moved], ids
    ):
        plan.input_order[divmod(key, n)] = gids
    plan.input_lengths = {
        pair: len(gids) for pair, gids in plan.input_order.items()
    }
    plan.input_schedule = build_schedule(
        payload_demand(plan.input_lengths, bandwidth), n
    )

    # ---- the wires, as (source, consumer) arrays ----------------------------
    consumers = np.repeat(np.arange(len(circuit)), fan_ins)
    light_gate = (codes == GATE_CODE) & ~is_heavy
    into_light = light_gate[consumers]
    src_owner = owner[indices]
    dst_owner = owner[consumers]
    remote = src_owner != dst_owner

    # ---- heavy pushes: each heavy gate to the players owning a light
    # consumer of it, deduplicated ------------------------------------------
    pushed = is_heavy[indices] & into_light & remote
    push_dests: Dict[int, List[int]] = {gid: [] for gid in assignment.heavy}
    for gid, dests in grouped(indices[pushed], dst_owner[pushed]):
        push_dests[gid] = dests
    for gid, dests in push_dests.items():
        if levels[gid] == 0:
            for dest in dests:
                plan.layer0_push_recv[(owner_ids[gid], dest)] = gid

    # ---- light wires and light gates, per layer ------------------------------
    routed = (
        into_light & remote & ~is_heavy[indices] & (codes[indices] != CONST_CODE)
    )
    light_order: Dict[int, Dict[Pair, List[int]]] = {}
    for key, sources in grouped(
        (levels[consumers[routed]].astype(np.int64) * n + src_owner[routed]) * n
        + dst_owner[routed],
        indices[routed],
        ids,
    ):
        level, pair = divmod(key, n * n)
        light_order.setdefault(level, {})[divmod(pair, n)] = sources
    lights = np.flatnonzero(light_gate)
    light_owned: Dict[int, Dict[int, List[int]]] = {}
    for key, gids in grouped(
        levels[lights].astype(np.int64) * n + owner[lights], lights, ids
    ):
        level, player = divmod(key, n)
        light_owned.setdefault(level, {})[player] = gids
    heavy_by_level: Dict[int, List[int]] = {}
    for gid in sorted(assignment.heavy):
        heavy_by_level.setdefault(int(levels[gid]), []).append(gid)

    # ---- per-layer plans -----------------------------------------------------
    depth = int(levels.max()) if len(levels) else 0
    for level in range(1, depth + 1):
        lp = LayerPlan(layer_index=level)
        for gid in heavy_by_level.get(level, ()):
            lp.heavy_gates.append(gid)
            sources = indices[indptr[gid] : indptr[gid + 1]]
            local = (codes[sources] == CONST_CODE) | (owner[sources] == owner[gid])
            positions = np.arange(len(sources))
            senders = dict(grouped(owner[sources[~local]], positions[~local]))
            lp.summary_senders[gid] = senders
            lp.summary_local[gid] = positions[local].tolist()
            if senders:
                lp.has_summary_round = True
            for dest in push_dests[gid]:
                lp.push_recv[(owner_ids[gid], dest)] = gid
        lp.light_owned = light_owned.get(level, {})
        lp.light_order = light_order.get(level, {})
        lp.light_lengths = {
            pair: len(gids) for pair, gids in lp.light_order.items()
        }
        if lp.light_lengths:
            lp.light_schedule = build_schedule(
                payload_demand(lp.light_lengths, bandwidth), n
            )
        plan.layer_plans.append(lp)

    return plan


def _split_order(order: Mapping[Pair, Sequence[int]], n: int):
    """Per player, the ``(peer, gate ids)`` payloads it sends and
    receives under a routed phase's ``order``, and the gate ids of each
    side as one array, in payload order."""
    sends: List[list] = [[] for _ in range(n)]
    recvs: List[list] = [[] for _ in range(n)]
    for (src, dst), gids in order.items():
        sends[src].append((dst, gids))
        recvs[dst].append((src, gids))
    lengths = np.fromiter(map(len, order.values()), dtype=np.int64, count=len(order))
    flat = np.fromiter(
        chain.from_iterable(order.values()), dtype=np.intp, count=int(lengths.sum())
    )
    pairs = np.asarray(list(order), dtype=np.int64).reshape(-1, 2)

    def per_player(side: int) -> List[np.ndarray]:
        players = np.repeat(pairs[:, side], lengths)
        by_player = np.argsort(players, kind="stable")
        bounds = np.searchsorted(players[by_player], np.arange(n + 1)).tolist()
        cols = flat[by_player]
        return [cols[bounds[p] : bounds[p + 1]] for p in range(n)]

    return sends, recvs, per_player(0), per_player(1)


def _split_push(push_recv: Mapping[Pair, int], n: int):
    """Per player, the ``(receiver, gate)`` bits it pushes and the
    ``{sender: gate}`` bits pushed to it."""
    sends: List[list] = [[] for _ in range(n)]
    recvs: List[dict] = [{} for _ in range(n)]
    for (src, dst), gid in push_recv.items():
        sends[src].append((dst, gid))
        recvs[dst][src] = gid
    return sends, recvs


class _Knowledge:
    """The gate values one player knows, phase by phase, while its view
    compiles."""

    __slots__ = ("player", "known")

    def __init__(self, player: int, known: np.ndarray) -> None:
        self.player = player
        self.known = known

    def require(self, cols, what: str, where: str) -> None:
        cols = np.asarray(cols, dtype=np.intp)
        unknown = cols[~self.known[cols]]
        if unknown.size:
            gate = int(unknown[0])
            raise SimulationPlanError(
                f"player {self.player} {what} gate {gate} in {where} "
                "before it learns its value",
                self.player,
                gate,
            )

    def learn(self, cols) -> None:
        self.known[cols] = True

    def route(self, split, order, schedule, bandwidth: int, where: str):
        """The player's share of a routed phase: its compiled
        :class:`~repro.routing.lenzen.ColumnRoute` and the phase's
        public ``order``."""
        sends, recvs, sent, received = (side[self.player] for side in split)
        self.require(sent, "sends", where)
        self.learn(received)
        route = ColumnRoute(
            schedule, self.player, bandwidth, dict(sends), dict(recvs)
        )
        return route, order

    def push(self, split, where: str):
        """The player's share of a push round: ``(receivers, their
        gates, {sender: gate})``."""
        sends, recvs = split[0][self.player], split[1][self.player]
        gids = np.asarray([gid for _dst, gid in sends], dtype=np.intp)
        self.require(gids, "pushes", where)
        self.learn(list(recvs.values()))
        return [dst for dst, _gid in sends], gids, recvs

    def summary_part(self, gate, inputs: np.ndarray, positions, where: str):
        """``(gate, positions, input columns, fan-in)`` of one part of a
        heavy gate's ``inputs``."""
        cols = inputs[positions]
        self.require(cols, "summarises", where)
        return gate, positions, cols, len(inputs)


class PlayerView:
    """One player's share of a :class:`PlanView`, phase for phase.

    ``held`` lists the inputs the player holds before the protocol
    starts; ``inputs`` and ``layer0_push`` are the redistribution and
    layer-0 push phases (``None`` when the plan has none).  Each entry
    of ``layers`` is ``(summary, heavy, push, route, lights)``: the heavy
    summary round's sends and owned gates, the heavy gates it owns in a
    layer without one, the push round, the light-wire route, and a
    :class:`~repro.circuits.vectorized.GateGroups` over the player's
    light gates (``None`` where the layer has no such phase for it).
    A routed phase (``inputs``, a layer's route) is the player's
    :class:`~repro.routing.lenzen.ColumnRoute` with the phase's public
    order.  ``outputs`` are the output gates the player owns."""

    __slots__ = ("held", "inputs", "layer0_push", "layers", "outputs")

    def __init__(self, plan, phases, knows: _Knowledge, held, outputs) -> None:
        circuit = plan.circuit
        table = circuit.gate_table
        slots = circuit.gate_slots
        indptr = circuit.indptr
        indices = circuit.indices

        def heavy_gate(gid):
            return table[slots[gid]], indices[indptr[gid] : indptr[gid + 1]]

        player = knows.player
        inputs, layer0, layers, light_groups = phases
        self.held = held
        knows.learn(held)
        self.inputs = (
            None
            if inputs is None
            else knows.route(
                inputs,
                plan.input_order,
                plan.input_schedule,
                plan.bandwidth,
                "the input redistribution",
            )
        )
        self.layer0_push = None if layer0 is None else knows.push(layer0, "layer 0")
        self.layers = []
        for lp, heavy_owned, summary_sends, push_split, light_split in layers:
            where = f"layer {lp.layer_index}"
            mine = heavy_owned[player]
            summary = None
            heavy = []
            if summary_sends is not None:
                summary = (
                    [
                        (owner, *knows.summary_part(*heavy_gate(gid), positions, where))
                        for owner, gid, positions in summary_sends[player]
                    ],
                    [
                        (
                            gid,
                            *knows.summary_part(
                                *heavy_gate(gid), lp.summary_local[gid], where
                            ),
                            list(lp.summary_senders[gid]),
                        )
                        for gid in mine
                    ],
                )
            else:
                for gid in mine:
                    gate, cols = heavy_gate(gid)
                    knows.require(cols, "reads", where)
                    heavy.append((gid, gate, cols))
            knows.learn(mine)
            push = None if push_split is None else knows.push(push_split, where)
            route = (
                None
                if light_split is None
                else knows.route(
                    light_split,
                    lp.light_order,
                    lp.light_schedule,
                    plan.bandwidth,
                    where,
                )
            )
            lights = light_groups.get((lp.layer_index, player))
            if lights is not None:
                for cols in lights.input_columns():
                    knows.require(cols, "reads", where)
                for cols in lights.output_columns():
                    knows.learn(cols)
            self.layers.append((summary, heavy, push, route, lights))
        knows.require(outputs, "outputs", "the last layer")
        self.outputs = outputs


class PlanView:
    """A :class:`SimulationPlan` compiled per player: one
    :class:`PlayerView` each, and the constants-seeded ``template``
    every player's ``uint8`` value vector is copied from.

    Compiling checks what running the plan otherwise finds late or not
    at all: every value a player sends or reads must be known to it by
    then — a constant, an input it holds, or a value it computed or
    received in an earlier phase.  A violation raises
    :class:`~repro.core.errors.SimulationPlanError` naming the player
    and the gate.
    """

    __slots__ = ("template", "players")

    def __init__(self, plan: "SimulationPlan") -> None:
        circuit = plan.circuit
        owner = plan.assignment.owner
        n = plan.n
        const_cols, const_vals = constant_columns(circuit)
        self.template = np.zeros(len(circuit), dtype=np.uint8)
        self.template[const_cols] = const_vals
        constants = np.zeros(len(circuit), dtype=bool)
        constants[const_cols] = True

        held: List[List[int]] = [[] for _ in range(n)]
        routed = np.zeros(len(circuit), dtype=bool)
        for (src, _dst), gids in plan.input_order.items():
            held[src].extend(gids)
            routed[gids] = True
        input_ids = np.asarray(circuit.input_ids, dtype=np.int64)
        kept = input_ids[~routed[input_ids]]
        for player, gids in grouped(np.asarray(owner)[kept], kept):
            held[player].extend(gids)
        outputs: List[List[int]] = [[] for _ in range(n)]
        for gid in circuit.outputs:
            outputs[owner[gid]].append(gid)

        # The public phases, each split by player once for all players,
        # and every player's light gates of every layer grouped at once.
        owned = [
            (lp.layer_index, player, gids)
            for lp in plan.layer_plans
            for player, gids in lp.light_owned.items()
            if gids
        ]
        lights = dict(
            zip(
                [(level, player) for level, player, _gids in owned],
                compile_groups(circuit, [gids for _level, _player, gids in owned]),
            )
        )
        layers = []
        for lp in plan.layer_plans:
            heavy_owned: List[List[int]] = [[] for _ in range(n)]
            summary_sends: List[list] = [[] for _ in range(n)]
            for gid in lp.heavy_gates:
                heavy_owned[owner[gid]].append(gid)
                for sender, positions in lp.summary_senders[gid].items():
                    summary_sends[sender].append((owner[gid], gid, positions))
            layers.append(
                (
                    lp,
                    heavy_owned,
                    summary_sends if lp.has_summary_round else None,
                    _split_push(lp.push_recv, n) if lp.push_recv else None,
                    _split_order(lp.light_order, n) if lp.light_lengths else None,
                )
            )
        phases = (
            _split_order(plan.input_order, n) if plan.input_lengths else None,
            _split_push(plan.layer0_push_recv, n) if plan.layer0_push_recv else None,
            layers,
            lights,
        )
        self.players = [
            PlayerView(
                plan, phases, _Knowledge(p, constants.copy()), held[p], outputs[p]
            )
            for p in range(n)
        ]


def _indexed(positions: Sequence[int], values: np.ndarray) -> List[Tuple[int, bool]]:
    """A heavy gate's ``(position, value)`` part, as ``partial_summary``
    takes it."""
    return list(zip(positions, values.astype(bool).tolist()))


def _push_round(push, vals: np.ndarray, me: int):
    """One heavy-push round: a 1-bit message per planned edge.  A push
    that never arrives (dropped, or its sender crashed) raises
    :class:`~repro.core.errors.SimulationPlanError`, not a silent 0."""
    dests, gids, gid_of = push
    messages = {dst: Bits(value, 1) for dst, value in zip(dests, vals[gids].tolist())}
    inbox = yield Outbox.unicast(messages)
    if len(inbox) != len(gid_of):
        for sender, gid in gid_of.items():
            if sender not in inbox:
                raise SimulationPlanError(
                    f"player {me} never received gate {gid}, which player "
                    f"{sender} pushes to it",
                    me,
                    gid,
                )
    for sender, payload in inbox.items():
        vals[gid_of[sender]] = 1 if payload.to_uint() else 0


def _route_round(ctx: Context, route, vals: np.ndarray):
    """One routed phase: the player's send columns out, what it
    receives back into its receive columns.  A payload that lost a
    frame (dropped, or its sender crashed) raises
    :class:`~repro.core.errors.SimulationPlanError` naming the
    payload's first gate."""
    columns, order = route
    lost = yield from columns.run(ctx, vals, vals)
    if lost:
        me = ctx.node_id
        peer, gids = next(
            (src, gids)
            for (src, dst), gids in order.items()
            if dst == me and src in lost
        )
        raise SimulationPlanError(
            f"player {me} never received the payload from gate "
            f"{gids[0]} on, which player {peer} routes to it",
            me,
            gids[0],
        )


def execute_plan(ctx: Context, plan: SimulationPlan, my_inputs: Mapping[int, bool]):
    """Run the simulation as a sub-generator (``yield from``) so callers
    can compose it with further protocol phases (e.g. the triangle
    detection wrapper of Section 2.1).  ``my_inputs`` must hold every
    input the plan says this node holds.  Returns ``{gate id: value}``
    for the output gates this node owns."""
    vals = yield from run_player(ctx, plan, my_inputs)
    outputs = plan.view().players[ctx.node_id].outputs
    return dict(zip(outputs, vals[outputs].astype(bool).tolist()))


def run_player(ctx: Context, plan: SimulationPlan, my_inputs: Mapping[int, bool]):
    """:func:`execute_plan` up to its last round, returning the
    player's whole ``uint8`` value vector (the :class:`PlanView`'s
    columns) instead of its outputs.  Sub-generator."""
    view = plan.view()
    me = ctx.node_id
    player = view.players[me]
    vals = view.template.copy()
    try:
        vals[player.held] = [1 if my_inputs[gid] else 0 for gid in player.held]
    except KeyError:
        gid = next(gid for gid in player.held if gid not in my_inputs)
        raise SimulationPlanError(
            f"player {me} lacks input gate {gid}, which the plan says it holds",
            me,
            gid,
        ) from None
    if player.inputs is not None:
        yield from _route_round(ctx, player.inputs, vals)
    if player.layer0_push is not None:
        yield from _push_round(player.layer0_push, vals, me)
    grid = vals[None]
    for summary, heavy, push, route, lights in player.layers:
        if summary is not None:
            sends, owns = summary
            messages = {}
            for gate_owner, gate, positions, cols, fan_in in sends:
                messages[gate_owner] = gate.partial_summary(
                    _indexed(positions, vals[cols]), fan_in
                )
            inbox = yield Outbox.unicast(messages)
            for gid, gate, positions, cols, fan_in, senders in owns:
                summaries = (
                    [gate.partial_summary(_indexed(positions, vals[cols]), fan_in)]
                    if positions
                    else []
                )
                summaries.extend(inbox.get(sender) for sender in senders)
                vals[gid] = gate.combine(summaries, fan_in)
        for gid, gate, cols in heavy:
            vals[gid] = gate.compute(vals[cols].astype(bool).tolist())
        if push is not None:
            yield from _push_round(push, vals, me)
        if route is not None:
            yield from _route_round(ctx, route, vals)
        if lights is not None:
            lights.evaluate(grid)
    return vals


def make_program(plan: SimulationPlan):
    """The node program executing ``plan``; ``ctx.input`` must be a dict
    {input gate id: bool} for the inputs this node initially holds."""

    def program(ctx: Context):
        result = yield from execute_plan(ctx, plan, ctx.input or {})
        return result

    return program


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
    """Evaluate ``circuit`` on many input vectors with one plan build,
    via :meth:`~repro.core.network.Network.run_many`.  Per-instance
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
    plan.check_size(n)
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
