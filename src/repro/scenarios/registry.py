"""The protocol registry: name → runnable scenario factory.

Each :class:`ProtocolSpec` packages one protocol family from the paper
as a *scenario*: given a problem size, a graph instance and an rng, its
``prepare`` hook returns a :class:`PreparedScenario` — network
parameters, one node program per program flavour (generator and, where
the protocol has a kernel twin, kernel), the per-node inputs, a
``summarize`` function that reduces a
:class:`~repro.core.network.RunResult` to a canonical (repr-stable)
summary, and a ``validate`` hook that checks the summary against ground
truth computed locally.

``engines`` names the execution backends the protocol supports (keys of
:data:`repro.core.engine.ENGINES`: ``legacy`` runs the generator
program, ``kernel`` the kernel twin); the matrix runner marks the rest
unsupported instead of guessing.  The registry ships the five
families the experiment suites exercise — Lenzen routing, Theorem 2
circuit simulation, matmul triangle detection, subgraph detection, and
Borůvka MST — and is open: :func:`register_protocol` accepts new specs,
and :func:`capability_matrix` reports the protocol × engine support
table (the README's "Execution engines" matrix is generated from it).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import chain
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.analysis.budget import BandwidthBudget
from repro.core.errors import ProtocolError
from repro.core.network import Mode, RunResult
from repro.graphs.graph import Graph

__all__ = [
    "PreparedScenario",
    "ProtocolSpec",
    "PROTOCOLS",
    "register_protocol",
    "get_protocol",
    "protocol_names",
    "capability_matrix",
]


@dataclass
class PreparedScenario:
    """One concrete, runnable scenario instance (engine not yet chosen)."""

    #: Keyword arguments for :class:`~repro.core.network.Network`:
    #: n, bandwidth, mode.  ``engine`` is chosen by the matrix runner
    #: and ``seed`` defaults to the runner's per-cell seed (a prepare
    #: hook may pin its own ``seed`` here to override).
    network_kwargs: Dict[str, Any]
    #: Program per flavour: ``"generator"`` (the legacy engine) and
    #: optionally ``"kernel"``.
    programs: Dict[str, Any]
    #: Per-node inputs, or None for input-free protocols and for
    #: multi-instance scenarios (whose inputs live in ``instances``).
    inputs: Optional[List[Any]]
    #: RunResult -> canonical summary (repr-stable: only ints, strings,
    #: bools, and sorted tuples), used for cross-engine digests.
    summarize: Callable[[RunResult], Any]
    #: summary -> None, raising AssertionError on ground-truth mismatch.
    validate: Optional[Callable[[Any], None]] = None
    #: Multi-instance scenarios (``run_many`` cells): per-instance input
    #: lists, one entry per instance.  When set, the matrix runner
    #: executes all K instances through one
    #: :meth:`~repro.core.network.Network.run_many` call, the cell digest
    #: covers the ordered per-instance summaries, and ``inputs`` is
    #: unread.
    instances: Optional[List[Any]] = None
    #: ``validate_instance(k, summary_k)`` — per-instance ground-truth
    #: check for multi-instance scenarios; raises AssertionError on
    #: mismatch.
    validate_instance: Optional[Callable[[int, Any], None]] = None


@dataclass(frozen=True)
class ProtocolSpec:
    """A named protocol family the scenario matrix can sweep."""

    name: str
    description: str
    #: Engine names (keys of ``repro.core.engine.ENGINES``) this
    #: protocol runs on.
    engines: Tuple[str, ...]
    #: ``prepare(n, graph, rng) -> PreparedScenario``.
    prepare: Callable[[int, Graph, random.Random], PreparedScenario]
    #: Declared worst-case per-message width as a function of n — the
    #: clique model's O(c·log n) constraint made concrete and
    #: machine-checkable.  Every scenario-matrix coordinate checks its
    #: prepared network ``bandwidth`` against it before any engine runs
    #: (an over-budget coordinate fails with BandwidthExceededError).
    bandwidth_budget: BandwidthBudget

    def program_for(self, engine: str) -> str:
        """Which program flavour the named engine executes."""
        return "kernel" if engine == "kernel" else "generator"

    def program(self, prepared: PreparedScenario, engine: str):
        """The program ``engine`` runs on ``prepared``; raises
        :class:`~repro.core.errors.ProtocolError` when there is none or
        it is the wrong kind (a program is a kernel program if and only
        if its engine is ``kernel``)."""
        flavour = self.program_for(engine)
        program = prepared.programs.get(flavour)
        if program is None:
            raise ProtocolError(
                f"{self.name}: spec claims engine {engine!r} but prepares "
                f"no {flavour!r} program"
            )
        is_kernel = bool(getattr(program, "is_kernel_program", False))
        if is_kernel != (engine == "kernel"):
            raise ProtocolError(
                f"{self.name}: spec claims engine {engine!r} but its "
                f"{flavour!r} program is a "
                f"{'kernel' if is_kernel else 'generator'} program"
            )
        return program

    def __reduce__(self):
        # Specs cross the sweep worker-pool process boundary by name:
        # unpickling resolves against the child's registry first, so a
        # builtin (or any spec registered at import time) restores to
        # the identical object, while an ad-hoc spec re-registers itself
        # in the child.  ``prepare`` must be picklable for the ad-hoc
        # path — a lambda-prepared spec fails here at dispatch time,
        # which the pool turns into a graceful serial fallback.
        return (
            _restore_spec,
            (
                self.name,
                self.description,
                self.engines,
                self.prepare,
                self.bandwidth_budget,
            ),
        )


def _restore_spec(
    name: str,
    description: str,
    engines: Tuple[str, ...],
    prepare: Callable[[int, Graph, random.Random], PreparedScenario],
    bandwidth_budget: BandwidthBudget,
) -> "ProtocolSpec":
    """Unpickle hook for :class:`ProtocolSpec` (see ``__reduce__``)."""
    existing = PROTOCOLS.get(name)
    if existing is not None:
        return existing
    return register_protocol(
        ProtocolSpec(
            name=name,
            description=description,
            engines=engines,
            prepare=prepare,
            bandwidth_budget=bandwidth_budget,
        )
    )


PROTOCOLS: Dict[str, ProtocolSpec] = {}


def register_protocol(spec: ProtocolSpec) -> ProtocolSpec:
    """Add ``spec`` to the registry (last registration wins)."""
    PROTOCOLS[spec.name] = spec
    return spec


def get_protocol(name: str) -> ProtocolSpec:
    try:
        return PROTOCOLS[name]
    except KeyError:
        raise KeyError(
            f"unknown protocol {name!r}; known: {sorted(PROTOCOLS)}"
        ) from None


def protocol_names() -> List[str]:
    return sorted(PROTOCOLS)


def capability_matrix() -> Dict[str, Dict[str, bool]]:
    """``{protocol: {engine: supported}}`` over all registered engines."""
    from repro.core.engine import ENGINES

    return {
        name: {engine: engine in spec.engines for engine in sorted(ENGINES)}
        for name, spec in sorted(PROTOCOLS.items())
    }


# -- built-in protocol specs ----------------------------------------------


#: Frame width of the routing scenarios (bits per routed frame).
_ROUTING_FRAME_SIZE = 16
#: Instance count of the ``routing_many`` scenario: K payload batches
#: routed through one routing schedule.
ROUTING_MANY_INSTANCES = 6


def _routing_demand(n: int, graph: Graph) -> Dict[Tuple[int, int], int]:
    # One frame per direction of every graph edge: the demand pattern is
    # the graph, the payloads are random frame contents.  The pairs go
    # in (src, dst) order, so every sort of the demand meets one sorted
    # run.
    demand: Dict[Tuple[int, int], int] = {}
    for u in graph.vertices():
        for v in sorted(graph.neighbors(u)):
            demand[(u, v)] = 1
    if not demand:
        # An empty graph routes nothing; keep the schedule non-degenerate.
        if n < 2:
            raise ValueError("the routing scenario needs n >= 2")
        demand[(0, 1)] = 1
    return demand


def _routing_instance(
    n: int, demand: Dict[Tuple[int, int], int], rng: random.Random
) -> Tuple[List[Dict[Any, int]], Callable[[Any], None]]:
    """One payload batch for ``demand``: per-node ``{FrameRef: int}``
    inputs, and the validator of a run's summary against the frames
    drawn."""
    inputs: List[Dict[Any, int]] = [dict() for _ in range(n)]
    by_dest: List[List[Tuple[int, ...]]] = [[] for _ in range(n)]
    for (src, dst), count in sorted(demand.items()):
        for idx in range(count):
            value = inputs[src][(src, dst, idx)] = rng.getrandbits(
                _ROUTING_FRAME_SIZE
            )
            by_dest[dst].append((dst, src, dst, idx, value))
    # The summary of a run that delivered every frame where it belongs.
    delivered = tuple(chain.from_iterable(by_dest))

    def validate(summary) -> None:
        assert summary == delivered, "routing delivered wrong frames"

    return inputs, validate


def _summarize_routing(result: RunResult):
    delivered = []
    for node, frames in enumerate(result.outputs):
        for (src, dst, idx), value in sorted((frames or {}).items()):
            delivered.append((node, src, dst, idx, value))
    return tuple(delivered)


def _prepare_routing(n: int, graph: Graph, rng: random.Random) -> PreparedScenario:
    from repro.routing.lenzen import route_kernel_program, route_program
    from repro.routing.schedule import build_schedule

    frame_size = _ROUTING_FRAME_SIZE
    demand = _routing_demand(n, graph)
    schedule = build_schedule(demand, n)
    inputs, validate = _routing_instance(n, demand, rng)
    return PreparedScenario(
        network_kwargs=dict(n=n, bandwidth=frame_size, mode=Mode.UNICAST),
        programs={
            "generator": route_program(schedule, frame_size),
            "kernel": route_kernel_program(schedule, frame_size),
        },
        inputs=inputs,
        summarize=_summarize_routing,
        validate=validate,
    )


def _prepare_routing_many(
    n: int, graph: Graph, rng: random.Random
) -> PreparedScenario:
    """K payload batches routed through one schedule: the multi-instance
    twin of ``routing``.  The round structure is identical for every
    instance (it depends only on the demand pattern), so the cell is one
    ``run_many`` sweep over a single routing schedule — on the kernel
    engine one compiled schedule for all K instances, each round one
    ``K × count`` frame matrix."""
    from repro.routing.lenzen import route_kernel_program, route_program
    from repro.routing.schedule import build_schedule

    frame_size = _ROUTING_FRAME_SIZE
    demand = _routing_demand(n, graph)
    schedule = build_schedule(demand, n)
    instances: List[List[Dict[Any, int]]] = []
    validators: List[Callable[[Any], None]] = []
    for _k in range(ROUTING_MANY_INSTANCES):
        inputs, validate = _routing_instance(n, demand, rng)
        instances.append(inputs)
        validators.append(validate)

    def validate_instance(k: int, summary) -> None:
        validators[k](summary)

    return PreparedScenario(
        network_kwargs=dict(n=n, bandwidth=frame_size, mode=Mode.UNICAST),
        programs={
            "generator": route_program(schedule, frame_size),
            "kernel": route_kernel_program(schedule, frame_size),
        },
        inputs=None,
        summarize=_summarize_routing,
        instances=instances,
        validate_instance=validate_instance,
    )


#: The compiled Theorem 2 plan of each circuit family, for one n at a
#: time, with the programs prepared from it.  Theorem 2's simulation is
#: oblivious: the circuit, the gate assignment and every routing
#: schedule are fixed by the family and n, so every coordinate at that n
#: shares one plan, and only its inputs differ.  The scenario matrix
#: visits a protocol's coordinates size by size, so each family builds
#: its plan once per size.  Each family has its own slot because a
#: process prepares the two families in turn, each at its own n, again
#: and again: every pass of a perfbench ``local`` run prepares
#: ``triangle_mm`` at n=16 and then ``circuit_simulation`` at n=64, and
#: a single-size sweep repeated in one process re-prepares both.  One
#: slot for both families would rebuild both plans on every pass.  A
#: held plan is a pure function of (family, n) that no run writes to, so
#: sharing it across every caller in the process changes no result.
_HELD_PLANS: Dict[str, "_HeldPlan"] = {}


class _HeldPlan:
    """A held plan and the programs prepared from it, which share its
    lifetime: they go when the plan goes.  A program's round structure
    depends on the plan and n alone, so one program serves every
    coordinate of the size."""

    __slots__ = ("plan", "_programs")

    def __init__(self, plan) -> None:
        self.plan = plan
        self._programs: Dict[str, Dict[str, Any]] = {}

    @property
    def n(self) -> int:
        return self.plan.n

    def programs(self, protocol: str, build: Callable[[], Dict[str, Any]]):
        """``protocol``'s programs for this plan, built at the first
        call."""
        programs = self._programs.get(protocol)
        if programs is None:
            programs = self._programs[protocol] = build()
        return dict(programs)


def _held_plan(family: str, n: int, build: Callable[[int], Any]) -> _HeldPlan:
    """The compiled plan of circuit ``family`` at size ``n``, held with
    its programs: the held one when it is for ``n``, else ``build(n)``
    with its generator view compiled (so that no engine run pays for
    it; the kernel program built from the plan in the same prepare
    compiles the kernel form), held in its place."""
    held = _HELD_PLANS.get(family)
    if held is not None and held.n == n:
        return held
    # Let go of the other size's plan before building this one: at
    # n=128 the n=64 plan would otherwise stay alive through the build.
    del held
    _HELD_PLANS.pop(family, None)
    plan = build(n)
    plan.view()
    held = _HELD_PLANS[family] = _HeldPlan(plan)
    return held


def _threshold_parity_plan(n: int):
    from repro.circuits.builders import threshold_parity_circuit
    from repro.simulation.protocol import build_plan

    return build_plan(threshold_parity_circuit(n), n, None, None)


def _strassen_plan(n: int):
    from repro.circuits.arithmetic import matmul_circuit_strassen
    from repro.matmul.distributed import matmul_input_partition
    from repro.simulation.protocol import build_plan

    return build_plan(
        matmul_circuit_strassen(n), n, matmul_input_partition(n), None
    )


def _prepare_circuit(n: int, graph: Graph, rng: random.Random) -> PreparedScenario:
    from repro.simulation.kernel import make_kernel_program
    from repro.simulation.protocol import make_program

    # Input bit i: does the graph contain edge (i, i+1 mod n)?  The
    # instance family shows through the input vector while the circuit
    # (and hence the round structure) depends only on n.
    held = _held_plan("threshold_parity", n, _threshold_parity_plan)
    plan = held.plan
    circuit = plan.circuit
    input_values = [graph.has_edge(i, (i + 1) % n) for i in range(n)]
    expected = tuple(circuit.evaluate_outputs(input_values))
    partition = [i % n for i in range(circuit.num_inputs)]
    per_node: List[Dict[int, bool]] = [dict() for _ in range(n)]
    for position, gid in enumerate(circuit.input_ids):
        per_node[partition[position]][gid] = bool(input_values[position])
    output_ids = tuple(circuit.outputs)

    def summarize(result: RunResult):
        outputs: Dict[int, bool] = {}
        for node_output in result.outputs:
            if node_output:
                outputs.update(node_output)
        return tuple(bool(outputs[gid]) for gid in output_ids)

    def validate(summary) -> None:
        assert summary == expected, (
            f"circuit simulation disagreed with local evaluation: "
            f"{summary} != {expected}"
        )

    return PreparedScenario(
        network_kwargs=dict(n=n, bandwidth=plan.bandwidth, mode=Mode.UNICAST),
        programs=held.programs(
            "circuit_simulation",
            lambda: {
                "generator": make_program(plan),
                "kernel": make_kernel_program(plan),
            },
        ),
        inputs=per_node,
        summarize=summarize,
        validate=validate,
    )


def _prepare_triangle_mm(n: int, graph: Graph, rng: random.Random) -> PreparedScenario:
    from repro.graphs.generators import complete_graph
    from repro.graphs.subgraph_iso import contains_subgraph
    from repro.matmul.distributed import (
        output_schedule,
        triangle_mm_kernel_program,
        triangle_mm_program,
    )

    trials = 4
    held = _held_plan("strassen", n, _strassen_plan)
    plan = held.plan
    rows = [
        [1 if graph.has_edge(v, u) else 0 for u in range(n)] for v in range(n)
    ]
    has_triangle = contains_subgraph(graph, complete_graph(3))
    adjacency = {v: frozenset(graph.neighbors(v)) for v in range(n)}

    def programs():
        # Both forms route the outputs on one schedule.
        schedule = output_schedule(plan, n)
        return {
            "generator": triangle_mm_program(graph, plan, trials, schedule),
            "kernel": triangle_mm_kernel_program(graph, plan, trials, schedule),
        }

    def summarize(result: RunResult):
        outcome = result.outputs[0]
        witness = outcome.witness
        return (
            bool(outcome.found),
            None if witness is None else (int(witness[0]), int(witness[1])),
            int(outcome.trials),
        )

    def validate(summary) -> None:
        found, witness, _trials = summary
        # One-sided error: "found" answers are always correct (witness
        # edge closes a triangle), misses are possible but a triangle
        # can never be found in a triangle-free graph.
        if not has_triangle:
            assert not found, "triangle reported in a triangle-free graph"
        if found:
            assert witness is not None
            u, v = witness
            assert v in adjacency[u], "witness is not an edge"
            assert adjacency[u] & adjacency[v], "witness edge closes no triangle"

    return PreparedScenario(
        network_kwargs=dict(n=n, bandwidth=plan.bandwidth, mode=Mode.UNICAST),
        programs=held.programs("triangle_mm", programs),
        inputs=rows,
        summarize=summarize,
        validate=validate,
    )


def _prepare_subgraph_detection(
    n: int, graph: Graph, rng: random.Random
) -> PreparedScenario:
    from repro.graphs.generators import cycle_graph
    from repro.graphs.subgraph_iso import contains_subgraph
    from repro.subgraphs.detection import full_learning_program

    pattern = cycle_graph(4)
    bandwidth = 8
    expected = contains_subgraph(graph, pattern)
    inputs = [graph.neighbors(v) for v in range(n)]

    def summarize(result: RunResult):
        outcome = result.outputs[0]
        witness = outcome.witness
        return (
            bool(outcome.contains),
            None if witness is None else tuple(sorted(witness)),
        )

    def validate(summary) -> None:
        contains, _witness = summary
        assert contains == expected, (
            f"full-learning detection answered {contains}, truth {expected}"
        )

    return PreparedScenario(
        network_kwargs=dict(n=n, bandwidth=bandwidth, mode=Mode.BROADCAST),
        programs={"generator": full_learning_program(pattern)},
        inputs=inputs,
        summarize=summarize,
        validate=validate,
    )


def _prepare_mst(n: int, graph: Graph, rng: random.Random) -> PreparedScenario:
    from repro.graphs.graph import canonical_edge
    from repro.mst.boruvka import (
        WeightedGraph,
        boruvka_message_bits,
        boruvka_program,
        mst_reference,
    )

    weights = {
        canonical_edge(u, v): rng.randint(1, 63) for u, v in graph.edges()
    }
    wg = WeightedGraph(graph, weights)
    expected = tuple(sorted(mst_reference(wg)))

    def summarize(result: RunResult):
        return tuple(sorted(result.outputs[0]))

    def validate(summary) -> None:
        assert summary == expected, "Borůvka tree differs from Kruskal reference"

    return PreparedScenario(
        network_kwargs=dict(
            n=n, bandwidth=boruvka_message_bits(wg), mode=Mode.BROADCAST
        ),
        programs={"generator": boruvka_program(wg)},
        inputs=None,
        summarize=summarize,
        validate=validate,
    )


register_protocol(
    ProtocolSpec(
        name="routing",
        description="Lenzen-style frame routing of the graph's edge demand",
        engines=("legacy", "kernel"),
        prepare=_prepare_routing,
        # 16-bit frames regardless of n: the demand pattern scales, the
        # word size does not.
        bandwidth_budget=BandwidthBudget(flat=16),
    )
)
register_protocol(
    ProtocolSpec(
        name="routing_many",
        description="K-instance Lenzen routing through one routing schedule",
        engines=("legacy", "kernel"),
        prepare=_prepare_routing_many,
        # Same word size as ``routing``: K scales the instance count,
        # never the frame width.
        bandwidth_budget=BandwidthBudget(flat=16),
    )
)
register_protocol(
    ProtocolSpec(
        name="circuit_simulation",
        description="Theorem 2 simulation of a threshold/parity circuit",
        engines=("legacy", "kernel"),
        prepare=_prepare_circuit,
        # The Theorem 2 simulation ships O(log n)-bit words; the
        # threshold/parity plan's measured width is 2 bits at every
        # tested n, so 2·⌈log n⌉ holds with room.
        bandwidth_budget=BandwidthBudget(log_coeff=2),
    )
)
register_protocol(
    ProtocolSpec(
        name="triangle_mm",
        description="Section 2.1 matmul-circuit triangle detection",
        engines=("legacy", "kernel"),
        prepare=_prepare_triangle_mm,
        # The Strassen matmul plan's word size carries a log² factor
        # (per-level pointer encodings in the simulated circuit); 16·L²
        # bounds every measured size with the tightest margin at n=20.
        bandwidth_budget=BandwidthBudget(log_sq_coeff=16),
    )
)
register_protocol(
    ProtocolSpec(
        name="subgraph_detection",
        description="full-learning C4 detection on the blackboard",
        engines=("legacy",),
        prepare=_prepare_subgraph_detection,
        # Full-learning broadcasts adjacency rows in fixed 8-bit
        # blackboard words; the chunk count scales with n, the width
        # does not.
        bandwidth_budget=BandwidthBudget(flat=8),
    )
)
register_protocol(
    ProtocolSpec(
        name="mst",
        description="Borůvka minimum spanning forest on CLIQUE-BCAST",
        engines=("legacy",),
        prepare=_prepare_mst,
        # A Borůvka announcement is (edge, weight): two node ids plus a
        # 6-bit weight and framing — measured exactly 2·⌈log n⌉ + 7,
        # budgeted with two spare bits.
        bandwidth_budget=BandwidthBudget(log_coeff=2, flat=9),
    )
)
