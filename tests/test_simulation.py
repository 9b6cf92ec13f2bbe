"""Theorem 2: the circuit simulation on CLIQUE-UCAST.

The two load-bearing claims:
  (1) correctness — distributed evaluation equals direct evaluation for
      arbitrary circuits, inputs, and input partitions;
  (2) round complexity — rounds grow linearly with circuit *depth* (not
      size), at bandwidth O(b + s).
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import builders
from repro.circuits.circuit import GATE_KIND, Circuit
from repro.circuits.gates import AND, OR, XOR
from repro.core.errors import SimulationPlanError
from repro.core.faults import FaultPlan
from repro.core.network import Network
from repro.graphs.generators import random_graph
from repro.simulation import (
    assign_gates,
    build_plan,
    make_program,
    simulate_circuit,
    simulate_circuit_many,
)
from repro.simulation.kernel import KernelPlan
from repro.simulation.protocol import PlanView


def check_equivalence(circuit, n, inputs, **kwargs):
    outputs, result, plan = simulate_circuit(circuit, n, inputs, **kwargs)
    direct = circuit.evaluate(inputs)
    for gid in circuit.outputs:
        assert outputs[gid] == direct[gid], f"gate {gid} differs"
    return result, plan


class TestAssignment:
    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_invariants(self, n):
        rng = random.Random(n)
        circuit = builders.random_layered_circuit(10, 4, 8, rng)
        assignment = assign_gates(circuit, n)
        # every gate owned, owners in range
        assert len(assignment.owner) == len(circuit)
        assert all(0 <= p < n for p in assignment.owner)
        # at most one heavy gate per player
        heavy_owners = [assignment.owner[g] for g in assignment.heavy]
        assert len(heavy_owners) == len(set(heavy_owners))
        # light loads within capacity
        assert all(load <= assignment.capacity for load in assignment.light_load)

    def test_heavy_gate_classification(self):
        circuit = builders.majority_circuit(64)  # one gate of weight 65
        assignment = assign_gates(circuit, 4)
        s = assignment.s_param
        for node in circuit.nodes:
            gid = node.gate_id
            if node.kind == "gate":
                expected_heavy = circuit.weight(gid) >= 2 * 4 * s
                assert (gid in assignment.heavy) == expected_heavy

    def test_const_gates_weightless(self):
        circuit = Circuit()
        const = circuit.add_const(True)
        x = circuit.add_input()
        g = circuit.add_gate(AND, [const, x])
        circuit.mark_output(g)
        assignment = assign_gates(circuit, 2)
        assert const not in assignment.heavy


class TestCorrectness:
    @pytest.mark.parametrize("fan_in", [2, 4])
    @pytest.mark.parametrize("n", [4, 8])
    def test_parity_tree(self, n, fan_in):
        circuit = builders.parity_tree(24, fan_in)
        rng = random.Random(7)
        for _ in range(3):
            xs = [rng.random() < 0.5 for _ in range(24)]
            check_equivalence(circuit, n, xs)

    def test_majority_single_heavy_gate(self):
        circuit = builders.majority_circuit(32)
        rng = random.Random(1)
        for _ in range(4):
            xs = [rng.random() < 0.5 for _ in range(32)]
            check_equivalence(circuit, 8, xs)

    def test_threshold_parity(self):
        circuit = builders.threshold_parity_circuit(12)
        rng = random.Random(2)
        for _ in range(3):
            xs = [rng.random() < 0.5 for _ in range(12)]
            check_equivalence(circuit, 6, xs)

    def test_inner_product(self):
        circuit = builders.inner_product_circuit(10)
        rng = random.Random(3)
        for _ in range(3):
            xs = [rng.random() < 0.5 for _ in range(20)]
            check_equivalence(circuit, 5, xs)

    def test_mod_tree(self):
        circuit = builders.mod_tree(27, 3, 3)
        rng = random.Random(4)
        for _ in range(3):
            xs = [rng.random() < 0.5 for _ in range(27)]
            check_equivalence(circuit, 9, xs)

    @given(
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=2, max_value=8),
    )
    @settings(max_examples=25)
    def test_random_circuits(self, seed, n):
        rng = random.Random(seed)
        circuit = builders.random_layered_circuit(
            8, depth=rng.randint(1, 4), width=rng.randint(2, 6), rng=rng
        )
        xs = [rng.random() < 0.5 for _ in range(8)]
        check_equivalence(circuit, n, xs)

    def test_custom_input_partition(self):
        circuit = builders.parity_tree(12, 3)
        rng = random.Random(5)
        xs = [rng.random() < 0.5 for _ in range(12)]
        # all inputs start at player 0 (maximally unbalanced)
        check_equivalence(circuit, 4, xs, input_partition=[0] * 12)
        # round-robin
        check_equivalence(circuit, 4, xs, input_partition=[i % 4 for i in range(12)])

    def test_bandwidth_override(self):
        circuit = builders.parity_tree(16, 4)
        rng = random.Random(6)
        xs = [rng.random() < 0.5 for _ in range(16)]
        result, plan = check_equivalence(circuit, 4, xs, bandwidth=2)
        assert plan.bandwidth == 2

    def test_single_output_const_circuit(self):
        circuit = Circuit()
        t = circuit.add_const(True)
        x = circuit.add_input()
        g = circuit.add_gate(OR, [t, x])
        circuit.mark_output(g)
        outputs, _result, _plan = simulate_circuit(circuit, 2, [False])
        assert outputs[g] is True

    def test_multi_output(self):
        circuit = Circuit()
        xs = circuit.add_inputs(6)
        for i in range(5):
            circuit.mark_output(circuit.add_gate(XOR, [xs[i], xs[i + 1]]))
        rng = random.Random(8)
        values = [rng.random() < 0.5 for _ in range(6)]
        check_equivalence(circuit, 3, values)

    @pytest.mark.parametrize("kernel", [False, True])
    @pytest.mark.parametrize("count", [2, 4])
    def test_wrong_input_count_rejected(self, kernel, count):
        """A short or long input vector is rejected up front with
        ``Circuit.evaluate``'s wording, on both execution paths."""
        circuit = builders.parity_tree(3, 3)
        with pytest.raises(ValueError, match=f"expected 3 inputs, got {count}"):
            simulate_circuit(circuit, 2, [True] * count, kernel=kernel)
        with pytest.raises(ValueError, match=f"expected 3 inputs, got {count}"):
            simulate_circuit_many(
                circuit, 2, [[True] * 3, [True] * count], kernel=kernel
            )


class TestRoundComplexity:
    def test_rounds_track_depth_not_size(self):
        """Theorem 2's headline: rounds = O(D).  Compare two circuits of
        equal size but different depth."""
        n = 8
        rng = random.Random(11)
        shallow = builders.parity_tree(64, 8)   # depth 2
        deep = builders.parity_tree(64, 2)      # depth 6
        xs = [rng.random() < 0.5 for _ in range(64)]
        _, res_shallow, _ = simulate_circuit(shallow, n, xs)
        _, res_deep, _ = simulate_circuit(deep, n, xs)
        assert res_shallow.rounds < res_deep.rounds

    @pytest.mark.parametrize("depth", [1, 2, 4, 6])
    def test_rounds_linear_in_depth(self, depth):
        n = 6
        rng = random.Random(depth)
        circuit = builders.random_layered_circuit(12, depth, 6, rng)
        xs = [rng.random() < 0.5 for _ in range(12)]
        _, result, _plan = simulate_circuit(circuit, n, xs)
        assert result.rounds <= 6 * (circuit.depth() + 2)

    def test_bandwidth_is_o_of_b_plus_s(self):
        """The plan's bandwidth never exceeds max(separability, s)."""
        circuit = builders.majority_circuit(64)
        plan = build_plan(circuit, 8)
        s = plan.assignment.s_param
        max_sep = circuit.max_summary_width()
        assert plan.bandwidth <= max(max_sep, s)

    def test_plan_reuse(self):
        circuit = builders.parity_tree(16, 4)
        plan = build_plan(circuit, 4)
        rng = random.Random(12)
        for _ in range(3):
            xs = [rng.random() < 0.5 for _ in range(16)]
            outputs, _, _ = simulate_circuit(circuit, 4, xs, plan=plan)
            assert [outputs[g] for g in circuit.outputs] == circuit.evaluate_outputs(xs)


def _matmul_plan(size):
    from repro.circuits.arithmetic import matmul_circuit_naive
    from repro.matmul.distributed import matmul_input_partition

    return build_plan(matmul_circuit_naive(size), size, matmul_input_partition(size))


def _graph(size):
    return random_graph(size, 0.5, random.Random(size))


def _simulate(plan_n, n, kernel):
    circuit = builders.parity_tree(16, 4)
    plan = build_plan(circuit, plan_n)
    return simulate_circuit(circuit, n, [False] * 16, plan=plan, kernel=kernel)


def _detect(plan_n, n, kernel):
    from repro.matmul.distributed import detect_triangle_mm

    return detect_triangle_mm(_graph(n), plan=_matmul_plan(plan_n), kernel=kernel)


def _detect_many(plan_n, n, kernel):
    from repro.matmul.distributed import detect_triangle_mm_many

    graphs = [_graph(n), _graph(n)]
    return detect_triangle_mm_many(graphs, plan=_matmul_plan(plan_n), kernel=kernel)


def _program(plan_n, n, kernel):
    from repro.matmul.distributed import (
        triangle_mm_kernel_program,
        triangle_mm_program,
    )

    build = triangle_mm_kernel_program if kernel else triangle_mm_program
    return build(_graph(n), _matmul_plan(plan_n), 2)


@pytest.mark.parametrize("kernel", [False, True], ids=["generator", "kernel"])
@pytest.mark.parametrize(
    "call, plan_n, n",
    [
        (_simulate, 6, 8),
        (_detect, 6, 8),
        (_detect, 8, 6),
        (_detect_many, 6, 8),
        (_program, 6, 8),
    ],
    ids=["simulate", "detect", "detect-smaller-graph", "detect-many", "program"],
)
def test_plan_for_another_n_is_refused(call, plan_n, n, kernel):
    """A plan built for another number of players is refused up front,
    naming both sizes, on both execution paths."""
    with pytest.raises(
        ValueError, match=f"plan is for n={plan_n} players, not n={n}"
    ):
        call(plan_n, n, kernel)


class TestPlanView:
    """The per-player view :func:`execute_plan` runs: compiled once per
    plan, checked when it compiles, invisible in the plan's identity."""

    def plan(self, n=4):
        circuit = builders.random_layered_circuit(12, 4, 10, random.Random(5))
        return circuit, build_plan(circuit, n)

    def per_node_inputs(self, circuit, n, xs):
        per_node = [dict() for _ in range(n)]
        for position, gid in enumerate(circuit.input_ids):
            per_node[position % n][gid] = xs[position]
        return per_node

    @pytest.mark.parametrize("engine", ["legacy"])
    def test_missing_input_is_named(self, engine):
        circuit, plan = self.plan()
        inputs = self.per_node_inputs(circuit, 4, [True] * circuit.num_inputs)
        missing = next(iter(inputs[1]))
        del inputs[1][missing]
        network = Network(n=4, bandwidth=plan.bandwidth, engine=engine)
        with pytest.raises(SimulationPlanError, match="lacks input") as info:
            network.run(make_program(plan), inputs=inputs)
        assert (info.value.player, info.value.gate) == (1, missing)

    @pytest.mark.parametrize("engine", ["legacy"])
    def test_dropped_push_is_named(self, engine):
        # Input 0 feeds 16 gates, so it is heavy and pushed to the other
        # players in the round after the input redistribution.  Every
        # input is False, so a dropped push read as 0 would still give
        # the right outputs: the run must fail instead.
        circuit = Circuit()
        xs = circuit.add_inputs(8)
        for i in range(16):
            circuit.mark_output(circuit.add_gate(AND, [xs[0], xs[1 + i % 7]]))
        plan = build_plan(circuit, 4)
        (src, dst), gid = next(iter(plan.layer0_push_recv.items()))
        push_round = plan.input_schedule.num_rounds + 1
        network = Network(
            n=4,
            bandwidth=plan.bandwidth,
            engine=engine,
            fault_plan=FaultPlan(triggers={(push_round, src, dst): "drop"}),
        )
        inputs = self.per_node_inputs(circuit, 4, [False] * circuit.num_inputs)
        with pytest.raises(SimulationPlanError, match="never received") as info:
            network.run(make_program(plan), inputs=inputs)
        assert (info.value.player, info.value.gate) == (dst, gid)

    def test_unlearned_wire_fails_at_compile(self):
        circuit, plan = self.plan()
        broken = copy.deepcopy(plan)
        # The first routed gate value (earlier layers route inputs only),
        # so its receiver cannot have learned it another way.
        lp, pair, gid = next(
            (lp, pair, gid)
            for lp in broken.layer_plans
            for pair, gids in sorted(lp.light_order.items())
            for gid in gids
            if circuit.node(gid).kind == GATE_KIND
        )
        lp.light_order[pair].remove(gid)
        with pytest.raises(SimulationPlanError, match="before it learns") as info:
            PlanView(broken)
        assert (info.value.player, info.value.gate) == (pair[1], gid)
        with pytest.raises(SimulationPlanError):
            simulate_circuit(circuit, 4, [False] * circuit.num_inputs, plan=broken)

    def test_view_stays_out_of_plan_identity(self):
        circuit, plan = self.plan()
        before = pickle.dumps(plan)
        check_equivalence(circuit, 4, [True] * circuit.num_inputs, plan=plan)
        check_equivalence(
            circuit, 4, [True] * circuit.num_inputs, plan=plan, kernel=True
        )
        assert isinstance(plan.view(), PlanView)
        assert isinstance(plan.kernel_plan(), KernelPlan)
        assert pickle.dumps(plan) == before
        assert plan == dataclasses.replace(plan)
        restored = pickle.loads(pickle.dumps(plan)).__dict__
        assert "_view" not in restored
        assert "_kernel_plan" not in restored

    @pytest.mark.parametrize("family", ["strassen", "threshold_parity"])
    def test_plan_equals_its_round_trips(self, family):
        """A compiled plan equals its pickle and deepcopy round trips;
        the view and kernel-plan caches stay out of both."""
        from repro.scenarios.registry import _strassen_plan, _threshold_parity_plan

        plan = _strassen_plan(16) if family == "strassen" else _threshold_parity_plan(8)
        plan.view()
        plan.kernel_plan()
        for copied in (pickle.loads(pickle.dumps(plan)), copy.deepcopy(plan)):
            assert copied == plan
            assert "_view" not in copied.__dict__
            assert "_kernel_plan" not in copied.__dict__

    def test_one_kernel_plan_serves_every_program(self, monkeypatch):
        from repro.simulation.kernel import make_kernel_program

        circuit, plan = self.plan()
        compiled = plan.kernel_plan()
        monkeypatch.setattr(
            KernelPlan, "__init__", lambda *args: pytest.fail("recompiled")
        )
        make_kernel_program(plan)
        check_equivalence(
            circuit, 4, [False] * circuit.num_inputs, plan=plan, kernel=True
        )
        assert plan.kernel_plan() is compiled

    def test_one_view_serves_every_engine_and_trial(self, monkeypatch):
        from repro.matmul.distributed import detect_triangle_mm

        built = []
        compile_view = PlanView.__init__

        def counting(view, plan):
            built.append(plan)
            compile_view(view, plan)

        monkeypatch.setattr(PlanView, "__init__", counting)
        graph = random_graph(8, 0.5, random.Random(2))
        _, _, plan = detect_triangle_mm(graph, trials=4)
        view = plan.view()
        detect_triangle_mm(graph, trials=4, plan=plan, seed=1)
        detect_triangle_mm(graph, trials=4, plan=plan, kernel=True)
        assert plan.view() is view
        assert built == [plan]


def _plain(value):
    """``value`` as plain ints, bools, strings and tuples; a dict as its
    ``(key, value)`` items in insertion order, a set sorted."""
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if value is None or isinstance(value, str):
        return value
    if isinstance(value, dict):
        return tuple((_plain(k), _plain(v)) for k, v in value.items())
    if isinstance(value, (set, frozenset)):
        return tuple(sorted(_plain(v) for v in value))
    return tuple(_plain(v) for v in value)


def _gate_params(gate):
    if gate is None:
        return None
    return (
        type(gate).__name__,
        repr(gate),
        getattr(gate, "threshold", None),
        getattr(gate, "weights", None),
        getattr(gate, "modulus", None),
    )


def _schedule_dump(schedule):
    if schedule is None:
        return None
    return (schedule.n, schedule.num_rounds, schedule.send_plan, schedule.recv_plan)


def _plan_dump(plan):
    circuit = plan.circuit
    assignment = plan.assignment
    return _plain(
        (
            [
                (
                    node.gate_id,
                    node.kind,
                    _gate_params(node.gate),
                    node.inputs,
                    node.const_value,
                    node.input_index,
                )
                for node in circuit.nodes
            ],
            circuit.outputs,
            circuit.input_ids,
            (
                assignment.owner,
                sorted(assignment.heavy),
                assignment.s_param,
                assignment.heavy_threshold,
                assignment.capacity,
                assignment.light_load,
            ),
            plan.n,
            plan.bandwidth,
            plan.input_order,
            plan.input_lengths,
            _schedule_dump(plan.input_schedule),
            plan.layer0_push_recv,
            [
                (
                    lp.layer_index,
                    lp.heavy_gates,
                    lp.summary_senders,
                    lp.summary_local,
                    lp.has_summary_round,
                    lp.push_recv,
                    lp.light_order,
                    lp.light_lengths,
                    _schedule_dump(lp.light_schedule),
                    lp.light_owned,
                )
                for lp in plan.layer_plans
            ],
        )
    )


def _pinned_plan(case):
    from repro.circuits.arithmetic import (
        matmul_circuit_naive,
        matmul_circuit_strassen,
    )
    from repro.matmul.distributed import matmul_input_partition

    family, n = case
    if family == "threshold_parity":
        return build_plan(builders.threshold_parity_circuit(n), n)
    if family == "strassen":
        return build_plan(matmul_circuit_strassen(n), n, matmul_input_partition(n))
    if family == "naive":
        return build_plan(matmul_circuit_naive(n), n, matmul_input_partition(n))
    if family == "cc_parity":
        return build_plan(builders.cc_parity_circuit(n), n)
    circuit = builders.random_layered_circuit(12, 5, 10, random.Random(n))
    return build_plan(circuit, n)


#: sha256 (first 16 hex digits) of each plan's :func:`_plan_dump`.
PLAN_DIGESTS = {
    ("cc_parity", 8): "4e13f597f7683bcb",
    ("naive", 4): "6ea754b7ca117f18",
    ("random_layered", 4): "0d7fce400d6e1a29",
    ("random_layered", 8): "c9aa928622c44e55",
    ("strassen", 4): "8081e190c7237934",
    ("strassen", 6): "18b7b98c85c24fca",
    ("strassen", 8): "c96e850a327679bf",
    ("strassen", 16): "dfe80bb6ff6cdaf6",
    ("threshold_parity", 6): "5382bb312cbbab4c",
    ("threshold_parity", 8): "364582acad427998",
    ("threshold_parity", 64): "1f95af92bfb3ada8",
}


@pytest.mark.parametrize(
    "case", sorted(PLAN_DIGESTS), ids=lambda case: f"{case[0]}-{case[1]}"
)
def test_plan_content_is_pinned(case):
    """A plan's whole content — circuit, assignment, orders, lengths and
    schedules, with every dict in insertion order — hashes to the digest
    pinned when the plan was built one Python object per gate."""
    dump = repr(_plan_dump(_pinned_plan(case))).encode()
    assert hashlib.sha256(dump).hexdigest()[:16] == PLAN_DIGESTS[case]
