"""The per-run shared memo (``Context.memo``).

Its contract makes sharing invisible: a node reads back exactly what it
would have computed itself.  These tests pin that against the same runs
with one private memo per node, clean and under receive-side faults,
and pin the memo's scope to one run.
"""

from __future__ import annotations

import random

import pytest

from repro.core.engine import legacy
from repro.core.errors import DecodeError, ReproError
from repro.core.faults import FaultPlan
from repro.core.network import Mode, Network, Outbox
from repro.graphs.generators import cycle_graph, random_graph
from repro.graphs.graph import canonical_edge
from repro.mst.boruvka import WeightedGraph, boruvka_message_bits, boruvka_program
from repro.routing.sorting import _adapt_broadcast, sort_protocol
from repro.subgraphs.adaptive import adaptive_program
from repro.subgraphs.detection import detection_program, full_learning_program

ENGINES = ("legacy",)
# Corrupt+drop plans at two strengths: the strong ones mostly break the
# protocols (with the same exception either way), the weak ones mostly
# let them finish on corrupted frames.
CHAOS = [
    FaultPlan(seed=seed, corrupt_rate=corrupt, drop_rate=drop)
    for seed in range(4)
    for corrupt, drop in ((0.03, 0.01), (0.002, 0.001))
]


def _mst_case(n, rng):
    graph = random_graph(n, 0.4, rng)
    weights = {canonical_edge(u, v): rng.randint(1, 31) for u, v in graph.edges()}
    wg = WeightedGraph(graph, weights)
    net = dict(n=n, bandwidth=boruvka_message_bits(wg), mode=Mode.BROADCAST)
    return net, boruvka_program(wg), None


def _full_learning_case(n, rng):
    graph = random_graph(n, 0.3, rng)
    net = dict(n=n, bandwidth=8, mode=Mode.BROADCAST)
    inputs = [graph.neighbors(v) for v in range(n)]
    return net, full_learning_program(cycle_graph(4)), inputs


def _theorem7_case(n, rng):
    graph = random_graph(n, 0.2, rng)
    net = dict(n=n, bandwidth=16, mode=Mode.BROADCAST)
    inputs = [sorted(graph.neighbors(v)) for v in range(n)]
    return net, detection_program(cycle_graph(4)), inputs


def _adaptive_case(n, rng):
    graph = random_graph(n, 0.2, rng)
    net = dict(n=n, bandwidth=16, mode=Mode.BROADCAST)
    inputs = [sorted(graph.neighbors(v)) for v in range(n)]
    return net, adaptive_program(cycle_graph(3)), inputs


def _sorting_case(n, rng):
    keys, key_bits = 3, 8
    inputs = [[rng.randrange(1 << key_bits) for _ in range(keys)] for _ in range(n)]

    def program(ctx):
        return (yield from _adapt_broadcast(ctx, sort_protocol(keys, key_bits)))

    return dict(n=n, bandwidth=8, mode=Mode.UNICAST), program, inputs


CASES = {
    "mst": _mst_case,
    "subgraph_detection": _full_learning_case,
    "detect_subgraph": _theorem7_case,
    "adaptive_detect": _adaptive_case,
    "sorting": _sorting_case,
}


def _private_memos(monkeypatch):
    """Give every node context its own memo, so nothing is shared."""
    make = Network._make_contexts

    def private(self, inputs):
        contexts = make(self, inputs)
        for ctx in contexts:
            ctx.memo = {}
        return contexts

    monkeypatch.setattr(Network, "_make_contexts", private)


def _outcome(net_kwargs, engine, plan, program, inputs):
    network = Network(engine=engine, seed=3, fault_plan=plan, **net_kwargs)
    try:
        return network.run(program, inputs=inputs)
    except Exception as exc:  # noqa: BLE001 - both layouts must fail alike
        return type(exc).__name__, str(exc)


class TestMemoExactness:
    """Shared and private memos give equal ``RunResult``s (outputs,
    rounds, bits, fault events, fallbacks) or the same exception."""

    @pytest.mark.parametrize("faulty", [False, True], ids=["clean", "chaos"])
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_shared_equals_private(self, monkeypatch, case, engine, faulty):
        if faulty:
            runs = list(enumerate(CHAOS))
        else:
            runs = [(seed, None) for seed in range(3)]
        hit = False
        for seed, plan in runs:
            net_kwargs, program, inputs = CASES[case](12, random.Random(seed))
            shared = _outcome(net_kwargs, engine, plan, program, inputs)
            with monkeypatch.context() as patch:
                _private_memos(patch)
                private = _outcome(net_kwargs, engine, plan, program, inputs)
            assert shared == private, (case, engine, seed, plan)
            hit = hit or isinstance(shared, tuple) or bool(shared.faults)
        assert hit == faulty, "a chaos plan must inject, a clean run must not"


class TestMemoScope:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_one_memo_per_run(self, monkeypatch, engine):
        runs = []
        make = Network._make_contexts

        def capture(self, inputs):
            contexts = make(self, inputs)
            runs.append(contexts)
            return contexts

        monkeypatch.setattr(Network, "_make_contexts", capture)
        net_kwargs, program, inputs = _mst_case(10, random.Random(0))
        network = Network(engine=engine, **net_kwargs)
        network.run(program, inputs=inputs)
        first = runs[0][0].memo
        assert first, "Borůvka stored nothing in the run's memo"
        assert all(ctx.memo is first for ctx in runs[0])
        network.run(program, inputs=inputs)
        assert len(runs) == 2
        assert all(ctx.memo is not first for ctx in runs[1])

    @pytest.mark.parametrize("engine", ENGINES)
    def test_each_run_starts_empty(self, engine):
        def probe(ctx):
            # Nodes start in id order, so node v finds v entries.
            seen = len(ctx.memo)
            ctx.memo[("probe", ctx.node_id)] = ctx.node_id
            yield Outbox.silent()
            return seen

        network = Network(n=4, bandwidth=1, engine=engine)
        assert network.run(probe).outputs == [0, 1, 2, 3]
        assert network.run(probe).outputs == [0, 1, 2, 3]
        runs = network.run_many(probe, [None, None])
        assert [run.outputs for run in runs] == [[0, 1, 2, 3]] * 2


def _lost_row_case(program, row, bandwidth):
    """16 nodes on a gnp graph, each holding its adjacency row."""
    graph = random_graph(16, 0.3, random.Random(3))
    net = dict(n=16, bandwidth=bandwidth, mode=Mode.BROADCAST)
    inputs = [row(graph.neighbors(v)) for v in range(16)]
    return net, program(cycle_graph(4)), inputs


class TestLostWriter:
    """A dropped or corrupted blackboard message is a protocol failure
    the run reports itself: a ``DecodeError`` naming the writer, not a
    bare ``KeyError`` or ``IndexError``, and nothing runs the program a
    second time."""

    @pytest.mark.parametrize(
        "case, seed, plan, match",
        [
            (
                lambda: _lost_row_case(full_learning_program, set, 8),
                1, FaultPlan(seed=5, drop_rate=0.05),
                "adjacency row from writer 8",
            ),
            (
                lambda: _lost_row_case(detection_program, sorted, 16),
                1, FaultPlan(seed=0, drop_rate=0.05),
                "message from writer 1",
            ),
            (
                lambda: _mst_case(12, random.Random(4)),
                3, FaultPlan(seed=2, corrupt_rate=0.03, drop_rate=0.01),
                r"writer 10 proposed edge \(14, 1\)",
            ),
            (
                lambda: _adaptive_case(8, random.Random(2)),
                3, FaultPlan(seed=0, drop_rate=0.02),
                "no label from writer 1",
            ),
            (
                lambda: _sorting_case(8, random.Random(0)),
                3, FaultPlan(seed=0, corrupt_rate=0.03, drop_rate=0.01),
                "from node 7 in routing round 1",
            ),
        ],
        ids=["full_learning", "theorem7", "mst", "adaptive_detect", "sorting"],
    )
    def test_run_raises_once_naming_the_writer(
        self, monkeypatch, case, seed, plan, match
    ):
        calls = []
        legacy_run_many = legacy.run_many

        def counting_run_many(*args, **kwargs):
            calls.append("legacy")
            return legacy_run_many(*args, **kwargs)

        monkeypatch.setattr(legacy, "run_many", counting_run_many)
        net_kwargs, program, inputs = case()
        network = Network(seed=seed, fault_plan=plan, **net_kwargs)
        with pytest.raises(DecodeError, match=match):
            network.run(program, inputs=inputs)
        assert calls == ["legacy"]


#: The chaos plans plus drop-only plans, which lose whole messages
#: without corrupting the rest.
SWEEP_PLANS = CHAOS + [FaultPlan(seed=seed, drop_rate=0.02) for seed in range(8)]


class TestChaosFailures:
    """Under corrupt and drop plans a protocol may fail, but only with a
    ``ReproError``: any other exception reads as a bug in the engine or
    the program, and a sweep cell records it as one."""

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("case", ["mst", "adaptive_detect", "sorting"])
    def test_failures_are_repro_errors(self, case, engine):
        bare = []
        for n in (8, 12, 16):
            for i, plan in enumerate(SWEEP_PLANS):
                net_kwargs, program, inputs = CASES[case](n, random.Random(i))
                network = Network(
                    engine=engine, seed=3, fault_plan=plan, **net_kwargs
                )
                try:
                    network.run(program, inputs=inputs)
                except ReproError:
                    pass
                except Exception as exc:  # noqa: BLE001 - collected below
                    bare.append((n, i, f"{type(exc).__name__}: {exc}"))
        assert bare == []
