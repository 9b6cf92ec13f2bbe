"""The scenario layer: protocol registry, graph families, the matrix
runner's cross-engine reference check, and the CLI's argument checks."""

import json
import random

import pytest

from repro.analysis.budget import BandwidthBudget, check_prepared
from repro.scenarios import (
    FAMILIES,
    PROTOCOLS,
    GraphFamily,
    ProtocolSpec,
    ScenarioMatrix,
    capability_matrix,
    family_names,
    get_family,
    get_protocol,
    protocol_names,
    register_family,
    register_protocol,
)

SMOKE_SIZES = [8]
SMOKE_FAMILIES = ["gnp", "cycle"]


def _with_seed(prepared):
    prepared.network_kwargs["seed"] = 1234
    return prepared


class TestRegistries:
    def test_builtin_protocols_present(self):
        assert {
            "routing",
            "circuit_simulation",
            "triangle_mm",
            "subgraph_detection",
            "mst",
        } <= set(protocol_names())

    def test_builtin_families_present(self):
        assert {"gnp", "sparse", "complete", "cycle", "bipartite"} <= set(
            family_names()
        )

    def test_unknown_names_raise(self):
        with pytest.raises(KeyError, match="unknown protocol"):
            get_protocol("sorting-networks")
        with pytest.raises(KeyError, match="unknown graph family"):
            get_family("hypercube")

    def test_family_builders_are_seed_deterministic(self):
        for name in family_names():
            family = get_family(name)
            g1 = family.build(10, random.Random("x"))
            g2 = family.build(10, random.Random("x"))
            assert g1.n == g2.n == 10
            assert sorted(g1.edges()) == sorted(g2.edges())

    def test_capability_matrix_shape(self):
        matrix = capability_matrix()
        for name, spec in PROTOCOLS.items():
            assert set(matrix[name]) == {"legacy", "fast", "kernel"}
            for engine in spec.engines:
                assert matrix[name][engine]
        # Every protocol must run on the reference engine.
        assert all(row["legacy"] for row in matrix.values())

    def test_registration_is_open(self):
        family = GraphFamily("empty-test", "edgeless", lambda n, rng: get_family("cycle").build(n, rng))
        register_family(family)
        try:
            assert get_family("empty-test") is family
        finally:
            del FAMILIES["empty-test"]

    def test_routing_many_declares_instances(self):
        from repro.scenarios.matrix import instance_graph
        from repro.scenarios.registry import ROUTING_MANY_INSTANCES

        spec = get_protocol("routing_many")
        graph = instance_graph(0, spec.name, "gnp", 8)
        prepared = spec.prepare(8, graph, random.Random(0))
        assert prepared.instances is not None
        assert len(prepared.instances) == ROUTING_MANY_INSTANCES
        # The instances carry every input; nothing reads ``inputs``.
        assert prepared.inputs is None
        assert prepared.validate_instance is not None

    def test_prepared_scenarios_declare_kernel_flavour_consistently(
        self, monkeypatch
    ):
        # Each spec prepares exactly the program flavours its engines
        # run (no engine is left unclaimed while its flavour is
        # prepared) within its bandwidth budget, from prepare alone.
        from repro.core.network import Network

        def no_run(*args, **kwargs):
            raise AssertionError("a registry check ran a protocol")

        monkeypatch.setattr(Network, "run", no_run)
        monkeypatch.setattr(Network, "run_many", no_run)
        rng = random.Random(0)
        for n in (6, 8):
            for name in protocol_names():
                spec = get_protocol(name)
                graph = get_family("gnp").build(n, random.Random(name))
                prepared = spec.prepare(n, graph, rng)
                assert set(prepared.programs) == {
                    spec.program_for(engine) for engine in spec.engines
                }, name
                budget = check_prepared(spec.bandwidth_budget, n, prepared)
                assert budget.ok, budget.detail
                assert spec.program_for("kernel") == "kernel"
                assert spec.program_for("fast") == "generator"


class TestScenarioMatrix:
    def test_full_smoke_sweep_matches_legacy_reference(self):
        matrix = ScenarioMatrix(
            protocols=protocol_names(),
            families=SMOKE_FAMILIES,
            sizes=SMOKE_SIZES,
            seed=11,
        )
        result = matrix.run()
        expected_cells = len(PROTOCOLS) * len(SMOKE_FAMILIES) * len(SMOKE_SIZES) * 3
        assert len(result.cells) == expected_cells
        assert not result.mismatches()
        ok = result.ok_cells()
        # Every supported cell ran, validated, and matched the legacy
        # reference digest.
        for cell in ok:
            assert cell.validated is True
            assert cell.matches_reference is True
            assert cell.rounds >= 1
            assert cell.total_bits >= 0
            assert cell.seconds >= 0
        # Unsupported combinations are recorded, not skipped.
        unsupported = [c for c in result.cells if c.status == "unsupported"]
        assert all(c.engine == "kernel" for c in unsupported)
        assert {c.protocol for c in unsupported} == {"subgraph_detection", "mst"}

    def test_json_round_trip(self, tmp_path):
        matrix = ScenarioMatrix(
            protocols=["mst"], families=["cycle"], sizes=[6], seed=3,
            engines=["legacy", "fast"],
        )
        result = matrix.run()
        path = tmp_path / "matrix.json"
        result.write(str(path))
        loaded = json.loads(path.read_text())
        assert loaded["meta"]["protocols"] == ["mst"]
        assert loaded["meta"]["reference_engine"] == "legacy"
        assert len(loaded["cells"]) == 2
        for cell in loaded["cells"]:
            assert cell["status"] == "ok"
            assert cell["matches_reference"] is True

    def test_cells_are_reproducible_across_runs(self):
        def digests():
            result = ScenarioMatrix(
                protocols=["routing"], families=["gnp"], sizes=[8], seed=5,
                engines=["fast"],
            ).run()
            return [cell.digest for cell in result.cells]

        assert digests() == digests()

    def test_reference_falls_back_when_legacy_excluded(self):
        # A sweep without the legacy engine still cross-checks the
        # cells it ran: mismatches() must not be vacuously empty.
        result = ScenarioMatrix(
            protocols=["routing"], families=["cycle"], sizes=[8], seed=9,
            engines=["fast", "kernel"],
        ).run()
        assert all(cell.status == "ok" for cell in result.cells)
        assert all(cell.matches_reference is True for cell in result.cells)
        assert not result.mismatches()

    def test_instance_graph_matches_sweep_cells(self):
        from repro.scenarios.matrix import instance_graph

        g1 = instance_graph(5, "subgraph_detection", "gnp", 12)
        g2 = instance_graph(5, "subgraph_detection", "gnp", 12)
        assert sorted(g1.edges()) == sorted(g2.edges())

    def test_prepare_seed_override_wins(self):
        # A prepare hook may pin its own network seed; the matrix's
        # per-cell seed must not collide with it.
        spec = get_protocol("mst")
        pinned = ProtocolSpec(
            name="mst-pinned-seed",
            description="mst with a pinned network seed",
            engines=("legacy", "fast"),
            prepare=lambda n, graph, rng: _with_seed(spec.prepare(n, graph, rng)),
            bandwidth_budget=spec.bandwidth_budget,
        )
        register_protocol(pinned)
        try:
            result = ScenarioMatrix(
                protocols=["mst-pinned-seed"], families=["cycle"], sizes=[6],
                engines=["legacy", "fast"],
            ).run()
        finally:
            del PROTOCOLS["mst-pinned-seed"]
        assert all(cell.status == "ok" for cell in result.cells)
        assert not result.mismatches()

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            ScenarioMatrix(
                protocols=["mst"], families=["cycle"], sizes=[6],
                engines=["warp"],
            )

    def test_failed_cell_is_isolated(self):
        def broken_prepare(n, graph, rng):
            raise RuntimeError("boom")

        spec = ProtocolSpec(
            name="broken-test",
            description="always fails to prepare",
            engines=("legacy", "fast"),
            prepare=broken_prepare,
            bandwidth_budget=BandwidthBudget(flat=8),
        )
        register_protocol(spec)
        try:
            result = ScenarioMatrix(
                protocols=["broken-test", "mst"],
                families=["cycle"],
                sizes=[6],
                engines=["legacy", "fast"],
            ).run()
        finally:
            del PROTOCOLS["broken-test"]
        by_protocol = {}
        for cell in result.cells:
            by_protocol.setdefault(cell.protocol, []).append(cell)
        assert all(c.status == "failed" for c in by_protocol["broken-test"])
        assert all("boom" in c.error for c in by_protocol["broken-test"])
        # The healthy protocol still ran.
        assert all(c.status == "ok" for c in by_protocol["mst"])

    def test_unsupported_decided_before_the_instance_is_built(self):
        # A 2-vertex cycle cannot be built: supported engines fail, but
        # an engine the protocol never supports stays unsupported.
        result = ScenarioMatrix(
            protocols=["mst", "subgraph_detection"], families=["cycle"],
            sizes=[2],
        ).run()
        for cell in result.cells:
            if cell.engine == "kernel":
                assert cell.status == "unsupported", cell
                assert cell.error is None
            else:
                assert cell.status == "failed"
                assert "at least 3 vertices" in cell.error

    def test_run_coordinate_skips_prepare_for_unsupported_engine(self):
        import dataclasses

        def no_prepare(n, graph, rng):
            raise AssertionError("prepared an unsupported cell")

        spec = dataclasses.replace(get_protocol("mst"), prepare=no_prepare)
        matrix = ScenarioMatrix(protocols=["mst"], families=["gnp"], sizes=[8])
        (cell,) = matrix.run_coordinate(spec, "gnp", 8, ["kernel"])
        assert cell.status == "unsupported"
        assert cell.error is None
        (unbuildable,) = matrix.run_coordinate(spec, "cycle", 2, ["kernel"])
        assert unbuildable.status == "unsupported"
        kernel, legacy = matrix.run_coordinate(spec, "gnp", 8, ["kernel", "legacy"])
        assert (kernel.status, legacy.status) == ("unsupported", "failed")
        assert "prepared an unsupported cell" in legacy.error

    def test_claimed_engine_without_its_program_fails(self):
        import dataclasses

        spec = dataclasses.replace(
            get_protocol("mst"), engines=("legacy", "fast", "kernel")
        )
        matrix = ScenarioMatrix(protocols=["mst"], families=["gnp"], sizes=[8])
        legacy, kernel = matrix.run_coordinate(spec, "gnp", 8, ["legacy", "kernel"])
        assert legacy.status == "ok"
        assert (kernel.status, kernel.error_type) == ("failed", "ProtocolError")
        assert kernel.error == (
            "ProtocolError: mst: spec claims engine 'kernel' but prepares "
            "no 'kernel' program"
        )

    def test_program_of_the_wrong_kind_fails_its_cell(self):
        # With the flavours swapped, the network would run the kernel
        # program on the legacy and fast cells, which would then match a
        # reference that never ran legacy.
        import dataclasses

        routing = get_protocol("routing")

        def swapped(n, graph, rng):
            prepared = routing.prepare(n, graph, rng)
            programs = prepared.programs
            prepared.programs = {
                "generator": programs["kernel"], "kernel": programs["generator"],
            }
            return prepared

        spec = dataclasses.replace(routing, prepare=swapped)
        matrix = ScenarioMatrix(protocols=["routing"], families=["gnp"], sizes=[8])
        cells = matrix.run_coordinate(spec, "gnp", 8, ["legacy", "fast", "kernel"])
        assert [(c.status, c.error_type) for c in cells] == [
            ("failed", "ProtocolError")
        ] * 3
        assert cells[0].error.endswith(
            "routing: spec claims engine 'legacy' but its 'generator' "
            "program is a kernel program"
        )
        assert cells[2].error.endswith(
            "routing: spec claims engine 'kernel' but its 'kernel' "
            "program is a generator program"
        )

    def test_repeated_axis_value_is_rejected(self, monkeypatch):
        base = dict(
            protocols=["routing"], families=["gnp"], sizes=[8],
            engines=["legacy"],
        )
        repeats = {
            "protocol": dict(protocols=["routing", "routing"]),
            "family": dict(families=["gnp", "gnp"]),
            "size": dict(sizes=[8, 8]),
            "engine": dict(engines=["legacy", "legacy"]),
        }
        for axis, repeated in repeats.items():
            with pytest.raises(ValueError, match=f"^{axis} .* more than once"):
                ScenarioMatrix(**dict(base, **repeated))
        # Protocols are compared by registered name, after aliasing.
        monkeypatch.setitem(PROTOCOLS, "routing_alias", get_protocol("routing"))
        with pytest.raises(ValueError, match="protocol 'routing'"):
            ScenarioMatrix(**dict(base, protocols=["routing", "routing_alias"]))

    def test_cell_payload_with_retired_fields_loads(self):
        from repro.scenarios.matrix import MatrixCell

        cell = MatrixCell(
            protocol="mst", family="gnp", n=8, engine="fast", status="ok",
            digest="abc",
        )
        payload = cell.to_dict()
        payload["evictions"] = 1
        payload["last_eviction"] = "deviated"
        payload.update(
            resumed_from_round=12, checkpoints=2, cache_hits=3,
            cache_misses=1, cache_evictions=0, schedule_compiles=1, shards=2,
        )
        assert MatrixCell.from_dict(payload) == cell

    def test_coordinates_are_size_major(self):
        matrix = ScenarioMatrix(
            protocols=["routing", "mst"], families=["gnp", "cycle"],
            sizes=[6, 8], engines=["legacy", "fast"],
        )
        assert matrix.coordinates() == [
            ("routing", "gnp", 6), ("routing", "cycle", 6),
            ("routing", "gnp", 8), ("routing", "cycle", 8),
            ("mst", "gnp", 6), ("mst", "cycle", 6),
            ("mst", "gnp", 8), ("mst", "cycle", 8),
        ]
        assert matrix.cell_keys()[:4] == [
            "0:routing:gnp:6:legacy", "0:routing:gnp:6:fast",
            "0:routing:cycle:6:legacy", "0:routing:cycle:6:fast",
        ]

    def test_prepare_seconds_shared_by_a_coordinates_cells(self):
        from repro.scenarios.matrix import MatrixCell

        result = ScenarioMatrix(
            protocols=["mst", "circuit_simulation"], families=["gnp"],
            sizes=[6], seed=4,
        ).run()
        by_coordinate = {}
        for cell in result.cells:
            if cell.status == "unsupported":
                assert cell.prepare_seconds is None
                continue
            assert cell.prepare_seconds >= 0
            by_coordinate.setdefault(cell.protocol, set()).add(cell.prepare_seconds)
            assert MatrixCell.from_dict(cell.to_dict()) == cell
        assert [len(times) for times in by_coordinate.values()] == [1, 1]

    def test_repeats_keep_results_identical(self):
        result = ScenarioMatrix(
            protocols=["subgraph_detection"], families=["bipartite"],
            sizes=[8], seed=2, engines=["legacy", "fast"], repeats=3,
        ).run()
        assert not result.mismatches()
        assert all(cell.status == "ok" for cell in result.cells)


@pytest.mark.parametrize(
    "argv, named",
    [
        (["--protocols", "nosuch"], "'nosuch'"),
        (["--families", "nosuch"], "'nosuch'"),
        (["--engines", "nosuch"], "'nosuch'"),
        (["--repeats", "0"], "got 0"),
        (["--repeats", "-2"], "got -2"),
        (["--max-attempts", "0"], "--max-attempts must be at least 1"),
        (["--workers", "-1"], "--workers must be at least 0"),
        (["--journal", "{existing}"], "already exists"),
        (["--journal", "{missing}", "--resume"], "cannot read journal"),
    ],
    ids=[
        "protocols", "families", "engines", "repeats-zero",
        "repeats-negative", "max-attempts-zero", "workers-negative",
        "journal-exists", "resume-missing",
    ],
)
def test_cli_rejects_bad_arguments_with_exit_2(argv, named, tmp_path, capsys):
    from repro.scenarios.__main__ import main

    existing = tmp_path / "existing.jsonl"
    existing.write_text("{}\n")
    paths = dict(existing=existing, missing=tmp_path / "missing.jsonl")
    argv = ["--sizes", "6", *(arg.format(**paths) for arg in argv)]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects a bad choice itself
        code = exc.code
    assert code == 2
    assert named in capsys.readouterr().err
    assert existing.read_text() == "{}\n"


@pytest.mark.parametrize(
    "argv, named, keyword",
    [
        (["--journal", "{existing}"], "pass --resume to continue it", "resume_from"),
        (["--max-attempts", "0"], "--max-attempts must be at least 1, got 0", "max_attempts"),
        (["--workers", "-1"], "--workers must be at least 0, got -1", "workers must"),
    ],
    ids=["journal-exists", "max-attempts-zero", "workers-negative"],
)
def test_cli_errors_name_the_flags_typed(argv, named, keyword, tmp_path, capsys):
    """An exit-2 message names the command-line flag the user typed, not
    the library keyword behind it."""
    from repro.scenarios.__main__ import main

    existing = tmp_path / "existing.jsonl"
    existing.write_text("{}\n")
    code = main(["--sizes", "6", *(arg.format(existing=existing) for arg in argv)])
    err = capsys.readouterr().err
    assert code == 2
    assert named in err
    assert keyword not in err.replace(named, "")
    assert existing.read_text() == "{}\n"


class TestHeldPlans:
    """The Theorem 2 protocols' plan depends on n alone: the registry
    builds it once per (circuit family, n), compiles both engine forms
    while it prepares, and a size-major sweep reuses it across
    families."""

    PROTOCOLS = ["circuit_simulation", "triangle_mm"]

    @pytest.fixture
    def held(self, monkeypatch):
        from repro.scenarios import registry

        plans = {}
        monkeypatch.setattr(registry, "_HELD_PLANS", plans, raising=False)
        return plans

    def test_one_plan_per_family_and_size(self, held, monkeypatch):
        import gc
        import weakref

        from repro.simulation import protocol

        built = []
        build_plan = protocol.build_plan

        def counting(circuit, n, *args, **kwargs):
            # The other size's plan of the family is gone before the
            # build starts: only the other family's plan may be alive.
            gc.collect()
            alive = [plan for plan in (ref() for ref, _n in built) if plan]
            assert len(alive) <= 1, [plan.n for plan in alive]
            del alive
            plan = build_plan(circuit, n, *args, **kwargs)
            built.append((weakref.ref(plan), n))
            return plan

        monkeypatch.setattr(protocol, "build_plan", counting)
        result = ScenarioMatrix(
            self.PROTOCOLS, ["gnp", "cycle", "complete"], [6, 8], seed=7,
        ).run()
        assert [n for _ref, n in built] == [6, 8, 6, 8]
        assert sorted(held) == ["strassen", "threshold_parity"]
        assert {plan.n for plan in held.values()} == {8}
        assert len(result.cells) == 2 * 3 * 2 * 3
        assert result.mismatches() == []
        ok = result.ok_cells()
        assert len(ok) == len(result.cells)
        assert all(cell.validated is True for cell in ok)

    def test_each_family_keeps_its_plan(self, held, monkeypatch):
        # Two passes in one process, each preparing the two families at
        # different n (perfbench ``local``'s shape): each family's held
        # plan serves its second prepare.  One slot for both would build
        # all four.
        from repro.scenarios.matrix import instance_graph
        from repro.simulation import protocol

        built = []
        build_plan = protocol.build_plan

        def counting(circuit, n, *args, **kwargs):
            built.append(n)
            return build_plan(circuit, n, *args, **kwargs)

        monkeypatch.setattr(protocol, "build_plan", counting)
        for sweep_seed in (0, 1):
            for name, n in (("triangle_mm", 6), ("circuit_simulation", 8)):
                graph = instance_graph(sweep_seed, name, "gnp", n)
                get_protocol(name).prepare(n, graph, random.Random(sweep_seed))
        assert built == [6, 8]
        assert {family: plan.n for family, plan in held.items()} == {
            "strassen": 6, "threshold_parity": 8,
        }

    def test_triangle_mm_builds_one_output_schedule(self, held, monkeypatch):
        # The generator and kernel forms route the outputs on the same
        # schedule, built once per prepare.
        from repro.matmul import distributed
        from repro.scenarios.matrix import instance_graph

        built = []
        build_schedule = distributed.build_schedule

        def counting(demand, n):
            schedule = build_schedule(demand, n)
            built.append(schedule)
            return schedule

        monkeypatch.setattr(distributed, "build_schedule", counting)
        graph = instance_graph(0, "triangle_mm", "gnp", 16)
        prepared = get_protocol("triangle_mm").prepare(16, graph, random.Random(0))
        assert len(built) == 1
        assert set(prepared.programs) == {"generator", "kernel"}

    @pytest.mark.parametrize("name", PROTOCOLS)
    def test_prepare_compiles_every_engine_form(self, held, monkeypatch, name):
        import dataclasses

        from repro.simulation.kernel import KernelPlan
        from repro.simulation.protocol import PlanView

        def no_compile(*args):
            raise AssertionError("an engine run compiled the plan")

        spec = get_protocol(name)

        def prepare_then_forbid(n, graph, rng):
            prepared = spec.prepare(n, graph, rng)
            monkeypatch.setattr(PlanView, "__init__", no_compile)
            monkeypatch.setattr(KernelPlan, "__init__", no_compile)
            return prepared

        matrix = ScenarioMatrix([name], ["gnp"], [6])
        cells = matrix.run_coordinate(
            dataclasses.replace(spec, prepare=prepare_then_forbid),
            "gnp", 6, matrix.ordered_engines(),
        )
        assert [cell.engine for cell in cells] == ["legacy", "fast", "kernel"]
        for cell in cells:
            assert (cell.status, cell.validated) == ("ok", True), cell.error
