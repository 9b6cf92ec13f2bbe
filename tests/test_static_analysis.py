"""The static protocol verifier: budgets, registry, lint.

Covers the analyzer's contract end to end: every registered protocol
passes, an over-budget fixture is rejected with per-n diagnostics by
the analyzer and by the scenario matrix (at prepare, before any engine
runs), the determinism lint catches unseeded RNG / wall-clock /
dict-order hazards, and the CLI gates on it all.
"""

import json

from repro.analysis.budget import BandwidthBudget, check_budget, log2_ceil
from repro.analysis.lint import lint_source
from repro.analysis.verifier import analyze_all, analyze_protocol, check_registry
from repro.core import errors
from repro.core.network import Mode, Outbox
from repro.scenarios.matrix import ScenarioMatrix
from repro.scenarios.registry import PROTOCOLS, ProtocolSpec, PreparedScenario


# -- fixture programs -----------------------------------------------------


def steady_program(ctx):
    """Everyone broadcasts a fixed-width word every round, whatever the
    inputs say."""
    total = 0
    for _ in range(3):
        inbox = yield Outbox.broadcast_uint(int(ctx.input or 0) & 1, 1)
        total += sum(payload.to_uint() for _, payload in inbox.items())
    return total


# -- bandwidth budgets ----------------------------------------------------


class TestBudgets:
    def test_budget_formula(self):
        budget = BandwidthBudget(flat=3, log_coeff=2, log_sq_coeff=1)
        assert log2_ceil(8) == 3
        assert budget.bits(8) == 3 + 6 + 9
        assert "log(n)" in budget.describe()

    def test_missing_budget_is_violation(self):
        verdict = check_budget(None, 8, 10)
        assert not verdict.ok
        assert "no bandwidth_budget" in verdict.detail

    def test_over_budget_fixture_refused(self):
        def wide_program(ctx):
            yield Outbox.broadcast_uint(0, 3 * ctx.n)
            return None

        def prepare(n, graph, rng):
            return PreparedScenario(
                network_kwargs=dict(n=n, bandwidth=3 * n, mode=Mode.BROADCAST),
                programs={"generator": wide_program},
                inputs=None,
                summarize=lambda result: result.rounds,
            )

        spec = ProtocolSpec(
            name="over_budget_fixture",
            description="sends Θ(n)-bit words against an O(log n) budget",
            mode=Mode.BROADCAST,
            engines=("legacy", "fast"),
            prepare=prepare,
            bandwidth_budget=BandwidthBudget(log_coeff=4),
        )
        analysis = analyze_protocol(spec, 8)
        assert not analysis.ok
        assert analysis.budget is not None and not analysis.budget.ok
        assert analysis.budget.observed == 24
        assert analysis.budget.allowed == 12
        assert any("EXCEEDS" in v for v in analysis.violations)

        # The matrix makes the same check once per coordinate, right
        # after prepare: every supported cell fails and no engine runs.
        PROTOCOLS[spec.name] = spec
        try:
            result = ScenarioMatrix(
                [spec.name], ["gnp"], [8], engines=["legacy", "fast", "kernel"]
            ).run()
        finally:
            del PROTOCOLS[spec.name]
        cells = {cell.engine: cell for cell in result.cells}
        assert cells["kernel"].status == "unsupported"
        for engine in ("legacy", "fast"):
            cell = cells[engine]
            assert cell.status == "failed"
            assert cell.error_type == "BandwidthExceededError"
            assert issubclass(getattr(errors, cell.error_type), errors.ReproError)
            assert "declared width 24 EXCEEDS budget 12" in cell.error
            assert cell.rounds is None
            assert cell in result.mismatches()

    def test_every_registered_protocol_declares_a_budget(self):
        for name, spec in PROTOCOLS.items():
            assert spec.bandwidth_budget is not None, name


# -- determinism lint -----------------------------------------------------


class TestLint:
    def test_unseeded_random_flagged(self):
        findings = lint_source(
            "import random\n"
            "def pick():\n"
            "    return random.randint(0, 7)\n"
        )
        assert [f.rule for f in findings] == ["unseeded-random"]
        assert findings[0].line == 3

    def test_seeded_rng_clean(self):
        findings = lint_source(
            "import random\n"
            "def pick(seed):\n"
            "    rng = random.Random(seed)\n"
            "    return rng.randint(0, 7)\n"
        )
        assert findings == []

    def test_numpy_global_random_flagged(self):
        findings = lint_source(
            "import numpy as np\n"
            "x = np.random.rand(4)\n"
            "rng = np.random.default_rng(0)\n"
        )
        assert [f.rule for f in findings] == ["unseeded-random"]
        assert findings[0].line == 2

    def test_wall_clock_flagged_and_pragma_suppresses(self):
        source = (
            "import time\n"
            "a = time.perf_counter()\n"
            "b = time.perf_counter()  # analysis: allow(wall-clock)\n"
        )
        findings = lint_source(source)
        assert [f.line for f in findings] == [2]
        assert findings[0].rule == "wall-clock"

    def test_from_import_wall_clock_flagged(self):
        findings = lint_source(
            "from time import perf_counter\n"
            "start = perf_counter()\n"
        )
        assert [f.rule for f in findings] == ["wall-clock"]

    def test_dict_order_yield_flagged(self):
        findings = lint_source(
            "def program(ctx, messages):\n"
            "    for dest, payload in messages.items():\n"
            "        yield dest, payload\n"
        )
        assert [f.rule for f in findings] == ["dict-order-yield"]

    def test_sorted_iteration_clean(self):
        findings = lint_source(
            "def program(ctx, messages):\n"
            "    for dest, payload in sorted(messages.items()):\n"
            "        yield dest, payload\n"
        )
        assert findings == []

    def test_repro_tree_is_clean(self):
        import pathlib

        import repro

        from repro.analysis.lint import lint_paths

        findings = lint_paths([pathlib.Path(repro.__file__).parent])
        assert findings == [], [str(f) for f in findings]


# -- registry consistency & full sweep ------------------------------------


class TestVerifier:
    def test_all_registered_protocols_pass(self):
        report = analyze_all(sizes=[6])
        assert report.ok, report.violations()
        for analysis in report.analyses:
            assert analysis.ok
            assert analysis.budget is not None and analysis.budget.ok

    def test_registry_gaps_explain_unsupported_cells(self):
        findings = check_registry()
        violations = [f for f in findings if f.kind == "violation"]
        assert violations == []
        gaps = {(f.protocol, f.engine) for f in findings if f.kind == "unsupported"}
        assert gaps == {("mst", "kernel"), ("subgraph_detection", "kernel")}

    def test_contradictory_spec_is_violation(self):
        def prepare(n, graph, rng):
            return PreparedScenario(
                network_kwargs=dict(n=n, bandwidth=2, mode=Mode.BROADCAST),
                programs={"generator": steady_program},
                inputs=None,
                summarize=lambda result: result.rounds,
            )

        spec = ProtocolSpec(
            name="contradictory_fixture",
            description="claims the kernel engine without a kernel program",
            mode=Mode.BROADCAST,
            engines=("legacy", "fast", "kernel"),
            prepare=prepare,
            bandwidth_budget=BandwidthBudget(flat=2),
        )
        PROTOCOLS[spec.name] = spec
        try:
            findings = check_registry()
            assert any(
                f.kind == "violation"
                and f.protocol == "contradictory_fixture"
                and f.engine == "kernel"
                for f in findings
            )
        finally:
            del PROTOCOLS[spec.name]

    def test_report_serializes(self):
        report = analyze_all(protocols=["mst"], sizes=[6])
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["ok"] is True
        assert payload["protocols"][0]["protocol"] == "mst"
        assert payload["protocols"][0]["budget"]["ok"] is True


# -- CLI ------------------------------------------------------------------


class TestIntegration:
    def test_cli_strict_passes_on_registry(self, tmp_path, capsys, monkeypatch):
        from repro.analysis.__main__ import main
        from repro.core.network import Network

        def no_run(*args, **kwargs):
            raise AssertionError("the analyzer ran a protocol")

        # Budgets are checked from prepare alone.
        monkeypatch.setattr(Network, "run", no_run)
        monkeypatch.setattr(Network, "run_many", no_run)
        out = tmp_path / "analysis_report.json"
        code = main(["--all", "--strict", "--sizes", "6,8", "--json", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["ok"] is True
        assert payload["violations"] == []
        rows = [(row["protocol"], row["n"]) for row in payload["protocols"]]
        assert sorted(rows) == sorted(
            (name, n) for name in PROTOCOLS for n in (6, 8)
        )
        rendered = capsys.readouterr().out
        assert "Static protocol analysis" in rendered
        assert "0 violations" in rendered

    def test_cli_strict_fails_on_lint_fixture(self, tmp_path, capsys):
        from repro.analysis.__main__ import main

        dirty = tmp_path / "dirty.py"
        dirty.write_text("import random\nx = random.random()\n")
        code = main(
            ["--all", "--strict", "--sizes", "6", "--lint-root", str(dirty)]
        )
        assert code == 1
        assert "unseeded-random" in capsys.readouterr().out
