"""Checks made without running a protocol: bandwidth budgets and the
determinism lint.

Every spec declares a budget (a spec without one is a ``TypeError``),
an over-budget fixture fails its sweep coordinate at prepare, before
any engine runs, and the determinism lint (``determinism_lint.py``
beside this file) catches unseeded RNG / wall-clock / dict-order
hazards and finds none in ``src/repro``.
"""

import pytest

from determinism_lint import lint_paths, lint_source
from repro.analysis.budget import BandwidthBudget, log2_ceil
from repro.core import errors
from repro.core.network import Mode, Outbox
from repro.scenarios.matrix import ScenarioMatrix
from repro.scenarios.registry import PROTOCOLS, ProtocolSpec, PreparedScenario


# -- bandwidth budgets ----------------------------------------------------


class TestBudgets:
    def test_budget_formula(self):
        budget = BandwidthBudget(flat=3, log_coeff=2, log_sq_coeff=1)
        assert log2_ceil(8) == 3
        assert budget.bits(8) == 3 + 6 + 9
        assert "log(n)" in budget.describe()

    def test_missing_budget_is_violation(self):
        with pytest.raises(TypeError, match="bandwidth_budget"):
            ProtocolSpec(
                name="budgetless_fixture",
                description="declares no bandwidth budget",
                engines=("legacy",),
                prepare=lambda n, graph, rng: None,
            )

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
            engines=("legacy",),
            prepare=prepare,
            bandwidth_budget=BandwidthBudget(log_coeff=4),
        )
        # The matrix checks the budget once per coordinate, right after
        # prepare: every supported cell fails and no engine runs.
        PROTOCOLS[spec.name] = spec
        try:
            result = ScenarioMatrix(
                [spec.name], ["gnp"], [8], engines=["legacy", "kernel"]
            ).run()
        finally:
            del PROTOCOLS[spec.name]
        cells = {cell.engine: cell for cell in result.cells}
        assert cells["kernel"].status == "unsupported"
        cell = cells["legacy"]
        assert cell.status == "failed"
        assert cell.error_type == "BandwidthExceededError"
        assert issubclass(getattr(errors, cell.error_type), errors.ReproError)
        assert cell.error == (
            "BandwidthExceededError: over_budget_fixture: declared width 24 "
            "EXCEEDS budget 12 = 4*log(n) @ n=8"
        )
        assert cell.rounds is None
        assert cell in result.mismatches()

    def test_every_registered_protocol_declares_a_budget(self):
        for name, spec in PROTOCOLS.items():
            assert isinstance(spec.bandwidth_budget, BandwidthBudget), name


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

        findings = lint_paths([pathlib.Path(repro.__file__).parent])
        assert findings == [], [str(f) for f in findings]

