"""Analysis layer: predicted bounds, report tables, and the static
protocol verifier (bandwidth budgets checked at prepare, registry
consistency, determinism lint — see ``python -m repro.analysis``)."""

from repro.analysis.bounds import (
    dlp_round_bound,
    full_learning_round_bound,
    matmul_rounds_per_depth,
    theorem2_round_bound,
    theorem7_round_bound,
    theorem9_round_bound,
    theorem15_lb_rounds,
    theorem19_lb_rounds,
    theorem22_lb_rounds,
    theorem24_lb_rounds,
)
from repro.analysis.budget import (
    BandwidthBudget, BudgetCheck, check_budget, check_prepared, log2_ceil,
)
from repro.analysis.lint import LintFinding, lint_file, lint_paths, lint_source
from repro.analysis.reporting import Table, fmt, geometric_mean, ratio

# The verifier imports the scenario registry, which itself imports
# repro.analysis.budget (budgets live on ProtocolSpec); loading it lazily
# keeps this package importable from the registry without a cycle.
_VERIFIER_EXPORTS = (
    "AnalysisReport",
    "ProtocolAnalysis",
    "RegistryFinding",
    "analyze_all",
    "analyze_protocol",
    "check_registry",
    "DEFAULT_SIZES",
)


def __getattr__(name):
    if name in _VERIFIER_EXPORTS:
        from repro.analysis import verifier

        return getattr(verifier, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "theorem2_round_bound",
    "theorem7_round_bound",
    "full_learning_round_bound",
    "theorem9_round_bound",
    "dlp_round_bound",
    "matmul_rounds_per_depth",
    "theorem15_lb_rounds",
    "theorem19_lb_rounds",
    "theorem22_lb_rounds",
    "theorem24_lb_rounds",
    "Table",
    "ratio",
    "geometric_mean",
    "fmt",
    "BandwidthBudget",
    "BudgetCheck",
    "check_budget",
    "check_prepared",
    "log2_ceil",
    "LintFinding",
    "lint_source",
    "lint_file",
    "lint_paths",
    *_VERIFIER_EXPORTS,
]
