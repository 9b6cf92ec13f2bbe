"""Analysis layer: predicted bounds, report tables, and the bandwidth
budgets every protocol spec declares (checked once per scenario
coordinate, right after ``prepare``)."""

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
from repro.analysis.budget import BandwidthBudget, log2_ceil
from repro.analysis.reporting import Table, fmt, geometric_mean, ratio

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
    "log2_ceil",
]
