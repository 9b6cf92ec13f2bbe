"""E12 (Section 1, non-explicit bound): counting forces (n−O(log n))/b.

The counting argument's bound vs the trivial ⌈n/b⌉ upper bound — the
two nearly meet, which is the paper's point ("very close to optimal").
Plus the exhaustive 2-player miniature: equality on 2-bit inputs is
certifiably not 1-round computable at b = 1.
"""

from __future__ import annotations

from repro.analysis import Table
from repro.lower_bounds.counting import (
    counting_round_lower_bound,
    one_round_two_party_computable,
    trivial_upper_bound_rounds,
    two_party_hard_function_exists,
)

from _util import emit


def test_counting_vs_trivial(benchmark, capsys):
    table = Table(
        "E12 non-explicit bound — counting LB vs trivial UB",
        ["n", "b", "counting LB rounds", "trivial UB rounds", "gap"],
    )
    for n in (16, 32, 64, 128):
        for b in (1, 8):
            lb = counting_round_lower_bound(n, b)
            ub = trivial_upper_bound_rounds(n, b)
            table.add_row(n, b, lb, ub, ub - lb)
            assert lb <= ub
            assert ub - lb <= (2 * n.bit_length() + 6) // b + 2
    emit(table, capsys, filename="e12_counting_bound.md")

    benchmark(lambda: counting_round_lower_bound(128, 1))


def test_exhaustive_miniature(benchmark, capsys):
    table = Table(
        "E12 exhaustive n=2 miniature — 1-round computability at b=1",
        ["function", "one-round computable"],
    )
    hard, equality = two_party_hard_function_exists(input_bits=2, bandwidth=1)
    constant = [[1] * 4 for _ in range(4)]
    own_bit = [[xa & 1] * 4 for xa in range(4)]
    table.add_row("EQUALITY(2,2)", not hard and "yes" or "no")
    table.add_row("constant 1", one_round_two_party_computable(constant))
    table.add_row("Alice's low bit", one_round_two_party_computable(own_bit))
    emit(table, capsys, filename="e12_miniature.md")
    assert hard

    benchmark(lambda: two_party_hard_function_exists(input_bits=2, bandwidth=1))


def test_exact_communication_complexity(benchmark, capsys):
    """E12 extension: the classical D(f) values Lemma 13 cites, computed
    *exactly* by protocol-tree dynamic programming, next to the fooling
    set and log-rank lower bounds."""
    from repro.lower_bounds.two_party import (
        canonical_disj_fooling_set,
        disj_table,
        eq_table,
        exact_cc,
        fooling_set_bound,
        gt_table,
        ip_table,
        log_rank_bound,
    )

    table = Table(
        "E12 exact D(f) — protocol-tree DP vs classical lower bounds",
        ["f", "bits", "D(f) exact", "fooling LB", "log-rank LB", "n+1"],
    )
    for bits in (1, 2):
        disj = disj_table(bits)
        table.add_row(
            "DISJ",
            bits,
            exact_cc(disj),
            fooling_set_bound(disj, canonical_disj_fooling_set(bits)),
            log_rank_bound(disj),
            bits + 1,
        )
        eq = eq_table(bits)
        table.add_row(
            "EQ",
            bits,
            exact_cc(eq),
            fooling_set_bound(eq, [(x, x) for x in range(1 << bits)]),
            log_rank_bound(eq),
            bits + 1,
        )
    table.add_row("IP", 2, exact_cc(ip_table(2)), "-", log_rank_bound(ip_table(2)), 3)
    table.add_row("GT", 2, exact_cc(gt_table(2)), "-", log_rank_bound(gt_table(2)), 3)
    emit(table, capsys, filename="e12_exact_cc.md")
    # the textbook identities D(DISJ_n) = D(EQ_n) = n+1, verified exactly:
    assert exact_cc(disj_table(2)) == 3
    assert exact_cc(eq_table(2)) == 3

    benchmark(lambda: exact_cc(disj_table(2)))
