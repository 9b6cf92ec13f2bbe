"""Assemble EXPERIMENTS.md from the benchmark result tables.

Run after the experiments have written their tables:

    python -m pytest benchmarks/bench_*.py --benchmark-disable -q
    python benchmarks/build_experiments_md.py

Exits non-zero, writing nothing, when a table listed below is missing
from ``benchmarks/results/`` or a table there is listed nowhere, so the
report always holds every table and only tables that exist.
"""

from __future__ import annotations

import pathlib
import sys

RESULTS = pathlib.Path(__file__).parent / "results"
TARGET = pathlib.Path(__file__).parent.parent / "EXPERIMENTS.md"

HEADER = """\
# EXPERIMENTS — paper vs measured

Every quantitative claim of *On the Power of the Congested Clique Model*
(Drucker, Kuhn, Oshman; PODC 2014), regenerated by
``python -m pytest benchmarks/bench_*.py --benchmark-disable``.  The
engine counts real rounds (bandwidth enforced per message, long messages
genuinely fragmented), so the "measured" columns are executions, not
formulas; "predicted" columns are the paper's bounds as implemented in
``repro.analysis``.  The reproduction target for a theory paper is the
*shape* — which algorithm wins, with which exponent, and where
crossovers fall; absolute constants are artefacts of our scheduling
choices and are reported as-is.

Experiment ids (E1–E17) are the ones the ``benchmarks/bench_*.py`` files
use.  Tables below are the output of the most recent benchmark run
(regenerate with the command above followed by
``python benchmarks/build_experiments_md.py``).
"""

SECTIONS = [
    (
        "E1 — Theorem 2/4: circuits simulate in O(depth) rounds",
        """Paper: a depth-D circuit of b-separable gates with n²·s wires runs in
O(D) rounds on CLIQUE-UCAST(n, O(b+s)).  Measured: rounds/depth stays a
small constant (≈1–2) across the fan-in sweep, and is flat when size
grows at fixed depth — rounds track depth, never size.  **Shape holds.**""",
        ["e1_circuit_simulation.md", "e1_size_independence.md"],
    ),
    (
        "E2 — Section 2: threshold circuits (TC0) at bandwidth O(log n)",
        """Paper: unweighted threshold gates are Θ(log n)-separable, so an
α·log log n round bound at b = β·log n would improve known TC0 wire
bounds.  Measured: the depth-4 threshold parity circuit and the depth-1
majority gate simulate in a constant number of rounds with bandwidth
growing only logarithmically in fan-in.  **Shape holds.**""",
        ["e2_threshold_parity.md", "e2_majority.md"],
    ),
    (
        "E3 — Section 2: CC[m]/ACC circuits at bandwidth O(1)",
        """Paper: MOD_m gates are O(1)-separable, connecting constant-round
simulations at constant bandwidth to ACC wire lower bounds.  Measured:
MOD-tree rounds scale with depth at bandwidth ⌈log₂ m⌉ (never n).
**Shape holds.**""",
        ["e3_cc_circuits.md", "e3_cc_parity.md"],
    ),
    (
        "E4 — Section 2.1: matrix multiplication vs triangle detection",
        """Paper (conditional): arithmetic circuits for matmul of size O(n^δ)
give triangle detection in O(n^{δ−2}) rounds; conjectured δ = 2+ε gives
O(n^ε).  Measured: the Strassen circuit's wire-growth exponent (≈2.9 at
toy sizes, trending to log₂7) is strictly below the naive circuit's
exact 3.0, and the full masked-F2 pipeline detects triangles correctly
through the Theorem 2 simulation with both circuit families.  At these
sizes Strassen's constant overhead still exceeds naive's total — the
*exponent*, which is what the theorem is about, reproduces.
**Shape holds (conditional result exercised end to end).**""",
        ["e4_matmul_circuits.md", "e4_triangle_mm.md"],
    ),
    (
        "E5 — Theorem 7: H-subgraph detection in O(ex(n,H)·log n/(n·b))",
        """Paper: detection costs O(ex(n,H)/n · log n/b) rounds; non-trivial
for bipartite H (C4: √n·log n; trees: log n), trivial-rate for
χ(H) ≥ 3.  Measured: engine rounds equal the closed-form cost exactly
(the algorithm is deterministic); at scale the C4 cost crosses below the
trivial baseline and the gap widens, trees stay polylogarithmic, and K4
is Θ(n log n/b) — i.e. worse than trivial by the log factor, exactly the
paper's remark that Theorem 7 only pays off for bipartite H.
**Shape holds.**""",
        ["e5_subgraph_detection.md", "e5_asymptotic_shape.md", "e5_full_learning_matrix.md"],
    ),
    (
        "E6 — Theorem 9 + Lemma 8: adaptive detection, sampled degeneracy",
        """Paper: without knowing ex(n,H), detection in Õ(ex(n,H)/(n·b)) rounds
w.h.p., using nested samples G_j whose degeneracy concentrates around
k·2^{-j} (Lemma 8).  Measured: the adaptive algorithm answers correctly
on every instance (see the ``repro.subgraphs.adaptive`` docstring on the
soundness fix to the printed pseudocode), costs a small factor over Theorem 7, and the sampled
degeneracy tracks k·2^{-j} within a factor ≈2 throughout Lemma 8's
concentration regime.  **Shape holds.**""",
        ["e6_adaptive_detection.md", "e6_lemma8_concentration.md"],
    ),
    (
        "E7 — Becker et al. [2]: one-round reconstruction",
        """Paper (substrate): k-degenerate graphs are reconstructible by all
nodes from one O(k·log n)-bit broadcast each.  Measured: exact
reconstruction at k = degeneracy with message size (k+1)·⌈log n⌉ bits
(rounds = ⌈message/b⌉), and certified failure for every k below the true
degeneracy.  **Shape holds.**""",
        ["e7_becker_reconstruction.md", "e7_failure_certification.md"],
    ),
    (
        "E8 — Theorem 15 / Lemma 14: K_ℓ detection needs Ω(n/b)",
        """Paper: the (K_ℓ, K_{N,N})-lower-bound graph gives DISJ on N² = Θ(n²)
elements, forcing Ω(n/b) rounds in CLIQUE-BCAST.  Measured: the
construction passes the Definition 10 machine verifier, the executed
reduction answers disjointness correctly with blackboard bits ≤ n·b·R,
and the implied bound grows linearly in n while the measured detection
upper bound always respects it.  **Shape holds.**""",
        ["e8_clique_lower_bound.md", "e8_reduction_execution.md"],
    ),
    (
        "E9 — Theorem 19 / Lemma 18: C_ℓ detection needs Ω(ex(n,C_ℓ)/(n·b))",
        """Paper: cycles of length ℓ ≥ 4 inherit the Turán-number hardness —
quadratic universe for odd ℓ, Θ(N^{3/2}) for C4 — and the construction's
N-edge cut extends the bound to CONGEST.  Measured: every construction
passes the Definition 10 machine verifier, its Alice–Bob cut recounts to
exactly the N path middles, universes match the formulas exactly (odd ℓ:
N²/4), the CONGEST bound exceeds the BCAST bound by the n/cut factor,
and the executed reductions answer correctly.  **Shape holds.**""",
        ["e9_cycle_lower_bound.md", "e9_odd_cycle_universe.md", "e9_reduction_execution.md"],
    ),
    (
        "E10 — Theorem 22 / Lemma 21: K_{ℓ,m} detection needs Ω(√n/b)",
        """Paper: a bipartite C4-free F with Θ(N^{3/2}) edges (Observation 20)
drives the reduction.  Measured: with the PG(2,q) incidence graph the
construction passes the Definition 10 machine verifier at every q, and
the implied bound normalised by √n stays in a constant band across q —
the √n shape.  Note the ℓ≠m erratum documented in
``repro.lower_bounds.bipartite`` (discovered by the machine verifier); the verified ℓ = m case carries the theorem.
**Shape holds (for the verified parameter regime).**""",
        ["e10_bipartite_lower_bound.md", "e10_reduction_execution.md"],
    ),
    (
        "E11 — Theorem 24 / Claim 23 / Corollary 25: triangles vs 3-NOF DISJ",
        """Paper: Ruzsa–Szemerédi graphs supply m = n²/e^{O(√log n)}
edge-disjoint triangles; a triangle protocol answers NOF-DISJ_m in
n·b·R + 1 bits, so deterministic triangle detection needs
Ω(n/(e^{O(√log n)}·b)) (Cor. 25) while the known randomized Ω(√m) stays
"just shy" of non-trivial.  Measured: the RS graphs' triangles are
exactly the planted ones (trace check), m(N) grows superlinearly, the
executed NOF reduction is correct with the exact bit accounting, and the
deterministic/randomized bound gap reproduces (det bound grows with n,
randomized pins at 1 round).  **Shape holds.**""",
        ["e11_claim23_density.md", "e11_implied_bounds.md", "e11_reduction_execution.md"],
    ),
    (
        "E12 — Section 1: the non-explicit counting bound (n−O(log n))/b",
        """Paper: counting shows some function needs (n−O(log n))/b rounds,
nearly matching the trivial ⌈n/b⌉.  Measured: the exact log-space
evaluation of the counting inequality sits within an O(log n)/b gap of
the trivial upper bound at every (n, b); the exhaustive n=2 miniature
certifies a concrete function (equality) not computable in one b=1
round, and protocol-tree DP gives D(DISJ₂) = D(EQ₂) = 3 exactly.
**Shape holds.**""",
        ["e12_counting_bound.md", "e12_miniature.md", "e12_exact_cc.md"],
    ),
    (
        "E13 — [28] substrate: balanced routing in O(1) rounds",
        """Paper (substrate consumed by Theorem 2): balanced demands — every
node source/destination of O(n) messages — route deterministically in
O(1) rounds.  Measured: schedule length stays ≤ 16 rounds from n=8 to
n=64 under full per-node load, and a 2n-frame single-pair hotspot routes
in ≤ 8 rounds instead of 2n direct.  **Shape holds.**""",
        ["e13_routing_balanced.md", "e13_routing_concentrated.md", "e13_routing_engine.md"],
    ),
    (
        "E14 — [8] baseline: deterministic triangles in Õ(n^{1/3})",
        """Paper context: [8]'s algorithm is the upper-bound counterpoint to
Theorem 24.  Measured: the group-triple protocol's measured rounds track
the n^{1/3} prediction within a constant band across the sweep, its
detection agrees with ground truth at every density, and its counting
variant returns the exact triangle count.  **Shape holds.**""",
        ["e14_dlp_scaling.md", "e14_dlp_correctness.md"],
    ),
    (
        "E15 — ablations: the design choices, isolated",
        """Bandwidth↔rounds tradeoff for a fixed circuit (rounds fall
monotonically in b); the DLP group count's effect on the busiest
player's inbound traffic (g = n^{1/3} spreads it; g = 1 concentrates
it); router schedule mode as one pair's demand concentrates (direct
flips to two-phase); and the heavy-gate census across circuit families
(never exceeds n — the invariant Theorem 2's proof leans on).""",
        [
            "e15_bandwidth_ablation.md",
            "e15_dlp_group_ablation.md",
            "e15_router_ablation.md",
            "e15_heavy_census.md",
        ],
    ),
    (
        "E16 — CONGEST C4 detection and [28]'s sorting",
        """Paper (full-version claim): C4 detection in O(√n·log n/b) rounds
over the input graph's own edges.  Measured: our complete two-phase
threshold algorithm (guarantee and caveat documented in
repro.congest.c4_detection) answers correctly across densities and
runs at the √n·log n/b rate on dense C4-free polarity graphs — the
worst case, where no early exit exists.  [28]'s sorting primitive
sorts n² keys into rank blocks in a constant number of phases.
**Shape holds (with the documented heavy-count caveat).**""",
        ["e16_congest_c4.md", "e16_congest_correctness.md", "e16_sorting.md"],
    ),
    (
        "E17 — related work [30]: MST on the clique; CONGEST cut accounting",
        """The introduction cites MST ([30], O(log log n) rounds) as the
flagship congested-clique upper bound.  Our Borůvka baseline completes
in ⌈log₂ n⌉ phases of one O(log n + log W)-bit broadcast each and
returns the exact (uniquely tie-broken) MST on every instance.  The
companion table executes Theorem 19's CONGEST cut argument: gossip
detection over a δ-sparse Lemma 18 instance pushes at least |E_F| bits
across the N-edge cut, within the cut·b·R capacity — the inequality the
lower bound rearranges.  **Substrate + executable cut argument.**""",
        ["e17_mst.md", "e17_mst_sparse.md", "e17_cut_accounting.md"],
    ),
]

FOOTER = """\
## Summary

All 17 experiment families reproduce the paper's qualitative claims
(14 from the paper's own results, 3 covering cited substrates and
ablations).
Absolute round counts differ from idealised constants by the scheduling
overheads (phase headers, the 2-phase router's constant, summary-round
framing); no experiment contradicts a claimed exponent, crossover, or
winner.  Two printed-construction gaps found by the machine verifiers
(Theorem 9's pseudocode, Lemma 21 for ℓ≠m) are documented in the
``repro.subgraphs.adaptive`` and ``repro.lower_bounds.bipartite``
docstrings, with concrete counterexamples in the test suite; in both
cases the surrounding prose supports the repaired reading, under which
the theorems hold as stated.
"""


def main() -> int:
    listed = {name for _, _, files in SECTIONS for name in files}
    present = {path.name for path in RESULTS.glob("*.md")}
    missing = sorted(listed - present)
    unlisted = sorted(present - listed)
    for name in missing:
        print(f"missing table: {name} (run the experiments first)", file=sys.stderr)
    for name in unlisted:
        print(f"table listed in no section: {name}", file=sys.stderr)
    if missing or unlisted:
        return 1
    parts = [HEADER]
    for title, commentary, files in SECTIONS:
        parts.append(f"\n## {title}\n")
        parts.append(commentary + "\n")
        for name in files:
            parts.append((RESULTS / name).read_text().strip() + "\n")
    parts.append("\n" + FOOTER)
    TARGET.write_text("\n".join(parts))
    print(f"wrote {TARGET} ({TARGET.stat().st_size} bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
