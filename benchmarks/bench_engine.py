"""Engine throughput benchmark: rounds/sec and messages/sec.

Measures the message-passing engine itself (no protocol logic) across
all three communication models.  Each workload has two programs, run
on both engine names:

* the *dict* program yields ``Outbox.unicast``/``Outbox.broadcast`` of
  prebuilt ``Bits`` payloads (rows ``legacy`` and ``fast``);
* the *fixed* program yields a fresh fixed-width outbox every round
  (``Outbox.fixed_width`` for unicast/CONGEST, ``Outbox.broadcast_uint``
  on the blackboard), as every library protocol does (rows
  ``legacy+fixed`` and ``fast+fixed``); its unicast and CONGEST rounds
  cross the wire as plain ints.

The ``fast`` engine runs the legacy loop, so every speedup times one
delivery path twice and reads about 1.0x: it is a check that the two
names stay one engine, and a row's msgs/s is the number to track.  A
speedup is timed like the overhead gates below: the median, over
interleaved pairs of runs, of the ratio of legacy's CPU time over
fast's.  A row's own seconds and rates are its best wall-clock run.

Workloads (width-32 payloads):

* ``unicast``   — all-to-all on the clique: n·(n-1) messages per round;
* ``broadcast`` — every node writes the blackboard: n·(n-1) deliveries
                  per round;
* ``congest``   — a ring topology: 2n messages per round (dominated by
                  per-round overhead, i.e. a rounds/sec probe).

A ``kernels`` section measures the kernel-program path, the one
compiled path: a repeated unicast workload expressed as declared round
kernels — zero generator resumptions — against plain fast-engine runs
of its generator twin, at n ∈ {64, 256} (quick: {16, 32}), plus a
Lenzen-routing sweep comparing ``route_kernel_program`` with the
generator ``route_program`` under ``run_many``.

A ``plans`` section times Theorem 2 plan builds end to end, one row
per (circuit family, n), each in a fresh child process: the circuit,
``build_plan``, the generator view and the kernel plan, plus the
child's peak RSS.

A ``sharded`` section runs one sweep through the sweep executor at
several worker counts (:mod:`repro.scenarios.sweep`), asserts the
pooled digests byte-identical to the in-process run, aggregates
per-worker accounting (cells / seconds / bits), and gates ``run()``'s
dispatch overhead over a bare loop of ``run_coordinate`` calls at
1.05x.  A ``faults`` section gates an inactive ``FaultPlan`` at 1.05x
of no plan.  Both gates read the median, over interleaved pairs of
runs, of the ratio of the two runs' CPU times.

Run from the repo root (writes ``BENCH_engine.json`` there)::

    PYTHONPATH=src python benchmarks/bench_engine.py            # full sweep
    PYTHONPATH=src python benchmarks/bench_engine.py --quick    # CI smoke

The JSON keeps a per-config table plus ``speedups``, an ``acceptance``
block (the unicast dict program's ``speedups`` entry at the largest
size, kernel vs. the plain fast engine on the repeated unicast sweep,
the two overhead gates), and a ``meta`` block
stamping python/numpy versions and the git revision so
the perf trajectory across PRs stays comparable.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
if "repro" not in sys.modules:
    sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np

from repro.core.bits import Bits
from repro.core.network import Mode, Network, Outbox

WIDTH = 32
MASK = (1 << WIDTH) - 1


# -- node programs ------------------------------------------------------


def unicast_dict_program(rounds):
    def program(ctx):
        me = ctx.node_id
        payloads = {
            v: Bits.from_uint((me * 2654435761 + v) & MASK, WIDTH)
            for v in ctx.neighbors
        }
        for _ in range(rounds):
            yield Outbox.unicast(payloads)
        return None

    return program


def unicast_fixed_program(rounds):
    def program(ctx):
        me = ctx.node_id
        dests = np.fromiter(ctx.neighbors, dtype=np.intp, count=len(ctx.neighbors))
        values = (dests.astype(np.uint64) + np.uint64(me * 2654435761)) & np.uint64(MASK)
        # A fresh outbox every round, as every library protocol yields,
        # so the row times the round's validation and delivery.
        for _ in range(rounds):
            yield Outbox.fixed_width(dests, values, WIDTH)
        return None

    return program


def broadcast_program(rounds):
    def program(ctx):
        payload = Bits.from_uint((ctx.node_id * 2654435761) & MASK, WIDTH)
        for _ in range(rounds):
            yield Outbox.broadcast(payload)
        return None

    return program


def broadcast_fixed_program(rounds):
    def program(ctx):
        value = (ctx.node_id * 2654435761) & MASK
        for _ in range(rounds):
            yield Outbox.broadcast_uint(value, WIDTH)
        return None

    return program


# -- harness ------------------------------------------------------------


def ring_topology(n):
    return [[(v - 1) % n, (v + 1) % n] for v in range(n)]


def _time_best(fn, repeats):
    """Best-of-N wall clock for one workload; returns (seconds, value)."""
    best = float("inf")
    value = None
    for _ in range(repeats):
        start = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - start)
    return best, value


def _time_abba(fn_a, fn_b, pairs):
    """Time two workloads in ``pairs`` interleaved pairs, in ABBA order
    (A B B A A B ...) so drift in machine speed lands on both sides
    alike.  Returns ``(ratio, (seconds_a, value_a), (seconds_b,
    value_b))``: ``ratio`` is the median over the pairs of B's CPU time
    over A's, and each side's seconds are its best wall-clock time.

    CPU time leaves out the time the process waits for a core, and the
    median leaves out the pairs a burst of load hit.  A ratio of the two
    best wall-clock samples instead reads whichever side drew the
    luckier sample: on identical code on a shared 2-vCPU VM it read
    0.82-1.21x.
    """
    fns = (fn_a, fn_b)
    best = [float("inf"), float("inf")]
    values = [None, None]
    ratios = []
    for i in range(pairs):
        cpu = [0.0, 0.0]
        for side in (0, 1) if i % 2 == 0 else (1, 0):
            wall, start = time.perf_counter(), time.process_time()
            values[side] = fns[side]()
            cpu[side] = time.process_time() - start
            best[side] = min(best[side], time.perf_counter() - wall)
        ratios.append(cpu[1] / cpu[0])
    return statistics.median(ratios), (best[0], values[0]), (best[1], values[1])


def bench_config(mode, n, engine, fixed, rounds):
    """One (mode, n, engine, program) workload: ``(label, messages,
    run)``, ``run`` a no-argument callable running it once."""
    if mode == "unicast":
        network = Network(n=n, bandwidth=WIDTH, mode=Mode.UNICAST, engine=engine)
        maker = unicast_fixed_program if fixed else unicast_dict_program
        messages_per_round = n * (n - 1)
    elif mode == "broadcast":
        network = Network(n=n, bandwidth=WIDTH, mode=Mode.BROADCAST, engine=engine)
        maker = broadcast_fixed_program if fixed else broadcast_program
        messages_per_round = n * (n - 1)  # deliveries; bits charged once/writer
    elif mode == "congest":
        network = Network(
            n=n,
            bandwidth=WIDTH,
            mode=Mode.CONGEST,
            topology=ring_topology(n),
            engine=engine,
        )
        maker = unicast_fixed_program if fixed else unicast_dict_program
        messages_per_round = 2 * n
    else:  # pragma: no cover - config typo guard
        raise ValueError(mode)
    label = f"{engine}+fixed" if fixed else engine
    program = maker(rounds)
    return label, messages_per_round * rounds, lambda: network.run(program)


def rounds_for(mode, n, quick):
    if mode == "congest":
        budget = 4_000 if quick else 100_000
        return max(10, min(400, budget // (2 * n)))
    budget = 10_000 if quick else 400_000
    return max(3, min(100, budget // (n * (n - 1))))


def run_sweep(sizes, quick, repeats):
    """Every mode and size, each program on both engines; returns the
    config rows and ``speedups``, fast over legacy per program.  Each
    program's two runs are timed in ``10 * repeats`` interleaved pairs
    (:func:`_time_abba`)."""
    configs = []
    speedups = {}
    for mode in ("unicast", "broadcast", "congest"):
        for n in sizes:
            rounds = rounds_for(mode, n, quick)
            bit_totals = set()
            for fixed in (False, True):
                legacy = bench_config(mode, n, "legacy", fixed, rounds)
                fast = bench_config(mode, n, "fast", fixed, rounds)
                speedup, fast_timing, legacy_timing = _time_abba(
                    fast[2], legacy[2], 10 * repeats
                )
                for (label, messages, _run), (seconds, result) in (
                    (legacy, legacy_timing),
                    (fast, fast_timing),
                ):
                    assert result.rounds == rounds
                    bit_totals.add(result.total_bits)
                    record = {
                        "mode": mode,
                        "n": n,
                        "engine": label,
                        "program": "fixed" if fixed else "dict",
                        "rounds": rounds,
                        "messages": messages,
                        "total_bits": result.total_bits,
                        "seconds": round(seconds, 6),
                        "rounds_per_sec": round(rounds / seconds, 2),
                        "messages_per_sec": round(messages / seconds, 1),
                    }
                    configs.append(record)
                    print(
                        f"{mode:>9}  n={n:<4} {label:<14} "
                        f"{record['rounds_per_sec']:>10.1f} rounds/s  "
                        f"{record['messages_per_sec']:>12.0f} msgs/s"
                    )
                speedups.setdefault(f"{mode}/n={n}", {})[fast[0]] = round(speedup, 2)
            # Same traffic, same accounting — the dict program's Bits and
            # the fixed program's ints must be charged alike on both names.
            assert len(bit_totals) == 1, f"runs disagree on bits: {mode} n={n}"
    return configs, speedups


def unicast_kernel_program(n, rounds):
    """The kernel twin of ``unicast_fixed_program``: the same all-to-all
    constant payload, built once per run and sent every round (the
    engine copies and validates it each round, as it does any payload)."""
    from repro.core.kernels import KernelBuilder

    builder = KernelBuilder(n, Mode.UNICAST)
    pairs = [(v, [u for u in range(n) if u != v]) for v in range(n)]
    # The flat all-to-all payload (ascending sender, ascending dest,
    # diagonal dropped) in a handful of whole-matrix numpy ops.
    senders = np.arange(n, dtype=np.uint64)
    matrix = (senders[None, :] + senders[:, None] * np.uint64(2654435761)) & np.uint64(MASK)
    flat = matrix[~np.eye(n, dtype=bool)]

    def init(state, kctx):
        state["values"] = np.broadcast_to(flat, (kctx.instances, flat.size))

    builder.on_init(init)

    def send(state):
        return state["values"]

    for _ in range(rounds):
        builder.unicast_round(pairs, WIDTH, send)
    return builder.build(
        lambda state, kctx: [[None] * n for _ in range(kctx.instances)],
        name="unicast_sweep",
    )


def bench_kernels(quick, repeats):
    """Kernel programs vs plain fast-engine runs of their generator
    twins: the repeated unicast sweep (the acceptance workload) and a
    routing trial sweep."""
    records = []
    sizes = [16, 32] if quick else [64, 256]
    for n in sizes:
        rounds = 10 if quick else 20
        instances = 4 if quick else 12
        deliveries = instances * rounds * n * (n - 1)
        record = {"scenario": "kernel_unicast", "n": n, "rounds": rounds,
                  "instances": instances}
        totals = set()

        # The generator twin on the fast engine (ints on the wire).
        fast_net = Network(n=n, bandwidth=WIDTH, mode=Mode.UNICAST)
        gen_program = unicast_fixed_program(rounds)
        fast_net.run(gen_program)  # warm off-clock

        def fast_workload():
            return [fast_net.run(gen_program) for _ in range(instances)]

        seconds, results = _time_best(fast_workload, repeats)
        totals.update(r.total_bits for r in results)
        record["fast"] = {
            "seconds": round(seconds, 6),
            "messages_per_sec": round(deliveries / seconds, 1),
        }

        # Kernel path: same structure, zero generator steps.
        kernel_net = Network(n=n, bandwidth=WIDTH, mode=Mode.UNICAST)
        kernel_program = unicast_kernel_program(n, rounds)
        kernel_net.run(kernel_program)  # compile off-clock

        def kernel_workload():
            return [kernel_net.run(kernel_program) for _ in range(instances)]

        seconds, results = _time_best(kernel_workload, repeats)
        totals.update(r.total_bits for r in results)
        record["kernel"] = {
            "seconds": round(seconds, 6),
            "messages_per_sec": round(deliveries / seconds, 1),
        }

        # And the batched kernel sweep (one run_many call).
        def kernel_batched():
            return kernel_net.run_many(kernel_program, [None] * instances)

        seconds, results = _time_best(kernel_batched, repeats)
        totals.update(r.total_bits for r in results)
        record["kernel_batched"] = {
            "seconds": round(seconds, 6),
            "messages_per_sec": round(deliveries / seconds, 1),
        }
        assert len(totals) == 1, f"paths disagree on bits: {record}"
        record["kernel_speedup_vs_fast"] = round(
            record["kernel"]["messages_per_sec"]
            / record["fast"]["messages_per_sec"],
            2,
        )
        record["kernel_batched_speedup_vs_fast"] = round(
            record["kernel_batched"]["messages_per_sec"]
            / record["fast"]["messages_per_sec"],
            2,
        )
        print(
            f"{record['scenario']:>22}  n={n:<4} "
            f"kernel {record['kernel_speedup_vs_fast']}x  "
            f"batched {record['kernel_batched_speedup_vs_fast']}x vs fast"
        )
        records.append(record)

    # Routing trial sweep: kernel program vs generator program, both
    # through run_many on one network each.
    import random as _random

    from repro.routing import build_schedule, route_kernel_program, route_program

    n_route = 16 if quick else 48
    frame_size = 16
    route_instances = 6 if quick else 16
    rng = _random.Random(9)
    demand = {}
    for src in range(n_route):
        for dst in range(n_route):
            if src != dst and rng.random() < 0.7:
                demand[(src, dst)] = rng.randint(1, 3)
    schedule = build_schedule(demand, n_route)

    def route_inputs(k):
        contents = _random.Random(1000 + k)
        per_node = [dict() for _ in range(n_route)]
        for (src, dst), count in demand.items():
            for idx in range(count):
                per_node[src][(src, dst, idx)] = contents.getrandbits(frame_size)
        return per_node

    inputs_list = [route_inputs(k) for k in range(route_instances)]
    record = {
        "scenario": "kernel_routing_many",
        "n": n_route,
        "instances": route_instances,
        "frames": sum(demand.values()),
        "frame_size": frame_size,
    }
    gen_program = route_program(schedule, frame_size)
    gen_net = Network(n=n_route, bandwidth=frame_size)
    gen_net.run_many(gen_program, inputs_list[:1])  # warm off-clock
    gen_s, gen_results = _time_best(
        lambda: gen_net.run_many(gen_program, inputs_list), repeats
    )
    kernel_program = route_kernel_program(schedule, frame_size)
    kernel_net = Network(n=n_route, bandwidth=frame_size)
    kernel_net.run_many(kernel_program, inputs_list[:1])  # compile off-clock
    ker_s, ker_results = _time_best(
        lambda: kernel_net.run_many(kernel_program, inputs_list), repeats
    )
    assert [r.outputs for r in gen_results] == [r.outputs for r in ker_results]
    assert [r.total_bits for r in gen_results] == [
        r.total_bits for r in ker_results
    ]
    record["generator_run_many_seconds"] = round(gen_s, 6)
    record["kernel_run_many_seconds"] = round(ker_s, 6)
    record["kernel_speedup_vs_generator"] = round(gen_s / ker_s, 2)
    print(
        f"{record['scenario']:>22}  n={n_route:<4} "
        f"generator {gen_s:.3f}s  kernel {ker_s:.3f}s  "
        f"({record['kernel_speedup_vs_generator']}x)"
    )
    records.append(record)
    return records


def bench_faults(quick, repeats):
    """The zero-overhead contract of the fault layer: carrying an
    *inactive* FaultPlan (all rates zero, no triggers) must cost the
    fast engine nothing measurable — one attribute check per run — so
    the chaos machinery can ship enabled-by-default.  An active chaos
    run is timed alongside for context (no gate: it legitimately takes
    the full-execution path)."""
    from repro.core.faults import FaultPlan

    n = 16 if quick else 32
    rounds = rounds_for("unicast", n, quick)
    pairs = 20 * repeats

    def workload(plan):
        network = Network(
            n=n,
            bandwidth=WIDTH,
            mode=Mode.UNICAST,
            engine="fast",
            fault_plan=plan,
        )
        program = unicast_fixed_program(rounds)
        return lambda: network.run(program)

    # No plan and an inactive plan take one code path: time them
    # interleaved, so drift cannot read as overhead.
    overhead, (base_seconds, base), (idle_seconds, idle) = _time_abba(
        workload(None), workload(FaultPlan(seed=1)), pairs
    )
    chaos_seconds, chaos = _time_best(
        workload(FaultPlan(seed=1, drop_rate=0.02, corrupt_rate=0.02)), repeats
    )
    assert base.total_bits == idle.total_bits
    assert base.faults is None and idle.faults is None
    assert chaos.faults, "active plan injected nothing — widen the workload"
    record = {
        "n": n,
        "rounds": rounds,
        "pairs": pairs,
        "no_plan_seconds": round(base_seconds, 6),
        "inactive_plan_seconds": round(idle_seconds, 6),
        "chaos_plan_seconds": round(chaos_seconds, 6),
        "chaos_fault_events": len(chaos.faults),
        "inactive_plan_overhead": round(overhead, 4),
    }
    print(
        f"   faults  n={n:<4} inactive-plan overhead "
        f"{overhead:.3f}x  chaos {chaos_seconds / base_seconds:.2f}x "
        f"({len(chaos.faults)} events)"
    )
    assert overhead <= 1.05, (
        f"inactive FaultPlan costs {overhead:.3f}x on the fast path "
        "(budget 1.05x) — the no-plan short-circuit regressed"
    )
    return record


def bench_sharded(quick, repeats):
    """The sweep executor: the same sweep in process and pooled.

    Two contracts are gated here.  Determinism: pooled digests must be
    byte-identical to the in-process run at every tested worker count.
    Zero-cost dispatch: ``run()`` with no sweep keywords must cost no
    more than 1.05x a bare loop over ``run_coordinate`` and
    ``_finalize_coordinate`` — the executor's journal, replay and pool
    plumbing must not tax users who never use them.  Per-worker
    accounting (cells / seconds / bits per worker) is aggregated into
    the report for the pooled runs.
    """
    from repro.scenarios import MatrixResult, ScenarioMatrix, get_protocol

    protocols = ["routing", "mst"]
    families = ["gnp"] if quick else ["gnp", "cycle"]
    sizes = [8] if quick else [8, 16]
    worker_counts = [2] if quick else [1, 2, 4]
    pairs = 20 * repeats

    def make():
        return ScenarioMatrix(
            protocols, families, sizes,
            engines=["legacy", "fast"], seed=20260808,
        )

    def views(result):
        return [
            (c.protocol, c.family, c.n, c.engine, c.status, c.digest)
            for c in result.cells
        ]

    def bare_loop():
        matrix = make()
        result = MatrixResult(meta={})
        for protocol, family, n in matrix.coordinates():
            spec = get_protocol(protocol)
            cells = matrix.run_coordinate(
                spec, family, n, matrix.ordered_engines()
            )
            matrix._finalize_coordinate(cells)
            result.cells.extend(cells)
        return result

    overhead, (raw_seconds, serial), (run_seconds, via_run) = _time_abba(
        bare_loop, lambda: make().run(), pairs
    )
    assert views(via_run) == views(serial)
    record = {
        "protocols": protocols,
        "families": families,
        "sizes": sizes,
        "cells": len(serial.cells),
        "pairs": pairs,
        "serial_raw_seconds": round(raw_seconds, 6),
        "serial_run_seconds": round(run_seconds, 6),
        "serial_dispatch_overhead": round(overhead, 4),
        "pool": {},
    }
    print(
        f"   sharded serial {len(serial.cells)} cells "
        f"{raw_seconds:.3f}s  dispatch overhead {overhead:.3f}x"
    )
    for workers in worker_counts:
        seconds, pooled = _time_best(
            lambda w=workers: make().run(workers=w), 1
        )
        assert views(pooled) == views(serial), (
            f"pooled sweep diverged from the in-process run at W={workers}"
        )
        pool_meta = pooled.meta["pool"]
        assert pool_meta["executor"] == "pool", pool_meta
        record["pool"][f"W={workers}"] = {
            "seconds": round(seconds, 6),
            "speedup_vs_serial": round(raw_seconds / seconds, 4),
            "respawns": pool_meta["respawns"],
            "quarantined": len(pool_meta["quarantined"]),
            "worker_stats": pool_meta["worker_stats"],
        }
        busiest = max(
            (s["cells"] for s in pool_meta["worker_stats"].values()),
            default=0,
        )
        print(
            f"   sharded W={workers}  {seconds:.3f}s  "
            f"digests identical  busiest worker {busiest} cells"
        )
    assert overhead <= 1.05, (
        f"run() costs {overhead:.3f}x a bare run_coordinate loop "
        "(budget 1.05x) — its dispatch regressed"
    )
    record["digest_match"] = True
    return record


#: One Theorem 2 plan build, in a fresh interpreter: the wall seconds of
#: the circuit, ``build_plan``, the generator view and the kernel plan,
#: and the process's peak RSS (``VmHWM``: ``ru_maxrss`` would carry the
#: parent's peak over the fork), as one JSON line.
_PLAN_PROBE = """
import json, sys, time
family, n = sys.argv[1], int(sys.argv[2])
from repro.simulation.protocol import build_plan
if family == "strassen":
    from repro.circuits.arithmetic import matmul_circuit_strassen
    from repro.matmul.distributed import matmul_input_partition
    circuit_of, partition = matmul_circuit_strassen, matmul_input_partition(n)
else:
    from repro.circuits.builders import threshold_parity_circuit
    circuit_of, partition = threshold_parity_circuit, None
marks = [time.perf_counter()]
circuit = circuit_of(n)
marks.append(time.perf_counter())
plan = build_plan(circuit, n, partition)
marks.append(time.perf_counter())
plan.view()
marks.append(time.perf_counter())
plan.kernel_plan()
marks.append(time.perf_counter())
steps = [b - a for a, b in zip(marks, marks[1:])]
print(json.dumps({
    "gates": len(circuit), "wires": circuit.wire_count(),
    "circuit_s": steps[0], "build_plan_s": steps[1], "view_s": steps[2],
    "kernel_plan_s": steps[3], "total_s": sum(steps),
    "peak_rss_mb": next(
        int(line.split()[1]) / 1024
        for line in open("/proc/self/status") if line.startswith("VmHWM")
    ),
}))
"""


def bench_plans(quick):
    """Theorem 2 plan builds per (circuit family, n), each in a fresh
    child process so its peak RSS is its own: Strassen n=16 and
    threshold/parity n=64 (the plans the registry holds at perfbench's
    ``local`` sizes), plus Strassen n ∈ {32, 64} and threshold/parity
    n ∈ {128, 256} in the full sweep."""
    rows = [("strassen", 16), ("threshold_parity", 64)]
    if not quick:
        rows += [("strassen", 32), ("strassen", 64),
                 ("threshold_parity", 128), ("threshold_parity", 256)]
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    records = []
    for family, n in rows:
        done = subprocess.run(
            [sys.executable, "-c", _PLAN_PROBE, family, str(n)],
            env=env, capture_output=True, text=True, check=True,
        )
        record = {"family": family, "n": n, **json.loads(done.stdout)}
        records.append(record)
        print(
            f"plan {family:>16} n={n:<4} circuit {record['circuit_s']:.3f}s "
            f"build_plan {record['build_plan_s']:.3f}s view {record['view_s']:.3f}s "
            f"kernel plan {record['kernel_plan_s']:.3f}s "
            f"peak RSS {record['peak_rss_mb']:.1f} MB"
        )
    return records


def _git(*args):
    """stdout of ``git args`` at the repo root, or None if git fails."""
    try:
        done = subprocess.run(
            ["git", *args],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout if done.returncode == 0 else None


def bench_meta():
    """Environment stamp so BENCH_engine.json files are comparable
    across PRs and machines.  ``git_dirty`` says whether tracked files
    differed from ``git_revision`` when the numbers were taken."""
    revision = (_git("rev-parse", "--short", "HEAD") or "").strip() or None
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "git_revision": revision,
        "git_dirty": None if status is None else bool(status.strip()),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--sizes", type=int, nargs="+", default=None, help="node counts to sweep"
    )
    parser.add_argument(
        "--quick", action="store_true", help="small sizes / few rounds (CI smoke)"
    )
    parser.add_argument("--repeats", type=int, default=None)
    parser.add_argument(
        "--out",
        type=pathlib.Path,
        default=REPO_ROOT / "BENCH_engine.json",
        help="where to write the JSON report",
    )
    args = parser.parse_args(argv)
    if args.sizes and min(args.sizes) < 2:
        parser.error("--sizes values must be >= 2 (a 1-node clique has no links)")
    sizes = args.sizes or ([16, 32] if args.quick else [32, 64, 128, 256])
    repeats = args.repeats or (1 if args.quick else 3)

    configs, speedups = run_sweep(sizes, args.quick, repeats)
    kernels = bench_kernels(args.quick, repeats)
    faults = bench_faults(args.quick, repeats)
    sharded = bench_sharded(args.quick, repeats)
    plans = bench_plans(args.quick)

    top_n = max(sizes)
    acceptance_key = f"unicast/n={top_n}"
    acceptance = {
        "mode": "unicast",
        "n": top_n,
        "fast_speedup": speedups[acceptance_key].get("fast"),
        "kernel_vs_fast_msgs_per_sec": max(
            (rec for rec in kernels if rec["scenario"] == "kernel_unicast"),
            key=lambda rec: rec["n"],
        )["kernel_speedup_vs_fast"],
        "kernel_speedups": {
            f"{rec['scenario']}/n={rec['n']}": (
                rec.get("kernel_speedup_vs_fast")
                or rec.get("kernel_speedup_vs_generator")
            )
            for rec in kernels
        },
        "faults_disabled_overhead": faults["inactive_plan_overhead"],
        "sharded_serial_overhead": sharded["serial_dispatch_overhead"],
        "sharded_digest_match": sharded["digest_match"],
        "sharded_worker_counts": sorted(sharded["pool"]),
    }
    report = {
        "generated_by": "benchmarks/bench_engine.py",
        "meta": bench_meta(),
        "width_bits": WIDTH,
        "quick": args.quick,
        "repeats": repeats,
        "configs": configs,
        "speedups": speedups,
        "kernels": kernels,
        "faults": faults,
        "sharded": sharded,
        "plans": plans,
        "acceptance": acceptance,
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print("\nspeedups vs legacy (median CPU-time ratio):")
    for key, values in speedups.items():
        print(f"  {key:<18} {values}")
    print(f"\nwrote {args.out}")
    return report


if __name__ == "__main__":
    main()
