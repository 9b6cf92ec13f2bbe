"""End-to-end sweep benchmark of the congested-clique library.

Run from the repository root::

    python3 perfbench/run.py --workload local --seed 1 --seconds 15 --trace 0

The workloads are defined in ``sweep.py``; ``BENCHMARK.json`` at the
repository root lists them with the metrics.  One run:

1. **Set-up.**  ``SETUP_REPEATS`` times, a fresh interpreter imports the
   library from ``src/`` and runs one golden pass (below); ``setup_s``
   is the median time, scaled to the reference machine speed as pass
   times are.  This is the work every run does before it
   measures, so work moved out of the measured passes into import or
   first-use initialisation shows here.
2. **Golden pass.**  The run itself does one pass at the fixed sweep
   seed ``GOLDEN_SEED`` and compares every coordinate's digest with
   ``golden.json``, which pins the legacy reference engine's output.  It
   also warms lazy caches before timing.
3. **Measured passes.**  Passes over fresh instances derived from
   ``--seed`` repeat until ``--seconds`` have passed, with a
   calibration (:func:`_calibration`) before the first and after every
   pass.  Every cell is validated against ground truth and against the
   reference engine's digest.

With ``--trace 0`` the last line of stdout reports the end-to-end
metrics: ``sweep_s`` (median pass time at the reference machine speed,
see :data:`CALIBRATION_REFERENCE_S`), ``setup_s`` and ``peak_rss_mb``.
With ``--trace 1`` the passes run with span tracing (``spans.py``) and
the line reports per-layer self times and work counts per pass; the
spans are written to ``.perfbench/``.

``--write-golden`` recomputes ``golden.json``; run it only when a change
to the workloads or to a protocol's intended output makes the old
digests wrong.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden.json"
TRACE_DIR = ROOT / ".perfbench"

#: Sweep seed of the golden pass.
GOLDEN_SEED = 0
#: Fresh-interpreter set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: A set-up that takes longer than this counts as failed.
SETUP_TIMEOUT_S = 120
#: The typical time of one :func:`_calibration` on the machine the
#: benchmark was tuned on (a shared 2-vCPU cloud VM, Python 3.11).  Pass
#: times are divided by the calibration timed around them and reported
#: at this speed, so ``sweep_s`` reads in seconds and does not follow the
#: machine's speed from minute to minute; set-up times likewise.
CALIBRATION_REFERENCE_S = 0.0125

#: Per-layer time metrics: metric name -> the spans whose self times it
#: sums.  Every workload passes through each of these layers, so none
#: reads 0 on any workload.  Plan, circuit and routing-schedule
#: construction happen in only some workloads, and so does the kernel
#: engine with its compilation; they count towards their enclosing
#: layer here, and the written trace keeps them apart.
LAYER_SPANS = {
    "instance_ms": ("instance",),
    "prepare_ms": ("prepare", "plan", "circuit", "schedule"),
    "run_ms": ("run.legacy", "run.fast", "run.kernel", "compile"),
    "run_legacy_ms": ("run.legacy",),
    "run_fast_ms": ("run.fast",),
    "deliver_ms": ("deliver",),
    "check_ms": ("check",),
}
#: Per-layer work counts: Tally fields, reported per pass.
TALLY_COUNTS = ("compiles", "replays", "replay_fallbacks", "engine_fallbacks")


def _import_library() -> None:
    """Import ``repro`` from this checkout's ``src/``, and nowhere else."""
    sys.path.insert(0, str(SRC))
    import repro

    location = Path(repro.__file__).resolve()
    if not location.is_relative_to(SRC):
        raise ImportError(f"repro imported from {location}, not from {SRC}")


def _calibration() -> float:
    """Wall time of a fixed computation that uses no part of the library:
    a dict-and-tuple loop like the engines' per-message bookkeeping, then
    numpy arithmetic like the lanes'.  On a shared machine, whose speed
    drifts by tens of percent, it tracks the speed of the moment."""
    import numpy as np

    start = time.perf_counter()
    acc = 0
    table: Dict[int, int] = {}
    for i in range(20000):
        key = i & 1023
        table[key] = table.get(key, 0) + (i * 7 >> 3)
        acc ^= hash((i, acc & 255))
    values = np.arange(1 << 16, dtype=np.int64)
    for _ in range(20):
        acc ^= int((values * 3 + 1).sum())
    return time.perf_counter() - start


def _golden_pass(workload: str) -> bool:
    """One pass at the golden seed; whether it reproduced golden.json."""
    from sweep import WORKLOADS, Tally, run_pass

    tally = Tally()
    run_pass(WORKLOADS[workload], GOLDEN_SEED, tally)
    expected = json.loads(GOLDEN.read_text())["digests"].get(workload)
    ok = tally.failed == 0 and tally.digests == expected
    if not ok:
        print(
            f"perfbench: golden digests differ for {workload}: "
            f"got {tally.digests}, expected {expected}",
            file=sys.stderr,
        )
    return ok


def _write_golden() -> int:
    from sweep import WORKLOADS, Tally, run_pass

    digests: Dict[str, Dict[str, str]] = {}
    for name, coordinates in WORKLOADS.items():
        tally = Tally()
        run_pass(coordinates, GOLDEN_SEED, tally)
        if tally.failed:
            print(f"perfbench: {name} failed; golden not written", file=sys.stderr)
            return 1
        digests[name] = tally.digests
    GOLDEN.write_text(
        json.dumps({"seed": GOLDEN_SEED, "digests": digests}, indent=2, sort_keys=True)
        + "\n"
    )
    return 0


def _measure_setup(workload: str) -> Tuple[List[float], bool]:
    """Each fresh-interpreter set-up's time at the reference machine
    speed, and whether all of them succeeded (measuring stops at the
    first failure).  A set-up prints the mean of the calibrations it
    times around its golden pass, and its wall time is scaled by that,
    as pass times are."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--setup-probe"]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        try:
            done = subprocess.run(
                command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                timeout=SETUP_TIMEOUT_S, check=False,
            )
        except subprocess.TimeoutExpired:
            return times, False
        elapsed = time.perf_counter() - start
        if done.returncode != 0:
            return times, False
        calibration = float(done.stdout.split()[-1])
        times.append(elapsed * CALIBRATION_REFERENCE_S / calibration)
    return times, True


def _metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--write-golden", action="store_true")
    args = parser.parse_args(argv)

    try:
        _import_library()
    except ImportError as exc:
        print(f"perfbench: cannot import the library: {exc}", file=sys.stderr)
        return 2
    from spans import Tracer, deep_spans, median_per_root
    from sweep import PASS_STRIDE, WORKLOADS, Tally, run_pass

    if args.write_golden:
        return _write_golden()
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    if args.setup_probe:
        before = _calibration()
        ok = _golden_pass(args.workload)
        print((before + _calibration()) / 2)
        return 0 if ok else 1

    # Traced runs report no set-up time, so they skip measuring it.
    setup_times, setup_ok = [], True
    if not args.trace:
        setup_times, setup_ok = _measure_setup(args.workload)
    golden_ok = _golden_pass(args.workload)

    coordinates = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    tally = Tally()
    pass_times: List[float] = []
    calibrations = [_calibration()]
    with deep_spans(tracer) if tracer else contextlib.nullcontext():
        deadline = time.perf_counter() + args.seconds
        while not pass_times or time.perf_counter() < deadline:
            start = time.perf_counter()
            run_pass(coordinates, args.seed * PASS_STRIDE + len(pass_times),
                     tally, tracer)
            pass_times.append(time.perf_counter() - start)
            calibrations.append(_calibration())
    sweep_s = CALIBRATION_REFERENCE_S * statistics.median(
        elapsed / ((before + after) / 2)
        for elapsed, before, after in zip(pass_times, calibrations, calibrations[1:])
    )

    if tracer is None:
        metrics = {
            "sweep_s": _metric(sweep_s, "s"),
            "setup_s": _metric(statistics.median(setup_times or [0.0]), "s"),
            "peak_rss_mb": _metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"
            ),
        }
    else:
        TRACE_DIR.mkdir(exist_ok=True)
        tracer.write(str(TRACE_DIR / f"trace-{args.workload}-{args.seed}.jsonl"))
        self_times = tracer.self_times()
        counts = tracer.counts()
        passes = len(pass_times)
        metrics = {"traced_sweep_s": _metric(sweep_s, "s")}
        for metric, names in LAYER_SPANS.items():
            metrics[metric] = _metric(1000 * median_per_root(self_times, names), "ms")
        metrics["deliver_calls"] = _metric(median_per_root(counts, ("deliver",)), "count")
        for name in TALLY_COUNTS:
            metrics[name] = _metric(getattr(tally, name) / passes, "count")

    correct = golden_ok and setup_ok and tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.cells,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
