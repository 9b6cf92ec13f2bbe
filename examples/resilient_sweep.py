"""The resilient sweep executor, end to end.

Three acts:

1. run a sweep on the supervised worker pool and show that its digests
   are byte-identical to the same sweep run in process;
2. kill a worker mid-sweep (the pool's own chaos hook) and watch the
   supervisor respawn it and retry the interrupted cell — same digests;
3. interrupt a journaled sweep partway, then resume it: completed cells
   replay from the journal (zero re-execution) and the final result
   still matches the uninterrupted run.

Run:  PYTHONPATH=src python examples/resilient_sweep.py
"""

from __future__ import annotations

import os
import tempfile

from repro.scenarios import ScenarioMatrix
from repro.scenarios.sweep import SweepJournal


def sweep() -> ScenarioMatrix:
    return ScenarioMatrix(
        ["routing", "mst"], ["gnp"], [8], engines=["legacy", "kernel"]
    )


def digests(result):
    return [(c.protocol, c.engine, c.digest) for c in result.cells]


def main() -> None:
    serial = sweep().run()
    print(f"in process: {len(serial.cells)} cells, "
          f"{len(serial.mismatches())} mismatches")

    # Act 1: the same sweep, its coordinates spread across two
    # supervised workers.
    pooled = sweep().run(workers=2)
    stats = pooled.meta["pool"]["worker_stats"]
    print(f"pooled (W=2): digests identical: {digests(pooled) == digests(serial)}")
    for wid, st in stats.items():
        print(f"  worker {wid}: {st['cells']} cells, {st['seconds']:.3f}s")

    # Act 2: SIGKILL a worker once the first cells complete.  The
    # supervisor respawns it and retries whatever it was running.
    chaotic = sweep().run(workers=2, chaos_kills=[1])
    pool = chaotic.meta["pool"]
    print(f"chaos kill: respawns={pool['respawns']}, "
          f"digests identical: {digests(chaotic) == digests(serial)}")

    # Act 3: journal, interrupt, resume.
    with tempfile.TemporaryDirectory() as tmp:
        journal = os.path.join(tmp, "sweep.jsonl")
        partial = sweep().run(workers=2, journal=journal, stop_after_cells=2)
        done = len(SweepJournal.load(journal).cells)
        print(f"interrupted after {done} journaled cells "
              f"(interrupted={partial.meta['pool']['interrupted']})")
        resumed = sweep().run(workers=2, resume_from=journal)
        loaded = SweepJournal.load(journal)
        print(f"resumed: replayed={resumed.meta['replayed_cells']}, "
              f"re-executed={len(loaded.duplicate_keys())}, "
              f"digests identical: {digests(resumed) == digests(serial)}")


if __name__ == "__main__":
    main()
