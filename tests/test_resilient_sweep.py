"""The resilient sweep executor: worker pool, journal, resume.

The hard invariant under test is determinism — `MatrixResult` digests
byte-identical across worker counts, scheduling orders, injected worker
kills and kill-then-resume boundaries — plus the supervision semantics:
per-cell deadlines, crash retry with backoff, poison quarantine, and
graceful degradation to the in-process executor.

The chaos-protocol prepare hooks below are module-level on purpose:
specs pickle across the spawn boundary by reference, so the worker
children import this module to run them.
"""

import json
import os
import pickle
import signal
import subprocess
import sys
import time

import pytest

from repro.analysis.budget import BandwidthBudget
from repro.core.errors import (
    CellTimeoutError,
    ReproError,
    SweepExecutionError,
    SweepResumeError,
    WorkerCrashError,
)
from repro.core.faults import FaultPlan
from repro.core.network import Mode, Outbox
from repro.scenarios import (
    PROTOCOLS,
    PreparedScenario,
    ProtocolSpec,
    ScenarioMatrix,
    get_protocol,
    register_protocol,
)
from repro.scenarios.matrix import DEFAULT_CELL_ROUND_LIMIT
from repro.scenarios.sweep import SweepJournal, sweep_fingerprint, verify_journal

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def cell_views(result):
    """The determinism fingerprint of a sweep: every per-cell field that
    must be byte-identical across execution shapes (notably excluding
    timings and attempt counts, which legitimately vary)."""
    return [
        (
            c.protocol, c.family, c.n, c.engine, c.status, c.digest,
            c.rounds, c.total_bits, c.max_round_bits, c.validated,
            c.matches_reference, c.detected,
        )
        for c in result.cells
    ]


# -- module-level chaos protocols (picklable by reference) ----------------

#: Every chaos protocol broadcasts 4-bit words.
WORD = BandwidthBudget(flat=4)


def _prepare_const(n, graph, rng):
    rounds = 2

    def program(ctx):
        heard = []
        for r in range(rounds):
            inbox = yield Outbox.broadcast_uint((ctx.node_id + r) & 0xF, 4)
            heard.append(tuple(sorted(inbox.uint_items())))
        return tuple(heard)

    def summarize(result):
        return tuple(result.outputs)

    return PreparedScenario(
        network_kwargs=dict(n=n, bandwidth=4, mode=Mode.BROADCAST),
        programs={"generator": program},
        inputs=None,
        summarize=summarize,
        validate=None,
    )


def _prepare_livelock(n, graph, rng):
    def program(ctx):
        while True:
            yield Outbox.broadcast_uint(1, 4)

    return PreparedScenario(
        network_kwargs=dict(n=n, bandwidth=4, mode=Mode.BROADCAST),
        programs={"generator": program},
        inputs=None,
        summarize=lambda result: (),
        validate=None,
    )


def _prepare_flaky(n, graph, rng):
    # SIGKILL our own worker process on the first attempt of any cell;
    # succeed on retries.  Exercises crash detection + respawn + retry.
    from repro.scenarios.sweep import worker

    task = worker.CURRENT_TASK
    if task is not None and task[1] == 1:
        os.kill(os.getpid(), signal.SIGKILL)
    return _prepare_const(n, graph, rng)


def _prepare_poison(n, graph, rng):
    # SIGKILL on every attempt: this cell can never complete and must
    # land in the quarantine, never hang or vanish.
    from repro.scenarios.sweep import worker

    if worker.CURRENT_TASK is not None:
        os.kill(os.getpid(), signal.SIGKILL)
    return _prepare_const(n, graph, rng)


def _prepare_counted(n, graph, rng):
    # One line per call in the file the test names in the environment:
    # pool workers are separate processes, so an in-memory counter
    # would never reach the test.
    with open(os.environ["SWEEPTEST_PREPARE_LOG"], "a") as fh:
        fh.write(f"{n}\n")
    return get_protocol("routing").prepare(n, graph, rng)


def _prepare_sleepy(n, graph, rng):
    # Hang *outside* the round loop, where Network(max_rounds=) cannot
    # see it — only the supervisor's wall-clock deadline can.
    from repro.scenarios.sweep import worker

    if worker.CURRENT_TASK is not None:
        time.sleep(300)
    return _prepare_const(n, graph, rng)


CONST = ProtocolSpec(
    name="sweeptest_const",
    description="two-round broadcast gossip, deterministic",
    engines=("legacy",),
    prepare=_prepare_const,
    bandwidth_budget=WORD,
)
LIVELOCK = ProtocolSpec(
    name="sweeptest_livelock",
    description="never terminates; exists to trip the round watchdog",
    engines=("legacy",),
    prepare=_prepare_livelock,
    bandwidth_budget=WORD,
)
FLAKY = ProtocolSpec(
    name="sweeptest_flaky",
    description="kills its worker on attempt 1, succeeds on attempt 2",
    engines=("legacy",),
    prepare=_prepare_flaky,
    bandwidth_budget=WORD,
)
POISON = ProtocolSpec(
    name="sweeptest_poison",
    description="kills its worker on every attempt",
    engines=("legacy",),
    prepare=_prepare_poison,
    bandwidth_budget=WORD,
)
COUNTED = ProtocolSpec(
    name="sweeptest_counted",
    description="routing on both engines, logging every prepare call",
    engines=("legacy", "kernel"),
    prepare=_prepare_counted,
    bandwidth_budget=BandwidthBudget(flat=16),
)
SLEEPY = ProtocolSpec(
    name="sweeptest_sleepy",
    description="hangs in prepare, outside the round loop",
    engines=("legacy",),
    prepare=_prepare_sleepy,
    bandwidth_budget=WORD,
)


@pytest.fixture
def temp_protocols():
    registered = []

    def _register(*specs):
        for spec in specs:
            register_protocol(spec)
            registered.append(spec.name)

    yield _register
    for name in registered:
        PROTOCOLS.pop(name, None)


class TestErrorTaxonomy:
    def test_coordinate_and_attempts_carried(self):
        err = WorkerCrashError(
            "worker died", coordinate="0:routing:gnp:8:legacy",
            attempts=2, traceback_digest="abc123def456",
        )
        assert err.coordinate == "0:routing:gnp:8:legacy"
        assert err.attempts == 2
        assert err.traceback_digest == "abc123def456"
        assert "[cell 0:routing:gnp:8:legacy, attempt 2]" in str(err)

    def test_hierarchy(self):
        for cls in (WorkerCrashError, CellTimeoutError, SweepResumeError):
            assert issubclass(cls, SweepExecutionError)
            assert issubclass(cls, ReproError)

    def test_coordinate_optional(self):
        err = SweepResumeError("journal is empty")
        assert err.coordinate is None
        assert "[cell" not in str(err)


class TestJournal:
    def _meta(self, seed=0):
        return ScenarioMatrix(["routing"], ["gnp"], [8], seed=seed)._meta()

    def test_refuses_to_clobber_existing_journal(self, tmp_path):
        path = str(tmp_path / "sweep.jsonl")
        with SweepJournal(path, self._meta()).open():
            pass
        with pytest.raises(SweepResumeError, match="already exists"):
            SweepJournal(path, self._meta()).open()

    def test_fingerprint_binds_journal_to_sweep(self, tmp_path):
        path = str(tmp_path / "sweep.jsonl")
        with SweepJournal(path, self._meta(seed=0)).open():
            pass
        with pytest.raises(SweepResumeError, match="different sweep"):
            SweepJournal.load(path, expected_meta=self._meta(seed=1))
        loaded = SweepJournal.load(path, expected_meta=self._meta(seed=0))
        assert loaded.fingerprint == sweep_fingerprint(self._meta(seed=0))

    def test_torn_trailing_line_tolerated(self, tmp_path):
        path = str(tmp_path / "sweep.jsonl")
        with SweepJournal(path, self._meta()).open() as journal:
            journal.record_cell("k1", {"digest": "aa"})
        with open(path, "a") as fh:
            fh.write('{"kind": "cell", "key": "k2", "ce')  # torn mid-append
        loaded = SweepJournal.load(path)
        assert set(loaded.cells) == {"k1"}

    def test_corruption_before_the_tail_raises(self, tmp_path):
        path = str(tmp_path / "sweep.jsonl")
        with SweepJournal(path, self._meta()).open() as journal:
            journal.record_cell("k1", {"digest": "aa"})
        lines = open(path).read().splitlines()
        lines[1] = "garbage"
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n" + '{"kind": "cell"}\n')
        with pytest.raises(SweepResumeError, match="corrupt"):
            SweepJournal.load(path)

    def test_attempt_history_is_durable(self, tmp_path):
        path = str(tmp_path / "sweep.jsonl")
        with SweepJournal(path, self._meta()).open() as journal:
            journal.record_attempt("k1", 1, "WorkerCrashError", "boom", "aa")
            journal.record_cell("k1", {"digest": "aa"}, attempt=2)
        loaded = SweepJournal.load(path)
        assert [a["attempt"] for a in loaded.attempts["k1"]] == [1]
        assert loaded.attempts["k1"][0]["error_type"] == "WorkerCrashError"
        assert loaded.duplicate_keys() == []


class TestJournalVerify:
    def _meta(self):
        return ScenarioMatrix(["routing"], ["gnp"], [8])._meta()

    def test_healthy_journal_reports_ok(self, tmp_path):
        path = str(tmp_path / "sweep.jsonl")
        with SweepJournal(path, self._meta()).open() as journal:
            journal.record_attempt("k1", 1, "WorkerCrashError", "boom", "aa")
            journal.record_cell("k1", {"digest": "aa"}, attempt=2)
        report = verify_journal(path)
        assert report["ok"] is True
        assert report["cells"] == 1
        assert report["failed_attempts"] == 1
        assert report["torn_line"] is False

    def test_torn_trailing_line_reported_not_fatal(self, tmp_path):
        path = str(tmp_path / "sweep.jsonl")
        with SweepJournal(path, self._meta()).open() as journal:
            journal.record_cell("k1", {"digest": "aa"})
        with open(path, "a") as fh:
            fh.write('{"kind": "cell", "key": "k2"')
        report = verify_journal(path)
        assert report["ok"] is True
        assert report["torn_line"] is True

    def test_duplicate_cells_fail_verification(self, tmp_path):
        path = str(tmp_path / "sweep.jsonl")
        with SweepJournal(path, self._meta()).open() as journal:
            journal.record_cell("k1", {"digest": "aa"})
            journal.record_cell("k1", {"digest": "aa"})
        report = verify_journal(path)
        assert report["ok"] is False
        assert report["duplicate_keys"] == ["k1"]
        assert "re-executed" in report["error"]

    def test_midfile_corruption_fails_verification(self, tmp_path):
        path = str(tmp_path / "sweep.jsonl")
        with SweepJournal(path, self._meta()).open() as journal:
            journal.record_cell("k1", {"digest": "aa"})
            journal.record_cell("k2", {"digest": "bb"})
        lines = open(path).read().splitlines()
        lines[1] = "garbage"
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        report = verify_journal(path)
        assert report["ok"] is False
        assert "corrupt" in report["error"]


class TestOlderJournals:
    """Journals written before mid-run checkpoints, the schedule cache,
    K-sharding and the engine degradation chain were removed carry
    ``ckpt`` lines and cell keys this version no longer writes; they
    still resume without re-running a cell."""

    RETIRED = {
        "engine_fallback": "fast->legacy",
        "resumed_from_round": 12,
        "checkpoints": 2,
        "cache_hits": 3,
        "cache_misses": 1,
        "cache_evictions": 0,
        "schedule_compiles": 1,
        "shards": 2,
    }

    def test_ckpt_lines_and_retired_keys_replay(self, tmp_path, monkeypatch):
        def sweep():
            return ScenarioMatrix(["routing"], ["gnp"], [8], engines=["legacy"])

        fresh = sweep().run()
        (cell,) = fresh.cells
        key = cell.key(0)
        payload = dict(cell.to_dict(), **self.RETIRED)
        meta = sweep()._meta()
        lines = [
            {
                "kind": "meta", "schema": 1, "sweep": meta,
                "fingerprint": sweep_fingerprint(meta),
            },
            {
                "kind": "ckpt", "key": key, "attempt": 1, "round": 3,
                "digest": "ab" * 32,
            },
            {"kind": "cell", "key": key, "attempt": 1, "cell": payload},
        ]
        path = str(tmp_path / "older.jsonl")
        with open(path, "w") as fh:
            for line in lines:
                fh.write(json.dumps(line, sort_keys=True) + "\n")

        def no_execution(*args, **kwargs):
            raise AssertionError("a journaled cell was re-executed")

        monkeypatch.setattr(ScenarioMatrix, "run_coordinate", no_execution)
        resumed = sweep().run(resume_from=path)
        assert resumed.meta["replayed_cells"] == 1
        assert cell_views(resumed) == cell_views(fresh)
        report = verify_journal(path)
        assert report["ok"] is True
        assert report["cells"] == 1


class TestWatchdog:
    def test_livelocked_protocol_becomes_structured_timeout_cell(
        self, temp_protocols
    ):
        temp_protocols(LIVELOCK, CONST)
        matrix = ScenarioMatrix(
            ["sweeptest_livelock", "sweeptest_const"], ["gnp"], [6],
            engines=["legacy"], cell_round_limit=30,
        )
        result = matrix.run()
        by_protocol = {c.protocol: c for c in result.cells}
        hung = by_protocol["sweeptest_livelock"]
        assert hung.status == "failed"
        assert hung.error_type == "MaxRoundsExceededError"
        assert hung.error.endswith("after 30 rounds (max_rounds 30)")
        # The sweep survived the hang and ran the other cells.
        assert by_protocol["sweeptest_const"].status == "ok"
        assert hung in result.mismatches()

    def test_watchdog_is_on_by_default(self):
        matrix = ScenarioMatrix(["routing"], ["gnp"], [8])
        assert matrix.cell_round_limit == DEFAULT_CELL_ROUND_LIMIT
        assert matrix._meta()["cell_round_limit"] == DEFAULT_CELL_ROUND_LIMIT

    def test_watchdog_does_not_break_real_protocols(self):
        result = ScenarioMatrix(
            ["routing"], ["gnp"], [8], engines=["legacy"], cell_round_limit=200
        ).run()
        assert all(c.status == "ok" for c in result.cells)


class TestSpecPickling:
    def test_builtin_spec_restores_to_registry_identity(self):
        spec = get_protocol("routing")
        assert pickle.loads(pickle.dumps(spec)) is spec

    def test_adhoc_spec_reregisters_in_a_fresh_registry(self, temp_protocols):
        temp_protocols(CONST)
        blob = pickle.dumps(get_protocol("sweeptest_const"))
        PROTOCOLS.pop("sweeptest_const")
        restored = pickle.loads(blob)
        assert restored.name == "sweeptest_const"
        assert PROTOCOLS["sweeptest_const"] is restored
        assert restored.prepare is _prepare_const

    def test_unpicklable_spec_degrades_pool_to_serial(self, temp_protocols):
        temp_protocols(
            ProtocolSpec(
                name="sweeptest_lambda",
                description="prepare is a lambda: cannot cross processes",
                engines=("legacy",),
                prepare=lambda n, graph, rng: _prepare_const(n, graph, rng),
                bandwidth_budget=WORD,
            )
        )
        matrix = ScenarioMatrix(
            ["sweeptest_lambda"], ["gnp"], [6], engines=["legacy"]
        )
        serial = matrix.run()
        pooled = matrix.run(workers=2)
        pool = pooled.meta["pool"]
        assert pool["executor"] == "serial-fallback"
        assert "not picklable" in pool["fallback_reason"]
        assert cell_views(pooled) == cell_views(serial)


class TestPoolDeterminism:
    PROTOS = ["routing", "mst"]

    def test_digests_identical_across_worker_counts(self):
        def sweep():
            return ScenarioMatrix(
                self.PROTOS, ["gnp"], [8], engines=["legacy", "kernel"]
            )

        serial = sweep().run()
        assert serial.mismatches() == []
        for workers in (1, 2, 4):
            pooled = sweep().run(workers=workers)
            assert pooled.meta["pool"]["executor"] == "pool"
            assert cell_views(pooled) == cell_views(serial), (
                f"digests diverged at W={workers}"
            )
        stats = pooled.meta["pool"]["worker_stats"]
        assert sum(s["cells"] for s in stats.values()) == len(serial.cells)

    @pytest.mark.parametrize(
        "settings",
        [
            dict(protocols=["routing_many", "routing"]),
            dict(fault_plan=FaultPlan(seed=11, corrupt_rate=0.08, drop_rate=0.05)),
        ],
        ids=["run_many", "fault-plan"],
    )
    def test_cell_settings_identical_pooled_and_in_process(self, settings):
        def sweep():
            kwargs = dict(
                protocols=self.PROTOS, families=["gnp"], sizes=[8],
                engines=["legacy", "kernel"],
            )
            kwargs.update(settings)
            return ScenarioMatrix(**kwargs)

        serial = sweep().run()
        pooled = sweep().run(workers=2)
        assert pooled.meta["pool"]["executor"] == "pool"
        assert cell_views(pooled) == cell_views(serial)

    def test_chaos_worker_kills_do_not_change_digests(self, temp_protocols):
        temp_protocols(CONST)
        def sweep():
            return ScenarioMatrix(
                ["sweeptest_const"], ["gnp", "cycle"], [6, 8],
                engines=["legacy"],
            )

        serial = sweep().run()
        pooled = sweep().run(workers=2, chaos_kills=[1, 3])
        pool = pooled.meta["pool"]
        assert pool["respawns"] >= 1
        assert cell_views(pooled) == cell_views(serial)
        assert pooled.quarantined() == []


class TestCoordinateDispatch:
    def test_pool_prepares_each_coordinate_once(
        self, temp_protocols, tmp_path, monkeypatch
    ):
        log = tmp_path / "prepare.log"
        monkeypatch.setenv("SWEEPTEST_PREPARE_LOG", str(log))
        temp_protocols(COUNTED)
        result = ScenarioMatrix(
            ["sweeptest_counted"], ["gnp"], [6, 8], engines=["legacy", "kernel"]
        ).run(workers=2)
        assert result.meta["pool"]["executor"] == "pool"
        assert [c.status for c in result.cells] == ["ok"] * 4
        assert sorted(log.read_text().split()) == ["6", "8"]


class TestSupervision:
    def test_crashed_cell_retries_and_succeeds(self, temp_protocols):
        temp_protocols(FLAKY)
        matrix = ScenarioMatrix(
            ["sweeptest_flaky"], ["gnp"], [6], engines=["legacy"]
        )
        result = matrix.run(workers=1)
        (cell,) = result.cells
        assert cell.status == "ok"
        assert cell.attempts == 2
        assert not cell.quarantined
        assert result.meta["pool"]["respawns"] >= 1

    def test_poison_cell_lands_in_quarantine(self, temp_protocols, tmp_path):
        temp_protocols(POISON, CONST)
        journal = str(tmp_path / "sweep.jsonl")
        matrix = ScenarioMatrix(
            ["sweeptest_poison", "sweeptest_const"], ["gnp"], [6],
            engines=["legacy"],
        )
        result = matrix.run(workers=1, max_attempts=2, journal=journal)
        by_protocol = {c.protocol: c for c in result.cells}
        poison = by_protocol["sweeptest_poison"]
        assert poison.status == "failed"
        assert poison.quarantined is True
        assert poison.attempts == 2
        assert poison.error_type == "WorkerCrashError"
        assert by_protocol["sweeptest_const"].status == "ok"
        # Never silently dropped: quarantine shows up in every report
        # surface and in the durable journal.
        assert result.quarantined() == [poison]
        assert poison in result.mismatches()
        assert any(
            "quarantined" in r["flags"] for r in result.fault_reports()
        )
        loaded = SweepJournal.load(journal)
        key = poison.key(matrix.seed)
        assert loaded.cells[key]["quarantined"] is True
        assert [a["attempt"] for a in loaded.attempts[key]] == [1, 2]

    def test_respawn_storm_hands_the_rest_to_the_in_process_executor(
        self, temp_protocols, tmp_path
    ):
        # Ten coordinates that each kill their worker: the pool gives up
        # after its respawn limit, and the in-process executor (where
        # the poison protocol does not fire) finishes every cell once.
        temp_protocols(POISON)
        journal = str(tmp_path / "sweep.jsonl")
        matrix = ScenarioMatrix(
            ["sweeptest_poison"], ["gnp"], list(range(6, 16)),
            engines=["legacy"],
        )
        result = matrix.run(workers=1, max_attempts=5, journal=journal)
        pool = result.meta["pool"]
        assert pool["executor"] == "pool+serial-degraded"
        assert "respawn storm" in pool["fallback_reason"]
        assert [c.status for c in result.cells] == ["ok"] * 10
        loaded = SweepJournal.load(journal)
        assert loaded.duplicate_keys() == []
        assert set(loaded.cells) == set(matrix.cell_keys())

    def test_cell_timeout_needs_workers(self):
        matrix = ScenarioMatrix(["routing"], ["gnp"], [8], engines=["legacy"])
        with pytest.raises(ValueError, match="cell_timeout needs workers"):
            matrix.run(cell_timeout=5.0)

    def test_stop_after_cells_needs_workers(self):
        matrix = ScenarioMatrix(
            ["routing"], ["gnp"], [6], engines=["legacy", "kernel"]
        )
        with pytest.raises(ValueError, match="stop_after_cells needs workers"):
            matrix.run(stop_after_cells=1)

    def test_chaos_kills_needs_workers(self):
        matrix = ScenarioMatrix(["routing"], ["gnp"], [6], engines=["legacy"])
        with pytest.raises(ValueError, match="chaos_kills needs workers"):
            matrix.run(chaos_kills=[1])

    def test_wall_clock_deadline_catches_hang_outside_rounds(
        self, temp_protocols
    ):
        temp_protocols(SLEEPY)
        matrix = ScenarioMatrix(
            ["sweeptest_sleepy"], ["gnp"], [6], engines=["legacy"]
        )
        result = matrix.run(workers=1, cell_timeout=1.5, max_attempts=1)
        (cell,) = result.cells
        assert cell.status == "failed"
        assert cell.quarantined is True
        assert cell.error_type == "CellTimeoutError"
        assert "deadline" in cell.error


class TestJournaledRuns:
    def sweep(self):
        return ScenarioMatrix(
            ["routing", "mst"], ["gnp"], [8], engines=["legacy", "kernel"]
        )

    def test_serial_journal_then_full_replay(self, tmp_path):
        journal = str(tmp_path / "sweep.jsonl")
        first = self.sweep().run(journal=journal)
        loaded = SweepJournal.load(journal)
        assert len(loaded.cells) == len(first.cells)
        replayed = self.sweep().run(journal=journal, resume_from=journal)
        assert replayed.meta["replayed_cells"] == len(first.cells)
        assert cell_views(replayed) == cell_views(first)
        # Zero re-execution: the journal still holds exactly one record
        # per cell after the replay run.
        assert SweepJournal.load(journal).duplicate_keys() == []

    def test_interruption_drill_then_pooled_resume(self, tmp_path):
        journal = str(tmp_path / "sweep.jsonl")
        serial = self.sweep().run()
        partial = self.sweep().run(
            workers=2, journal=journal, stop_after_cells=2
        )
        assert partial.meta["pool"]["interrupted"] is True
        done_before = set(SweepJournal.load(journal).cells)
        assert len(done_before) >= 2
        resumed = self.sweep().run(workers=2, resume_from=journal)
        assert resumed.meta["pool"]["interrupted"] is False
        assert resumed.meta["replayed_cells"] == len(done_before)
        assert cell_views(resumed) == cell_views(serial)
        loaded = SweepJournal.load(journal)
        assert loaded.duplicate_keys() == []
        assert set(loaded.cells) == {
            c.key(0) for c in serial.cells
        }

    def test_resume_refuses_mismatched_journal_path_pair(self, tmp_path):
        with pytest.raises(SweepResumeError, match="different files"):
            self.sweep().run(
                workers=1,
                journal=str(tmp_path / "a.jsonl"),
                resume_from=str(tmp_path / "b.jsonl"),
            )


class TestKillAndResume:
    """The headline drill: SIGKILL the whole pool mid-sweep, resume from
    the journal, digests byte-identical to an uninterrupted serial run
    and zero completed cells re-executed."""

    CHILD = """
import sys
from repro.scenarios import ScenarioMatrix
matrix = ScenarioMatrix(
    ["routing", "mst"], ["gnp", "cycle"], [8, 10], engines=["legacy", "kernel"]
)
matrix.run(workers=2, journal=sys.argv[1])
"""

    def test_sigkill_mid_sweep_then_resume(self, tmp_path):
        journal = str(tmp_path / "sweep.jsonl")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO, "src")
        child = subprocess.Popen(
            [sys.executable, "-c", self.CHILD, journal],
            env=env, cwd=REPO,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 120
            completed_before = {}
            while time.monotonic() < deadline:
                if child.poll() is not None:
                    raise AssertionError(
                        "child sweep finished before it could be killed; "
                        "grow the sweep"
                    )
                try:
                    completed_before = SweepJournal.load(journal).cells
                except (SweepResumeError, OSError):
                    completed_before = {}
                if len(completed_before) >= 2:
                    break
                time.sleep(0.05)
            assert len(completed_before) >= 2, "journal never accumulated cells"
        finally:
            if child.poll() is None:
                child.kill()
            child.wait(timeout=30)
        # The sweep may journal another cell between the read above and
        # the kill: compare against what the journal held when it died.
        completed_before = SweepJournal.load(journal).cells

        matrix = ScenarioMatrix(
            ["routing", "mst"], ["gnp", "cycle"], [8, 10],
            engines=["legacy", "kernel"],
        )
        uninterrupted = ScenarioMatrix(
            ["routing", "mst"], ["gnp", "cycle"], [8, 10],
            engines=["legacy", "kernel"],
        ).run()
        resumed = matrix.run(resume_from=journal)
        assert resumed.meta["replayed_cells"] == len(
            {k for k in completed_before if k in set(matrix.cell_keys())}
        )
        assert cell_views(resumed) == cell_views(uninterrupted)
        # Journal-verified zero re-runs: every cell recorded exactly
        # once, including the ones completed before the kill.
        loaded = SweepJournal.load(journal)
        assert loaded.duplicate_keys() == []
        for key in completed_before:
            assert loaded.cell_lines[key] == 1


class TestCLI:
    def test_cli_serial_and_resume(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO, "src")
        journal = str(tmp_path / "sweep.jsonl")
        out = str(tmp_path / "sweep.json")
        base = [
            sys.executable, "-m", "repro.scenarios",
            "--protocols", "routing", "--families", "gnp", "--sizes", "8",
            "--engines", "legacy", "kernel", "--journal", journal, "--out", out,
        ]
        first = subprocess.run(
            base, env=env, cwd=REPO, capture_output=True, text=True
        )
        assert first.returncode == 0, first.stderr
        assert "cells: 2" in first.stdout
        resumed = subprocess.run(
            base + ["--resume"], env=env, cwd=REPO,
            capture_output=True, text=True,
        )
        assert resumed.returncode == 0, resumed.stderr
        payload = json.load(open(out))
        assert len(payload["cells"]) == 2
        assert payload["meta"]["replayed_cells"] == 2

    def test_cli_rejects_unrunnable_sweeps_with_exit_2(self, capsys):
        from repro.scenarios.__main__ import main

        base = ["--protocols", "routing", "--families", "gnp", "--engines", "legacy"]
        assert main(base + ["--sizes", "8", "8"]) == 2
        assert "size 8 is listed more than once" in capsys.readouterr().err
        assert main(base + ["--sizes", "8", "--cell-timeout", "5"]) == 2
        assert "--cell-timeout requires --workers" in capsys.readouterr().err

    def test_journaled_sweep_then_journal_verify(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO, "src")

        def run_cli(*args):
            return subprocess.run(
                [sys.executable, "-m", "repro.scenarios", *args],
                env=env, cwd=REPO, capture_output=True, text=True,
            )

        journal = str(tmp_path / "sweep.jsonl")
        sweep = run_cli(
            "--protocols", "routing", "--families", "gnp", "--sizes", "8",
            "--engines", "legacy", "--journal", journal,
        )
        assert sweep.returncode == 0, sweep.stderr
        verify = run_cli("--journal-verify", journal)
        assert verify.returncode == 0, verify.stderr
        assert ": ok" in verify.stdout
        with open(journal, "a") as fh:
            fh.write("{broken\n")
            fh.write('{"also": "broken"\n')
        corrupt = run_cli("--journal-verify", journal)
        assert corrupt.returncode == 1
        assert "CORRUPT" in corrupt.stdout
