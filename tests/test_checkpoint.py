"""Checkpointable executions: mid-run snapshot/restore across engines.

The contract under test: a run that is preempted at a round boundary,
killed, and resumed from its last snapshot produces *byte-identical*
results to an uninterrupted run while re-executing *strictly fewer*
rounds; a corrupt or truncated snapshot degrades to a clean restart with
a structured report, never a wrong answer; engines without native
support (legacy) say so honestly and restore by deterministic replay.
On top of the engine layer, the sweep executor's workers flush a final
snapshot on SIGTERM and retries resume from partial progress, with the
checkpoint lineage recorded in the journal.

The chaos-protocol prepare hooks below are module-level on purpose:
specs pickle across the spawn boundary by reference, so the worker
children import this module to run them.
"""

import glob
import json
import os
import signal
import subprocess
import sys

import numpy as np
import pytest

from repro.core.checkpoint import (
    CheckpointPolicy,
    RunCheckpoint,
    latest_checkpoint,
    load_checkpoint,
    run_identity,
    stable_digest,
)
from repro.core.errors import (
    CheckpointCorruptError,
    FaultInjectionError,
    ReproError,
    RunPreempted,
)
from repro.core.faults import FaultPlan
from repro.core.kernels import KernelBuilder
from repro.core.network import Mode, Network, Outbox
from repro.core.tracing import render_timeline, transcript_stats
from repro.scenarios import (
    PROTOCOLS,
    PreparedScenario,
    ProtocolSpec,
    ScenarioMatrix,
    register_protocol,
)
from repro.scenarios.sweep import SweepJournal, verify_journal

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

N = 5
ROUNDS = 6
WIDTH = 4


def gossip_program(ctx):
    """The fixture generator program: ROUNDS broadcast rounds whose
    state mixes every inbox — any lost or replayed round moves the
    digest."""
    total = ctx.input
    for r in range(ROUNDS):
        inbox = yield Outbox.broadcast_uint((total + r) % (1 << WIDTH), WIDTH)
        total += sum(value for _sender, value in inbox.uint_items())
    return total


def make_network(engine, **kwargs):
    return Network(
        n=N, bandwidth=8, mode=Mode.BROADCAST, engine=engine, **kwargs
    )


INPUTS = list(range(N))


def kernel_twin():
    """A declared-kernel program with the same shape: ROUNDS broadcast
    rounds over fixed writers, state accumulated per round."""
    builder = KernelBuilder(N, Mode.BROADCAST)
    writers = [0, 2, 4]
    warr = np.asarray(writers, dtype=np.intp)

    def init(state, kctx):
        state["acc"] = np.zeros((kctx.instances, N), dtype=np.int64)

    builder.on_init(init)

    def make_send(r):
        def send(state):
            instances = state["acc"].shape[0]
            vals = (
                warr.astype(np.uint64) * np.uint64(3) + np.uint64(r)
            ) % np.uint64(1 << WIDTH)
            return np.broadcast_to(vals, (instances, vals.size)).copy()

        return send

    def recv(state, inbox):
        got = inbox.gather().astype(np.int64)
        state["acc"] = state["acc"] + got.sum(axis=1)[:, None]

    for r in range(ROUNDS):
        builder.broadcast_round(writers, WIDTH, make_send(r), recv)

    def finish(state, kctx):
        return [
            [int(state["acc"][k, v]) for v in range(N)]
            for k in range(kctx.instances)
        ]

    return builder.build(finish, name="ckpt_twin")


def result_view(result):
    return (
        result.outputs, result.rounds, result.total_bits,
        result.max_round_bits,
    )


def preempt_after(rounds):
    """A preempt callable that fires after ``rounds`` boundary checks."""
    calls = [0]

    def preempt():
        calls[0] += 1
        return calls[0] > rounds

    return preempt


def snapshot_dirs(directory):
    return sorted(glob.glob(os.path.join(directory, "*", "r*")))


# -- module-level chaos protocols (picklable by reference) ----------------


def _prepare_preemptable(n, graph, rng):
    """Six-round gossip that SIGTERMs its own worker mid-run on the
    first attempt — the cooperative-preemption drill.  The checkpoint
    session observes the signal at the next round boundary, flushes a
    final snapshot, and the retry resumes from it."""

    def program(ctx):
        from repro.scenarios.sweep import worker

        task = worker.CURRENT_TASK
        total = ctx.node_id
        for r in range(ROUNDS):
            if r == 3 and ctx.node_id == 0 and task is not None and task[1] == 1:
                os.kill(os.getpid(), signal.SIGTERM)
            inbox = yield Outbox.broadcast_uint((total + r) & 0xF, 4)
            total += sum(value for _s, value in inbox.uint_items())
        return total

    return PreparedScenario(
        network_kwargs=dict(n=n, bandwidth=4, mode=Mode.BROADCAST),
        programs={"generator": program},
        inputs=None,
        summarize=lambda result: tuple(result.outputs),
        validate=None,
    )


def _prepare_crashy(n, graph, rng):
    """Six-round gossip that SIGKILLs its own worker mid-run on the
    first attempt: no graceful flush, the retry must resume from the
    last *routine* snapshot (partial-progress retry)."""

    def program(ctx):
        from repro.scenarios.sweep import worker

        task = worker.CURRENT_TASK
        total = ctx.node_id
        for r in range(ROUNDS):
            if r == 4 and ctx.node_id == 0 and task is not None and task[1] == 1:
                os.kill(os.getpid(), signal.SIGKILL)
            inbox = yield Outbox.broadcast_uint((total + r) & 0xF, 4)
            total += sum(value for _s, value in inbox.uint_items())
        return total

    return PreparedScenario(
        network_kwargs=dict(n=n, bandwidth=4, mode=Mode.BROADCAST),
        programs={"generator": program},
        inputs=None,
        summarize=lambda result: tuple(result.outputs),
        validate=None,
    )


PREEMPTABLE = ProtocolSpec(
    name="ckpttest_preemptable",
    description="SIGTERMs its worker mid-run on attempt 1",
    mode=Mode.BROADCAST,
    engines=("fast",),
    prepare=_prepare_preemptable,
)
CRASHY = ProtocolSpec(
    name="ckpttest_crashy",
    description="SIGKILLs its worker mid-run on attempt 1",
    mode=Mode.BROADCAST,
    engines=("fast",),
    prepare=_prepare_crashy,
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


# -- format + identity ----------------------------------------------------


class TestRunIdentity:
    def test_engine_independent_and_input_sensitive(self):
        ids = {
            run_identity(make_network(engine), gossip_program, INPUTS)
            for engine in ("legacy", "fast")
        }
        assert len(ids) == 1, "run identity must not depend on the engine"
        other = run_identity(
            make_network("fast"), gossip_program, [9] + INPUTS[1:]
        )
        assert other not in ids

    def test_stable_digest_handles_container_types(self):
        a = stable_digest({"b": [1, 2], "a": {3, 1}, "c": (None, True)})
        b = stable_digest({"a": {1, 3}, "c": (None, True), "b": [1, 2]})
        assert a == b
        assert a != stable_digest({"b": [2, 1], "a": {3, 1}, "c": (None, True)})


class TestCheckpointFormat:
    def make_checkpoint(self, round_index=3):
        return RunCheckpoint(
            engine="fast",
            run_id="f" * 64,
            round_index=round_index,
            counters={"rounds": round_index, "total_bits": 120},
            arrays={"acc": np.arange(12, dtype=np.int64).reshape(3, 4)},
            blobs={"wire": b"\x01\x02\x03"},
            meta={"kind": "rounds"},
        )

    def test_save_load_roundtrip(self, tmp_path):
        ckpt = self.make_checkpoint()
        path = ckpt.save(str(tmp_path))
        assert os.path.exists(os.path.join(path, "manifest.json"))
        assert os.path.exists(os.path.join(path, "payload.npz"))
        loaded = load_checkpoint(path)
        assert loaded.engine == "fast"
        assert loaded.round_index == 3
        assert loaded.counters == ckpt.counters
        assert loaded.meta == ckpt.meta
        assert loaded.blobs["wire"] == b"\x01\x02\x03"
        np.testing.assert_array_equal(loaded.arrays["acc"], ckpt.arrays["acc"])
        assert loaded.arrays["acc"].dtype == np.int64
        assert loaded.digest == ckpt.digest

    def test_corrupt_payload_is_structured(self, tmp_path):
        path = self.make_checkpoint().save(str(tmp_path))
        with open(os.path.join(path, "payload.npz"), "r+b") as fh:
            fh.seek(8)
            fh.write(b"\xff\xff\xff\xff")
        with pytest.raises(CheckpointCorruptError) as excinfo:
            load_checkpoint(path)
        assert excinfo.value.reason == "digest-mismatch"
        assert isinstance(excinfo.value, ReproError)

    def test_mangled_manifest_is_structured(self, tmp_path):
        path = self.make_checkpoint().save(str(tmp_path))
        with open(os.path.join(path, "manifest.json"), "w") as fh:
            fh.write("{not json")
        with pytest.raises(CheckpointCorruptError) as excinfo:
            load_checkpoint(path)
        assert excinfo.value.reason == "manifest-unreadable"

    def test_schema_mismatch_is_structured(self, tmp_path):
        path = self.make_checkpoint().save(str(tmp_path))
        manifest_path = os.path.join(path, "manifest.json")
        manifest = json.load(open(manifest_path))
        manifest["schema"] = 999
        with open(manifest_path, "w") as fh:
            json.dump(manifest, fh)
        with pytest.raises(CheckpointCorruptError) as excinfo:
            load_checkpoint(path)
        assert excinfo.value.reason == "schema-mismatch"

    def test_missing_is_structured(self, tmp_path):
        with pytest.raises(CheckpointCorruptError) as excinfo:
            load_checkpoint(str(tmp_path / "nope"))
        assert excinfo.value.reason == "missing"

    def test_latest_skips_corrupt_and_reports(self, tmp_path):
        older = self.make_checkpoint(round_index=2).save(str(tmp_path))
        newer = self.make_checkpoint(round_index=4).save(str(tmp_path))
        with open(os.path.join(newer, "payload.npz"), "r+b") as fh:
            fh.seek(8)
            fh.write(b"\xff\xff\xff\xff")
        ckpt, report = latest_checkpoint(str(tmp_path), "f" * 64)
        assert ckpt is not None and ckpt.round_index == 2
        assert [r["reason"] for r in report] == ["digest-mismatch"]
        assert report[0]["path"] == newer
        assert older == ckpt.path if hasattr(ckpt, "path") else True

    def test_object_arrays_rejected(self, tmp_path):
        ckpt = self.make_checkpoint()
        ckpt.arrays["bad"] = np.array([object()], dtype=object)
        with pytest.raises(ValueError, match="object dtype"):
            ckpt.save(str(tmp_path))


# -- engine snapshot/restore ----------------------------------------------


class TestFastEngineResume:
    def test_preempt_flushes_then_resume_is_identical(self, tmp_path):
        reference = make_network("fast").run(gossip_program, INPUTS)

        net = make_network("fast")
        with pytest.raises(RunPreempted) as excinfo:
            net.run(
                gossip_program, INPUTS,
                checkpoint=CheckpointPolicy(
                    str(tmp_path), every_rounds=1,
                    preempt=preempt_after(3), keep=10,
                ),
            )
        assert excinfo.value.round_index == 3
        assert excinfo.value.checkpoint is not None
        assert os.path.isdir(excinfo.value.checkpoint)
        assert net.checkpoint_stats["rounds_executed"] == 3

        resumed_net = make_network("fast")
        resumed = resumed_net.run(
            gossip_program, INPUTS,
            checkpoint=CheckpointPolicy(str(tmp_path), every_rounds=1),
            resume_from="auto",
        )
        assert result_view(resumed) == result_view(reference)
        stats = resumed_net.checkpoint_stats
        assert stats["mode"] == "native"
        assert stats["rounds_restored"] == 3
        # Strictly fewer rounds than a from-scratch retry.
        assert stats["rounds_executed"] == ROUNDS - 3 < reference.rounds
        assert resumed.resume == {
            "mode": "native",
            "round": 3,
            "checkpoint": stats["resumed_from"],
            "engine": "fast",
        }

    def test_resumed_transcript_is_complete(self, tmp_path):
        reference = make_network(
            "fast", record_transcript=True
        ).run(gossip_program, INPUTS)
        net = make_network("fast", record_transcript=True)
        with pytest.raises(RunPreempted):
            net.run(
                gossip_program, INPUTS,
                checkpoint=CheckpointPolicy(
                    str(tmp_path), every_rounds=1, preempt=preempt_after(2),
                ),
            )
        resumed = make_network("fast", record_transcript=True).run(
            gossip_program, INPUTS,
            checkpoint=CheckpointPolicy(str(tmp_path)),
            resume_from="auto",
        )
        assert len(resumed.transcript) == len(reference.transcript)
        assert [r.bits() for r in resumed.transcript] == [
            r.bits() for r in reference.transcript
        ]

    def test_every_rounds_policy_counts_snapshots(self, tmp_path):
        net = make_network("fast")
        net.run(
            gossip_program, INPUTS,
            checkpoint=CheckpointPolicy(str(tmp_path), every_rounds=2, keep=10),
        )
        # Rounds 2 and 4 flush; the final round never flushes routinely.
        assert net.checkpoint_stats["snapshots"] == 2
        assert len(snapshot_dirs(str(tmp_path))) == 2

    def test_run_many_resumes_at_instance_boundaries(self, tmp_path):
        inputs_list = [INPUTS, [7] * N, list(range(N, 0, -1))]
        reference = make_network("fast").run_many(gossip_program, inputs_list)
        net = make_network("fast")
        with pytest.raises(RunPreempted):
            net.run_many(
                gossip_program, inputs_list,
                checkpoint=CheckpointPolicy(
                    str(tmp_path), every_rounds=1, preempt=preempt_after(1),
                ),
            )
        resumed_net = make_network("fast")
        resumed = resumed_net.run_many(
            gossip_program, inputs_list,
            checkpoint=CheckpointPolicy(str(tmp_path), every_rounds=1),
            resume_from="auto",
        )
        assert [result_view(r) for r in resumed] == [
            result_view(r) for r in reference
        ]
        assert resumed_net.checkpoint_stats["rounds_restored"] >= 1


class TestKernelEngineResume:
    def test_preempt_then_resume_is_identical(self, tmp_path):
        program = kernel_twin()
        reference = make_network("kernel").run(program)
        net = make_network("kernel")
        with pytest.raises(RunPreempted) as excinfo:
            net.run(
                program,
                checkpoint=CheckpointPolicy(
                    str(tmp_path), every_rounds=1, preempt=preempt_after(2),
                ),
            )
        assert excinfo.value.round_index == 2
        resumed_net = make_network("kernel")
        resumed = resumed_net.run(
            program,
            checkpoint=CheckpointPolicy(str(tmp_path), every_rounds=1),
            resume_from="auto",
        )
        assert result_view(resumed) == result_view(reference)
        stats = resumed_net.checkpoint_stats
        assert stats["rounds_restored"] == 2
        assert stats["rounds_executed"] == ROUNDS - 2 < reference.rounds

    def test_run_many_resumes_at_chunk_boundaries(self, tmp_path):
        program = kernel_twin()
        inputs_list = [None, None, None]
        reference = make_network("kernel").run_many(program, inputs_list)
        resumed = make_network("kernel").run_many(
            program, inputs_list,
            checkpoint=CheckpointPolicy(str(tmp_path), every_rounds=1),
            resume_from="auto",
        )
        assert [result_view(r) for r in resumed] == [
            result_view(r) for r in reference
        ]


class TestLegacyHonesty:
    def test_reports_unsupported_and_replays(self, tmp_path):
        from repro.core.engine.legacy import LegacyEngine

        assert LegacyEngine.supports_checkpoint is False
        reference = make_network("legacy").run(gossip_program, INPUTS)
        net = make_network("legacy")
        result = net.run(
            gossip_program, INPUTS,
            checkpoint=CheckpointPolicy(str(tmp_path), every_rounds=1),
            resume_from="auto",
        )
        assert result_view(result) == result_view(reference)
        stats = net.checkpoint_stats
        assert stats["supported"] is False
        assert stats["mode"] == "replay"
        assert stats["snapshots"] == 0
        # Nothing to resume from and nothing written to disk.
        assert result.resume is None
        assert snapshot_dirs(str(tmp_path)) == []

    def test_replay_restore_honours_foreign_snapshot(self, tmp_path):
        # run_id is engine-independent, so a snapshot flushed by a
        # preempted fast run is discoverable from legacy — which can
        # only honour it by deterministic replay from round 0, and says
        # so in the provenance.
        with pytest.raises(RunPreempted):
            make_network("fast").run(
                gossip_program, INPUTS,
                checkpoint=CheckpointPolicy(
                    str(tmp_path), every_rounds=1, preempt=preempt_after(3),
                ),
            )
        reference = make_network("legacy").run(gossip_program, INPUTS)
        net = make_network("legacy")
        result = net.run(
            gossip_program, INPUTS,
            checkpoint=CheckpointPolicy(str(tmp_path)),
            resume_from="auto",
        )
        assert result_view(result) == result_view(reference)
        assert result.resume["mode"] == "replay"
        assert result.resume["round"] == 0
        assert result.resume["requested_round"] == 3
        # Honest accounting: every round was re-executed.
        assert net.checkpoint_stats["rounds_executed"] == ROUNDS
        assert net.checkpoint_stats["rounds_restored"] == 0


class TestCorruptionDegradation:
    def seed_checkpoints(self, tmp_path):
        net = make_network("fast")
        with pytest.raises(RunPreempted):
            net.run(
                gossip_program, INPUTS,
                checkpoint=CheckpointPolicy(
                    str(tmp_path), every_rounds=1,
                    preempt=preempt_after(3), keep=10,
                ),
            )
        return snapshot_dirs(str(tmp_path))

    def test_corrupt_newest_falls_back_to_older(self, tmp_path):
        reference = make_network("fast").run(gossip_program, INPUTS)
        dirs = self.seed_checkpoints(tmp_path)
        assert len(dirs) == 3
        with open(os.path.join(dirs[-1], "payload.npz"), "r+b") as fh:
            fh.seek(8)
            fh.write(b"\xff\xff\xff\xff")
        net = make_network("fast")
        resumed = net.run(
            gossip_program, INPUTS,
            checkpoint=CheckpointPolicy(str(tmp_path)),
            resume_from="auto",
        )
        assert result_view(resumed) == result_view(reference)
        stats = net.checkpoint_stats
        assert stats["rounds_restored"] == 2  # the older, valid snapshot
        assert [r["reason"] for r in stats["corrupt_skipped"]] == [
            "digest-mismatch"
        ]

    def test_all_corrupt_degrades_to_clean_restart(self, tmp_path):
        reference = make_network("fast").run(gossip_program, INPUTS)
        dirs = self.seed_checkpoints(tmp_path)
        for path in dirs:
            with open(os.path.join(path, "manifest.json"), "w") as fh:
                fh.write("truncated")
        net = make_network("fast")
        resumed = net.run(
            gossip_program, INPUTS,
            checkpoint=CheckpointPolicy(str(tmp_path)),
            resume_from="auto",
        )
        assert result_view(resumed) == result_view(reference)
        stats = net.checkpoint_stats
        assert stats["rounds_restored"] == 0
        assert stats["rounds_executed"] == ROUNDS
        assert len(stats["corrupt_skipped"]) == len(dirs)
        assert all(
            r["reason"] == "manifest-unreadable"
            for r in stats["corrupt_skipped"]
        )

    def test_explicit_resume_path_corrupt_restarts_cleanly(self, tmp_path):
        reference = make_network("fast").run(gossip_program, INPUTS)
        dirs = self.seed_checkpoints(tmp_path)
        with open(os.path.join(dirs[-1], "payload.npz"), "r+b") as fh:
            fh.seek(8)
            fh.write(b"\xff\xff\xff\xff")
        # An explicitly named corrupt snapshot is never trusted: the run
        # restarts from round 0 and the skip is recorded in the report.
        net = make_network("fast")
        result = net.run(gossip_program, INPUTS, resume_from=dirs[-1])
        assert result_view(result) == result_view(reference)
        stats = net.checkpoint_stats
        assert stats["rounds_restored"] == 0
        assert stats["corrupt_skipped"][0]["reason"] == "digest-mismatch"
        assert stats["corrupt_skipped"][0]["path"] == dirs[-1]


class TestChaosExclusion:
    def test_active_fault_plan_refuses_checkpointing(self, tmp_path):
        plan = FaultPlan(seed=7, drop_rate=0.2)
        net = make_network("fast", fault_plan=plan)
        with pytest.raises(FaultInjectionError, match="fault plan"):
            net.run(
                gossip_program, INPUTS,
                checkpoint=CheckpointPolicy(str(tmp_path)),
            )


# -- tracing --------------------------------------------------------------


class TestTracingResume:
    def resumed_result(self, tmp_path):
        net = make_network("fast", record_transcript=True)
        with pytest.raises(RunPreempted):
            net.run(
                gossip_program, INPUTS,
                checkpoint=CheckpointPolicy(
                    str(tmp_path), every_rounds=1, preempt=preempt_after(2),
                ),
            )
        return make_network("fast", record_transcript=True).run(
            gossip_program, INPUTS,
            checkpoint=CheckpointPolicy(str(tmp_path)),
            resume_from="auto",
        )

    def test_stats_and_timeline_show_resume_point(self, tmp_path):
        result = self.resumed_result(tmp_path)
        stats = transcript_stats(result)
        assert stats["rounds"] == ROUNDS
        assert stats["resumed_at"] == 2
        timeline = render_timeline(result)
        assert "resumed from checkpoint at round 2 (native)" in timeline
        assert "round 1: " in timeline and "(restored)" in timeline
        assert timeline.count("(restored)") == 2
        # Rounds after the resume point are not marked restored.
        for line in timeline.splitlines():
            if line.startswith(("round 3", "round 4", "round 5", "round 6")):
                assert "(restored)" not in line

    def test_fresh_run_has_no_resume_marker(self):
        result = make_network("fast", record_transcript=True).run(
            gossip_program, INPUTS
        )
        assert "resumed_at" not in transcript_stats(result)
        assert "resumed from checkpoint" not in render_timeline(result)


# -- sweep integration ----------------------------------------------------


class TestSweepCheckpointing:
    PROTOS = ["routing", "mst"]

    def sweep(self):
        return ScenarioMatrix(
            self.PROTOS, ["gnp"], [8], engines=["legacy", "fast"]
        )

    def test_checkpointed_sweep_digests_identical(self, tmp_path):
        plain = self.sweep().run()
        checkpointed = self.sweep().run(
            checkpoint_dir=str(tmp_path / "ckpts"),
            checkpoint_every_rounds=1,
        )
        assert [c.digest for c in plain.cells] == [
            c.digest for c in checkpointed.cells
        ]
        by_engine = {}
        for cell in checkpointed.cells:
            if cell.status == "ok":
                by_engine.setdefault(cell.engine, []).append(cell)
        # Supporting engines snapshot; legacy honestly flushes nothing.
        assert any(c.checkpoints for c in by_engine["fast"])
        assert all(c.checkpoints == 0 for c in by_engine["legacy"])

    def test_checkpoint_dir_not_in_journal_fingerprint(self, tmp_path):
        from repro.scenarios.sweep import sweep_fingerprint

        matrix = self.sweep()
        assert "checkpoint" not in json.dumps(matrix._meta())
        assert sweep_fingerprint(matrix._meta()) == sweep_fingerprint(
            self.sweep()._meta()
        )

    def test_chaos_cells_skip_checkpointing(self, tmp_path):
        plan = FaultPlan(seed=3, drop_rate=0.3)
        result = ScenarioMatrix(
            ["routing"], ["gnp"], [8], engines=["legacy", "fast"],
            fault_plan=plan,
        ).run(
            checkpoint_dir=str(tmp_path / "ckpts"),
            checkpoint_every_rounds=1,
        )
        # Chaos cells executed (not refused) and wrote no snapshots.
        assert any(c.status == "ok" for c in result.cells)
        assert all(c.checkpoints is None for c in result.cells)
        assert not os.path.isdir(str(tmp_path / "ckpts")) or not os.listdir(
            str(tmp_path / "ckpts")
        )

    def test_cell_fields_roundtrip_through_journal_payload(self):
        from repro.scenarios.matrix import MatrixCell

        cell = MatrixCell(
            protocol="p", family="f", n=8, engine="fast", status="ok",
            resumed_from_round=3, checkpoints=2,
        )
        rebuilt = MatrixCell.from_dict(cell.to_dict())
        assert rebuilt.resumed_from_round == 3
        assert rebuilt.checkpoints == 2


class TestWorkerPreemption:
    def test_sigterm_flushes_final_snapshot_and_retry_resumes(
        self, temp_protocols, tmp_path
    ):
        temp_protocols(PREEMPTABLE)
        journal = str(tmp_path / "sweep.jsonl")
        serial = ScenarioMatrix(
            ["ckpttest_preemptable"], ["gnp"], [6], engines=["fast"]
        ).run()
        matrix = ScenarioMatrix(
            ["ckpttest_preemptable"], ["gnp"], [6], engines=["fast"]
        )
        result = matrix.run(
            workers=1, journal=journal,
            checkpoint_dir=str(tmp_path / "ckpts"),
            checkpoint_every_rounds=1,
        )
        (cell,) = result.cells
        assert cell.status == "ok"
        assert cell.attempts == 2
        # The retry resumed from the snapshot the SIGTERM handler
        # flushed — round 3, where the signal interrupted the run.
        assert cell.resumed_from_round == 3
        assert cell.digest == serial.cells[0].digest
        # Journal lineage: attempt 1 flushed snapshots (including the
        # preemption flush), attempt 2 flushed from the resume point on.
        loaded = SweepJournal.load(journal)
        key = cell.key(matrix.seed)
        lineage = loaded.checkpoints[key]
        assert {r["attempt"] for r in lineage} == {1, 2}
        rounds_1 = [r["round"] for r in lineage if r["attempt"] == 1]
        assert 3 in rounds_1
        # The interruption itself is durable attempt history.
        assert [a["attempt"] for a in loaded.attempts[key]] == [1]
        assert "RunPreempted" in loaded.attempts[key][0]["error"]
        # Completed cell cleaned up its snapshots.
        assert not os.path.isdir(
            os.path.join(str(tmp_path / "ckpts"), key.replace(":", "_"))
        )

    def test_sigkill_retry_resumes_from_partial_progress(
        self, temp_protocols, tmp_path
    ):
        temp_protocols(CRASHY)
        journal = str(tmp_path / "sweep.jsonl")
        serial = ScenarioMatrix(
            ["ckpttest_crashy"], ["gnp"], [6], engines=["fast"]
        ).run()
        matrix = ScenarioMatrix(
            ["ckpttest_crashy"], ["gnp"], [6], engines=["fast"]
        )
        result = matrix.run(
            workers=1, journal=journal,
            checkpoint_dir=str(tmp_path / "ckpts"),
            checkpoint_every_rounds=1,
        )
        (cell,) = result.cells
        assert cell.status == "ok"
        assert cell.attempts == 2
        # SIGKILL gave no chance to flush round 4; the retry resumed
        # from the last routine snapshot instead of from scratch —
        # strictly fewer rounds re-executed than a cold retry.
        assert cell.resumed_from_round is not None
        assert 1 <= cell.resumed_from_round <= 4
        assert cell.digest == serial.cells[0].digest
        loaded = SweepJournal.load(journal)
        key = cell.key(matrix.seed)
        assert loaded.checkpoints[key]
        assert loaded.cell_lines[key] == 1


# -- journal verification -------------------------------------------------


class TestJournalVerify:
    def _meta(self):
        return ScenarioMatrix(["routing"], ["gnp"], [8])._meta()

    def test_healthy_journal_reports_ok_with_lineage(self, tmp_path):
        path = str(tmp_path / "sweep.jsonl")
        with SweepJournal(path, self._meta()).open() as journal:
            journal.record_checkpoint("k1", 1, 3, "aa" * 32)
            journal.record_checkpoint("k1", 2, 5, "bb" * 32)
            journal.record_cell("k1", {"digest": "aa"}, attempt=2)
        report = verify_journal(path)
        assert report["ok"] is True
        assert report["cells"] == 1
        assert report["torn_line"] is False
        assert report["checkpoints"]["k1"] == {
            "flushes": 2,
            "last_round": 5,
            "last_digest": "bb" * 32,
            "attempts": [1, 2],
        }

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


class TestCLI:
    def run_cli(self, *args):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO, "src")
        return subprocess.run(
            [sys.executable, "-m", "repro.scenarios", *args],
            env=env, cwd=REPO, capture_output=True, text=True,
        )

    def test_checkpointed_sweep_then_journal_verify(self, tmp_path):
        journal = str(tmp_path / "sweep.jsonl")
        sweep = self.run_cli(
            "--protocols", "routing", "--families", "gnp", "--sizes", "8",
            "--engines", "fast", "--journal", journal,
            "--checkpoint-dir", str(tmp_path / "ckpts"),
            "--checkpoint-every-rounds", "2",
        )
        assert sweep.returncode == 0, sweep.stderr
        verify = self.run_cli("--journal-verify", journal)
        assert verify.returncode == 0, verify.stderr
        assert ": ok" in verify.stdout
        with open(journal, "a") as fh:
            fh.write("{broken\n")
            fh.write('{"also": "broken"\n')
        corrupt = self.run_cli("--journal-verify", journal)
        assert corrupt.returncode == 1
        assert "CORRUPT" in corrupt.stdout
