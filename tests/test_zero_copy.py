"""The zero-copy sweep fabric (PR 10): persistent compiled-schedule
cache, shared-memory delivery/transport, and intra-cell K-sharding.

Three layers are covered here:

* the on-disk :class:`~repro.core.engine.schedule_cache.ScheduleCache` —
  warm kernel loads, corruption degrading to a clean recompile, the
  truncated-digest collision guard, and generator engines leaving it
  untouched;
* the shared-memory primitives — :class:`SharedLaneArena` allocation,
  payload publish/fetch round-trips, and the prefix leak sweep;
* K-sharding — shard planning at chunk seams, shard/merge digest
  identity against the serial runner, and the pooled chaos drill
  (worker SIGKILL mid-sweep: retried, digest-identical, zero leaked
  segments).
"""

import json
import os
import pathlib

import numpy as np
import pytest

from repro.core.engine import delivery
from repro.core.engine.delivery import SharedLaneArena, batch_chunk_size
from repro.core.engine.schedule_cache import ScheduleCache
from repro.core.network import Network, Outbox
from repro.scenarios import ScenarioMatrix, get_protocol
from repro.scenarios.matrix import (
    instance_graph,
    merge_shard_payloads,
    plan_shards,
    run_cell,
    run_cell_shard,
)
from repro.scenarios.sweep.shm import (
    SEGMENT_PREFIX,
    fetch_payload,
    leaked_segments,
    publish_payload,
    shm_available,
    sweep_leaked_segments,
)

needs_shm = pytest.mark.skipif(
    not shm_available(), reason="POSIX shared memory unavailable"
)


def _cell(engine, *, schedule_cache=None, shard_k=None, n=8, seed=11):
    spec = get_protocol("routing_many")
    if shard_k is None:
        return run_cell(
            spec, "gnp", n, engine, seed=seed, schedule_cache=schedule_cache
        )
    payloads = [
        run_cell_shard(
            spec, "gnp", n, engine, seed=seed, lo=lo, hi=hi,
            schedule_cache=schedule_cache,
        )
        for lo, hi in plan_shards(spec.instances, shard_k, n)
    ]
    return merge_shard_payloads(spec, "gnp", n, engine, payloads)


class TestRegistry:
    def test_routing_many_declares_instances(self):
        import random

        spec = get_protocol("routing_many")
        assert spec.instances == 6
        graph = instance_graph(0, spec.name, "gnp", 8)
        prepared = spec.prepare(8, graph, random.Random(0))
        assert prepared.instances is not None
        assert len(prepared.instances) == spec.instances
        # The static verifier analyzes ``inputs``; it must be a real
        # instance, and by convention the first one.
        assert prepared.inputs == prepared.instances[0]
        assert prepared.validate_instance is not None

    def test_single_instance_protocols_unsharded(self):
        spec = get_protocol("routing")
        assert spec.instances == 1
        # A shard request against a single-instance protocol is a failed
        # payload, not a worker crash: the supervisor quarantines it.
        payload = run_cell_shard(spec, "gnp", 8, "fast", seed=0, lo=0, hi=1)
        assert payload["records"] is None
        assert payload["cell"]["status"] == "failed"
        assert "not multi-instance" in payload["cell"]["error"]


class TestPlanShards:
    def test_none_is_one_span(self):
        assert plan_shards(6, None, 8) == [(0, 6)]
        assert plan_shards(6, 0, 8) == [(0, 6)]

    def test_cover_and_disjoint(self):
        for total in (1, 5, 6, 17):
            for k in (1, 2, 3, 10):
                spans = plan_shards(total, k, 8)
                assert spans[0][0] == 0 and spans[-1][1] == total
                for (_, hi), (lo2, _) in zip(spans, spans[1:]):
                    assert hi == lo2

    def test_aligns_down_to_chunk(self, monkeypatch):
        # 3 instances per chunk at n=8: 8*8*8 bytes * 3.
        monkeypatch.setattr(delivery, "DEFAULT_CHUNK_BYTES", 8 * 8 * 8 * 3)
        assert batch_chunk_size(8) == 3
        # A shard size above one chunk is aligned down to a multiple.
        assert plan_shards(12, 5, 8) == [(0, 3), (3, 6), (6, 9), (9, 12)]
        # At or below one chunk the requested size is kept.
        assert plan_shards(6, 2, 8) == [(0, 2), (2, 4), (4, 6)]

    def test_chunk_budget(self, monkeypatch):
        assert batch_chunk_size(8) == max(1, (64 << 20) // (8 * 8 * 8))
        monkeypatch.setattr(delivery, "DEFAULT_CHUNK_BYTES", 8 * 8 * 8)
        assert batch_chunk_size(8) == 1


class TestShardDigests:
    def test_shard_merge_matches_serial(self):
        for engine in ("legacy", "fast", "kernel"):
            serial = _cell(engine)
            for shard_k in (1, 2, 4):
                merged = _cell(engine, shard_k=shard_k)
                assert merged.status == "ok", merged.error
                assert merged.digest == serial.digest, (engine, shard_k)
                assert merged.instances == serial.instances == 6
                assert merged.total_bits == serial.total_bits
                assert merged.validated is True
            assert serial.shards is None

    def test_shard_merge_matches_serial_tiny_chunks(self, monkeypatch):
        # One-instance chunks force the maximum number of shard seams
        # (the kernel engine is the one engine that chunks run_many).
        monkeypatch.setattr(delivery, "DEFAULT_CHUNK_BYTES", 8 * 8 * 8)
        serial = _cell("kernel")
        merged = _cell("kernel", shard_k=4)
        assert merged.digest == serial.digest
        assert merged.shards == len(plan_shards(6, 4, 8))

    def test_matrix_run_shard_k_identical(self, tmp_path):
        def make():
            return ScenarioMatrix(
                ["routing_many"], ["gnp"], [8], seed=11
            )

        plain = make().run()
        sharded = make().run(
            schedule_cache=str(tmp_path / "cache"), shard_k=2
        )
        assert [c.digest for c in sharded.cells] == [
            c.digest for c in plain.cells
        ]
        assert all(c.shards == 3 for c in sharded.cells)
        assert not sharded.mismatches()


class TestScheduleCache:
    def _warm(self, tmp_path):
        cache = str(tmp_path / "cache")
        cold = _cell("kernel", schedule_cache=cache)
        assert cold.status == "ok", cold.error
        assert cold.schedule_compiles >= 1
        return cache, cold

    def test_warm_load_skips_compile(self, tmp_path):
        cache, cold = self._warm(tmp_path)
        warm = _cell("kernel", schedule_cache=cache)
        assert warm.digest == cold.digest
        assert warm.schedule_compiles == 0
        assert warm.cache_misses == 0
        assert warm.cache_hits >= 1

    def test_fast_engine_leaves_cache_untouched(self, tmp_path):
        def program(ctx):
            dests = list(ctx.neighbors)
            inbox = yield Outbox.fixed_width(dests, [ctx.node_id] * len(dests), 8)
            return sorted(inbox.uint_items())

        cache_dir = tmp_path / "cache"
        network = Network(n=10, bandwidth=8, engine="fast", schedule_cache=cache_dir)
        network.run(program)
        network.run_many(program, [None, None])
        stats = network.schedule_cache.stats
        assert (stats["hits"], stats["misses"], stats["stores"]) == (0, 0, 0)
        assert list(cache_dir.iterdir()) == []
        assert network.schedule_stats["compiled"] == 0

    def test_legacy_engine_ignores_cache(self, tmp_path):
        cache, _ = self._warm(tmp_path)
        cell = _cell("legacy", schedule_cache=cache)
        assert cell.status == "ok"
        assert cell.schedule_compiles == 0
        assert cell.cache_hits == 0 and cell.cache_misses == 0

    def _entries(self, cache):
        return [
            entry
            for entry in sorted(pathlib.Path(cache).iterdir())
            if not entry.name.startswith(".")
        ]

    def test_corrupt_payload_evicts_and_rerecords(self, tmp_path):
        cache, cold = self._warm(tmp_path)
        (entry,) = self._entries(cache)
        payload = entry / "payload.npz"
        payload.write_bytes(payload.read_bytes()[:-16])
        recompiled = _cell("kernel", schedule_cache=cache)
        assert recompiled.digest == cold.digest
        assert recompiled.cache_evictions >= 1
        assert recompiled.schedule_compiles >= 1
        # The eviction re-stored a pristine entry: warm again.
        warm = _cell("kernel", schedule_cache=cache)
        assert warm.schedule_compiles == 0
        assert warm.digest == cold.digest

    def test_truncated_manifest_evicts_and_rerecords(self, tmp_path):
        cache, cold = self._warm(tmp_path)
        (entry,) = self._entries(cache)
        manifest = entry / "manifest.json"
        manifest.write_text(manifest.read_text()[:40])
        recompiled = _cell("kernel", schedule_cache=cache)
        assert recompiled.digest == cold.digest
        assert recompiled.cache_evictions >= 1
        warm = _cell("kernel", schedule_cache=cache)
        assert warm.schedule_compiles == 0

    def test_collision_guard_rejects_foreign_entry(self, tmp_path):
        cache, cold = self._warm(tmp_path)
        (entry,) = self._entries(cache)
        manifest_path = entry / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["key"] = "f" * 64
        manifest_path.write_text(json.dumps(manifest, sort_keys=True))
        cell = _cell("kernel", schedule_cache=cache)
        # Not served, not evicted: the entry belongs to another program.
        assert cell.digest == cold.digest
        assert cell.schedule_compiles >= 1
        assert cell.cache_evictions == 0
        survivor = json.loads(manifest_path.read_text())
        assert survivor["key"] == "f" * 64

    def test_direct_load_counts_key_mismatch(self, tmp_path):
        cache, _ = self._warm(tmp_path)
        (entry,) = self._entries(cache)
        handle = ScheduleCache(cache)
        real_key = json.loads((entry / "manifest.json").read_text())["key"]
        assert handle.load(entry.name, "0" * 64, None) is None
        assert handle.stats["key_mismatches"] == 1
        assert handle.load("deadbeefdeadbeef", real_key, None) is None
        assert handle.stats["misses"] == 2


class TestSharedMemory:
    @needs_shm
    def test_arena_zeros_and_close(self):
        arena = SharedLaneArena(f"{SEGMENT_PREFIX}-test-arena")
        array = arena.zeros((4, 8, 8), np.uint64)
        assert array.shape == (4, 8, 8) and not array.any()
        array[2, 3, 4] = 7
        assert leaked_segments(f"{SEGMENT_PREFIX}-test-arena")
        del array
        arena.close()
        assert leaked_segments(f"{SEGMENT_PREFIX}-test-arena") == []

    def test_arena_object_dtype_falls_back_to_heap(self):
        arena = SharedLaneArena(f"{SEGMENT_PREFIX}-test-objarena")
        array = arena.zeros((3, 3), object)
        assert array.dtype.hasobject
        assert leaked_segments(f"{SEGMENT_PREFIX}-test-objarena") == []
        arena.close()

    @needs_shm
    def test_publish_fetch_roundtrip_unlinks(self):
        payload = {"records": list(range(100)), "blob": b"x" * 4096}
        descriptor, inline = publish_payload(
            payload, f"{SEGMENT_PREFIX}-test-rt"
        )
        assert inline is None
        assert set(descriptor) == {"shm", "nbytes"}
        assert leaked_segments(f"{SEGMENT_PREFIX}-test-rt")
        assert fetch_payload(descriptor) == payload
        assert leaked_segments(f"{SEGMENT_PREFIX}-test-rt") == []

    @needs_shm
    def test_prefix_sweep_reclaims_orphans(self):
        from repro.scenarios.sweep.shm import create_segment

        create_segment(f"{SEGMENT_PREFIX}-test-orphan-1", 64)
        create_segment(f"{SEGMENT_PREFIX}-test-orphan-2", 64)
        assert len(leaked_segments(f"{SEGMENT_PREFIX}-test-orphan")) == 2
        assert sweep_leaked_segments(f"{SEGMENT_PREFIX}-test-orphan") == 2
        assert leaked_segments(f"{SEGMENT_PREFIX}-test-orphan") == []
        assert sweep_leaked_segments(f"{SEGMENT_PREFIX}-test-orphan") == 0

    @needs_shm
    def test_create_replaces_stale_name(self):
        from repro.scenarios.sweep.shm import create_segment, destroy_segment

        first = create_segment(f"{SEGMENT_PREFIX}-test-stale", 64)
        first.buf[0] = 1
        first.close()  # abandoned without unlink: a "crashed" creator
        second = create_segment(f"{SEGMENT_PREFIX}-test-stale", 128)
        assert second.buf[0] == 0
        destroy_segment(second)
        assert leaked_segments(f"{SEGMENT_PREFIX}-test-stale") == []


class TestPooledZeroCopy:
    def test_sigkill_mid_sweep_retries_without_leaks(self, tmp_path):
        def make():
            return ScenarioMatrix(["routing_many"], ["gnp"], [8], seed=11)

        serial = make().run()
        chaos = make().run(
            workers=2,
            schedule_cache=str(tmp_path / "cache"),
            shard_k=2,
            chaos_kills=[1],
        )
        pool = chaos.meta["pool"]
        assert pool["executor"] == "pool"
        assert pool["respawns"] >= 1
        assert pool["shard_tasks"] == 9
        assert chaos.quarantined() == []
        assert [c.digest for c in chaos.cells] == [
            c.digest for c in serial.cells
        ]
        assert leaked_segments(SEGMENT_PREFIX) == []

    def test_warm_cache_shared_across_workers(self, tmp_path):
        cache = str(tmp_path / "cache")

        def make():
            return ScenarioMatrix(["routing_many"], ["gnp"], [8], seed=11)

        cold = make().run(workers=2, schedule_cache=cache, shard_k=2)
        assert os.listdir(cache)
        warm = make().run(workers=2, schedule_cache=cache, shard_k=2)
        assert [c.digest for c in warm.cells] == [
            c.digest for c in cold.cells
        ]
        assert sum(c.schedule_compiles or 0 for c in warm.cells) == 0
        assert sum(c.cache_misses or 0 for c in warm.cells) == 0
