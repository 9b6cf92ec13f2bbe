"""Persistent, content-addressed cache of compiled kernel schedules.

The paper's protocols are oblivious: a program's round structure is a
pure function of its public parameters, never of the inputs, and kernel
programs declare it up front.  The kernel engine's in-process cache
already compiles each program once per ``Network``; this module extends
the amortization across *processes* — a sweep's worker pool shares one
cache directory, so each distinct kernel program is compiled exactly
once for the whole sweep instead of once per worker.  Generator
programs have no compiled form and never touch the cache.

Layout (one directory per entry, checkpoint-store idiom)::

    <cache>/<digest>/manifest.json   # schema, full key, round table,
                                     # params, payload sha256
    <cache>/<digest>/payload.npz     # flat arrays of every distinct
                                     # LaneStructure (cols/sizes/senders
                                     # and optional per-message widths)

``digest`` is the first 16 hex digits of a sha256 over the program's
*cross-process stable* identity — its name and full declared structure
— plus everything the schedule was validated against: ``n``,
bandwidth, mode, and the topology.  The full 64-digit key lives
in the manifest and is compared on load, so a truncated-digest
collision is detected and rejected rather than served.

Trust model: a cache entry is a *hint*.  Loads are sha256-verified and
any corruption (truncated payload, bad JSON, schema drift) evicts the
entry and degrades to a clean compile, and
:func:`repro.core.kernels.rebuild_kernel_schedule` re-checks the loaded
structures against the program's declared rounds byte for byte before
they are trusted.  A wrong entry can cost a compile; it cannot corrupt
results.

Writes are atomic (stage into a pid-unique temp directory, publish
with one ``os.rename``), so concurrent workers racing to store the
same digest are safe — the loser discards its copy.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.core.compiled import (
    BCAST,
    LANE,
    CompiledSchedule,
    LaneStructure,
    describe_program,
)

__all__ = [
    "SCHEDULE_CACHE_SCHEMA",
    "ScheduleCache",
    "program_digest",
    "network_digest_context",
]

#: Bump when the on-disk layout changes; mismatched entries are evicted
#: and recompiled, never migrated.
SCHEDULE_CACHE_SCHEMA = 1


def _sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def network_digest_context(network: Any) -> Tuple[Any, ...]:
    """The validation context a schedule is keyed under: everything
    ``compile_program`` checked the structure against.
    Topology enters as a digest of the adjacency sets, so a CONGEST
    entry can never be served to a different graph."""
    from repro.core.checkpoint import stable_digest

    allowed = getattr(network, "_allowed", None)
    topology = (
        None
        if allowed is None
        else stable_digest([sorted(neigh) for neigh in allowed])
    )
    return (network.n, network.bandwidth, network.mode.value, topology)


def program_digest(program: Any, network: Any) -> Tuple[str, str]:
    """``(dirname digest, full key)`` for kernel ``program`` on
    ``network``.

    The digest covers the program's full declared structure — the key
    *is* the schedule, so it self-verifies.
    """
    from repro.core.checkpoint import stable_digest
    from repro.core.kernels import UnicastRound

    declared: List[Any] = []
    for spec in program.rounds:
        if isinstance(spec, UnicastRound):
            declared.append(
                (
                    "u",
                    spec.width,
                    tuple(int(v) for v, _ in spec.pairs),
                    tuple(int(dests.size) for _, dests in spec.pairs),
                    b"".join(dests.tobytes() for _, dests in spec.pairs),
                    None if spec.widths is None else spec.widths.tobytes(),
                )
            )
        else:
            declared.append(("b", spec.width, spec.writers.tobytes()))
    material = (
        "kernel", program.name, network_digest_context(network), tuple(declared)
    )
    full_key = hashlib.sha256(
        stable_digest(list(material)).encode("ascii")
    ).hexdigest()
    return full_key[:16], full_key


class ScheduleCache:
    """One process's handle on a shared on-disk schedule store.

    Counters in :attr:`stats` (hits / misses / stores / evictions /
    corrupt_evictions / key_mismatches) are per-handle, so a sweep cell
    that builds its own :class:`~repro.core.network.Network` per sample
    can journal exactly what that cell did.
    """

    __slots__ = ("directory", "stats")

    def __init__(self, directory) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.stats: Dict[str, int] = {
            "hits": 0,
            "misses": 0,
            "stores": 0,
            "evictions": 0,
            "corrupt_evictions": 0,
            "key_mismatches": 0,
        }

    # -- load -------------------------------------------------------------

    def load(self, digest: str, full_key: str, network: Any) -> Optional[CompiledSchedule]:
        """Rebuild the entry at ``digest``, or ``None`` (counted as a
        miss, key mismatch, or corrupt eviction as appropriate)."""
        entry_dir = self.directory / digest
        manifest_path = entry_dir / "manifest.json"
        payload_path = entry_dir / "payload.npz"
        if not manifest_path.is_file() or not payload_path.is_file():
            self.stats["misses"] += 1
            return None
        try:
            with open(manifest_path, "r", encoding="utf-8") as handle:
                manifest = json.load(handle)
        except (OSError, ValueError):
            return self._evict_corrupt(entry_dir)
        if manifest.get("schema") != SCHEDULE_CACHE_SCHEMA:
            return self._evict_corrupt(entry_dir)
        if manifest.get("key") != full_key:
            # Truncated-digest collision: the entry belongs to a
            # different program.  Reject, but leave it in place — it is
            # not corrupt, merely not ours.
            self.stats["key_mismatches"] += 1
            self.stats["misses"] += 1
            return None
        try:
            if _sha256_file(payload_path) != manifest["payload_sha256"]:
                return self._evict_corrupt(entry_dir)
            compiled = _decode_entry(manifest, payload_path, network)
        except Exception:
            return self._evict_corrupt(entry_dir)
        self.stats["hits"] += 1
        return compiled

    def _evict_corrupt(self, entry_dir: Path) -> None:
        shutil.rmtree(entry_dir, ignore_errors=True)
        self.stats["corrupt_evictions"] += 1
        self.stats["misses"] += 1
        return None

    # -- store ------------------------------------------------------------

    def store(
        self,
        digest: str,
        full_key: str,
        compiled: CompiledSchedule,
        network: Any,
        program: Any = None,
    ) -> bool:
        """Persist ``compiled`` under ``digest``; atomic and race-safe.
        Returns True when this process published the entry."""
        import numpy as np

        entry_dir = self.directory / digest
        if entry_dir.exists():
            return False
        structs: List[LaneStructure] = []
        struct_index: Dict[int, int] = {}
        bcasts: List[Tuple[Tuple[int, ...], int]] = []
        bcast_index: Dict[Tuple[Tuple[int, ...], int], int] = {}
        rounds: List[List[int]] = []
        for kind, payload, bits in compiled.rounds:
            if kind == LANE:
                ref = struct_index.get(id(payload))
                if ref is None:
                    ref = struct_index[id(payload)] = len(structs)
                    structs.append(payload)
            else:
                shape = (tuple(int(v) for v in payload[0]), int(payload[1]))
                ref = bcast_index.get(shape)
                if ref is None:
                    ref = bcast_index[shape] = len(bcasts)
                    bcasts.append(shape)
            rounds.append([int(kind), int(ref), int(bits)])
        arrays: Dict[str, Any] = {}
        struct_meta: List[Dict[str, Any]] = []
        for i, struct in enumerate(structs):
            arrays[f"s{i}_senders"] = np.asarray(struct.sender_ids, dtype=np.int64)
            arrays[f"s{i}_sizes"] = np.asarray(
                [size for _, _, size in struct.entries], dtype=np.int64
            )
            arrays[f"s{i}_cols"] = struct.cols.astype(np.int64, copy=False)
            meta = {"width": int(struct.width), "has_widths": struct.widths is not None}
            if struct.widths is not None:
                arrays[f"s{i}_widths"] = np.asarray(struct.widths)
            struct_meta.append(meta)
        bandwidth, mode = compiled.params
        manifest = {
            "schema": SCHEDULE_CACHE_SCHEMA,
            "key": full_key,
            "program": describe_program(program) if program is not None else "",
            "params": [int(bandwidth), mode.value],
            "rounds": rounds,
            "structs": struct_meta,
            "bcasts": [[list(ids), width] for ids, width in bcasts],
        }
        tmp_dir = self.directory / f".tmp-{digest}-{os.getpid()}"
        shutil.rmtree(tmp_dir, ignore_errors=True)
        try:
            tmp_dir.mkdir(parents=True)
            payload_tmp = tmp_dir / "payload.npz"
            with open(payload_tmp, "wb") as handle:
                np.savez(handle, **arrays)
            manifest["payload_sha256"] = _sha256_file(payload_tmp)
            with open(tmp_dir / "manifest.json", "w", encoding="utf-8") as handle:
                json.dump(manifest, handle, sort_keys=True)
                handle.flush()
                os.fsync(handle.fileno())
            os.rename(tmp_dir, entry_dir)
        except OSError:
            # Lost a store race (entry_dir appeared) or the filesystem
            # objected; either way the cache simply stays cold here.
            shutil.rmtree(tmp_dir, ignore_errors=True)
            return False
        self.stats["stores"] += 1
        return True

    # -- evict ------------------------------------------------------------

    def evict(self, digest: str) -> None:
        """Drop the entry at ``digest`` (the kernel layer rejected it:
        the stored structure does not match the program's declared
        rounds)."""
        entry_dir = self.directory / digest
        if entry_dir.exists():
            shutil.rmtree(entry_dir, ignore_errors=True)
            self.stats["evictions"] += 1


def _decode_entry(
    manifest: Dict[str, Any], payload_path: Path, network: Any
) -> CompiledSchedule:
    """Rebuild a :class:`CompiledSchedule` from a verified entry.

    Distinct structures are materialized once and shared by reference
    across rounds — the loaded schedule preserves the compiler's dedup,
    which the lane's presence-mask reuse and the kernel zero-churn memo
    both key on.
    """
    import numpy as np

    from repro.core.network import Mode

    with np.load(payload_path) as payload:
        structs: List[LaneStructure] = []
        for i, meta in enumerate(manifest["structs"]):
            senders = payload[f"s{i}_senders"]
            sizes = payload[f"s{i}_sizes"]
            cols = payload[f"s{i}_cols"].astype(np.intp, copy=False)
            widths = payload[f"s{i}_widths"] if meta["has_widths"] else None
            splits = np.split(cols, np.cumsum(sizes)[:-1]) if sizes.size else []
            pairs = [
                (int(sender), dests) for sender, dests in zip(senders, splits)
            ]
            structs.append(LaneStructure(int(meta["width"]), pairs, widths=widths))
    bcast_shapes = [
        (tuple(int(v) for v in ids), int(width))
        for ids, width in manifest["bcasts"]
    ]
    rounds: List[Tuple[int, Any, int]] = []
    for kind, ref, bits in manifest["rounds"]:
        if kind == LANE:
            rounds.append((LANE, structs[ref], bits))
        elif kind == BCAST:
            rounds.append((BCAST, bcast_shapes[ref], bits))
        else:
            raise ValueError(f"unknown round kind {kind}")
    compiled = CompiledSchedule(rounds)
    bandwidth, mode_value = manifest["params"]
    compiled.params = (int(bandwidth), Mode(mode_value))
    return compiled
