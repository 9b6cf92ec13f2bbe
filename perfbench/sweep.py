"""The benchmark's workloads and one pass of a workload's sweep.

A workload is a fixed list of scenario coordinates ``(protocol, family,
n)``.  One *pass* runs every coordinate the way the serial scenario
matrix does (``python -m repro.scenarios``): build the graph instance,
prepare the protocol once, run it on every engine the protocol supports
(the legacy reference first), and check each engine cell:

* the protocol's own ground-truth validator accepts the output;
* the cell's digest equals the legacy reference engine's digest for the
  same coordinate.

Instances follow the matrix's seeding convention exactly, so the digests
computed here are the ones the matrix CLI reports for ``--seed <sweep
seed>``.  Pass ``i`` of a run with ``--seed s`` uses sweep seed ``s *
PASS_STRIDE + i``: every pass sees fresh instances of the same shape.

Only the library's public surface is used (the protocol and family
registries, ``Network.run`` / ``Network.run_many`` and ``RunResult``),
so engine-internal refactors do not break the benchmark.
"""

from __future__ import annotations

import hashlib
import random
import sys
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from spans import Tracer, span

#: Sweep seeds of consecutive passes of one run are ``seed * PASS_STRIDE
#: + pass``; no run reaches this many passes, so runs never share one.
PASS_STRIDE = 1_000_000

#: The engine whose digest every other engine must reproduce.
REFERENCE_ENGINE = "legacy"

# The workloads put the time of a pass in different layers, so an
# optimisation of one layer moves one workload and leaves the others
# alone.  Sizes keep a pass between a fraction of a second and about
# two seconds, so a run measures many passes.
WORKLOADS: Dict[str, Tuple[Tuple[str, str, int], ...]] = {
    # Node-local computation: circuit construction and planning in
    # prepare, per-gate evaluation in the rounds.
    "local": (("triangle_mm", "gnp", 16), ("circuit_simulation", "gnp", 64)),
    # CLIQUE-BCAST rounds whose time goes to per-message Bits decoding.
    "broadcast": (("mst", "gnp", 64), ("subgraph_detection", "gnp", 48)),
    # Unicast delivery: lanes, compiled schedules, batched run_many.
    "routing": (("routing_many", "gnp", 96), ("routing", "complete", 64)),
}


@dataclass
class Tally:
    """Work counted over the cells of a run (the trace's count side)."""

    cells: int = 0
    failed: int = 0
    compiles: int = 0
    replays: int = 0
    replay_fallbacks: int = 0
    engine_fallbacks: int = 0
    #: The reference digest of every coordinate run.
    digests: Dict[str, str] = field(default_factory=dict)


def coordinate_key(sweep_seed: int, protocol: str, family: str, n: int) -> str:
    """The matrix's coordinate string: it seeds the instance rng."""
    return f"{sweep_seed}:{protocol}:{family}:{n}"


def _digest(record) -> str:
    # The scenario matrix's canonical digest: a single-run cell hashes
    # its record, a multi-instance cell the ordered tuple of records.
    return hashlib.sha256(repr(record).encode()).hexdigest()[:16]


def _engines(spec) -> Tuple[str, ...]:
    return tuple(sorted(spec.engines, key=lambda e: e != REFERENCE_ENGINE))


def run_coordinate(
    protocol: str,
    family: str,
    n: int,
    sweep_seed: int,
    tally: Tally,
    tracer: Optional[Tracer] = None,
) -> None:
    """Run one coordinate on every supported engine and check each cell."""
    from repro.core.network import Network
    from repro.scenarios.families import get_family
    from repro.scenarios.registry import get_protocol

    spec = get_protocol(protocol)
    key = coordinate_key(sweep_seed, protocol, family, n)
    cell_seed = int.from_bytes(hashlib.sha256(key.encode()).digest()[:4], "big")
    rng = random.Random(key)
    if tracer is not None:
        tracer.trace_id = key
    with span(tracer, "instance"):
        graph = get_family(family).build(n, rng)
    with span(tracer, "prepare"):
        prepared = spec.prepare(n, graph, rng)
    reference = None
    for engine in _engines(spec):
        tally.cells += 1
        try:
            program = prepared.programs[spec.program_for(engine)]
            kwargs = dict(prepared.network_kwargs)
            kwargs.setdefault("seed", cell_seed)
            with span(tracer, "run." + engine):
                network = Network(engine=engine, **kwargs)
                if prepared.instances is None:
                    runs = [network.run(program, inputs=prepared.inputs)]
                else:
                    runs = network.run_many(program, prepared.instances)
            with span(tracer, "check"):
                records = [
                    (prepared.summarize(r), r.rounds, r.total_bits, r.max_round_bits)
                    for r in runs
                ]
                if prepared.instances is None:
                    if prepared.validate is not None:
                        prepared.validate(records[0][0])
                    digest = _digest(records[0])
                else:
                    for k, record in enumerate(records):
                        prepared.validate_instance(k, record[0])
                    digest = _digest(tuple(records))
        except Exception as exc:  # noqa: BLE001 - a failed cell is counted, not fatal
            tally.failed += 1
            print(f"perfbench: {key}:{engine} failed: {exc!r}", file=sys.stderr)
            continue
        if reference is None:
            reference = digest
            tally.digests[key] = digest
        elif digest != reference:
            tally.failed += 1
            print(
                f"perfbench: {key}:{engine} digest {digest} != reference {reference}",
                file=sys.stderr,
            )
        stats = getattr(network, "schedule_stats", {})
        tally.compiles += stats.get("compiled", 0)
        tally.replays += stats.get("replayed", 0)
        tally.replay_fallbacks += stats.get("fallbacks", 0)
        tally.engine_fallbacks += sum(
            getattr(r, "fallback", None) is not None for r in runs
        )


def run_pass(
    coordinates: Tuple[Tuple[str, str, int], ...],
    sweep_seed: int,
    tally: Tally,
    tracer: Optional[Tracer] = None,
) -> None:
    """One pass over every coordinate of a workload."""
    with span(tracer, "pass"):
        for protocol, family, n in coordinates:
            run_coordinate(protocol, family, n, sweep_seed, tally, tracer)
