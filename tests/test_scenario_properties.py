"""Scenario coordinates as properties: random (protocol, family, n, seed)
draws over the registry, checked on every engine.

A coordinate's cells must all pass their own checks: each supported
engine finishes, its output passes the ground-truth validator, and its
digest matches the coordinate's reference cell (legacy).  An ok cell
has also passed the bandwidth-budget check the matrix makes right after
``prepare``.

Each engine's accounting must also agree with its own transcript: the
rounds, total bits and largest round a run reports are what its
transcript's round records add up to, and recording the transcript
changes nothing a cell digests.
"""

import random
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scenarios import (
    ScenarioMatrix,
    family_names,
    get_family,
    get_protocol,
    protocol_names,
)
from repro.scenarios.matrix import _run_records

coordinates = given(
    protocol=st.sampled_from(protocol_names()),
    family=st.sampled_from(family_names()),
    n=st.integers(min_value=6, max_value=12),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)


@coordinates
@settings(max_examples=30)
def test_every_supported_cell_is_ok_validated_and_matches_reference(
    protocol, family, n, seed
):
    result = ScenarioMatrix([protocol], [family], [n], seed=seed).run()
    supported = [cell for cell in result.cells if cell.status != "unsupported"]
    assert supported
    for cell in supported:
        assert cell.status == "ok", (cell.engine, cell.error)
        assert cell.validated is True, (cell.engine, cell.error)
        assert cell.matches_reference is True, cell.engine
    assert result.mismatches() == []


@coordinates
@settings(max_examples=30)
def test_transcript_agrees_with_each_engines_accounting(protocol, family, n, seed):
    spec = get_protocol(protocol)
    rng = random.Random(seed)
    prepared = spec.prepare(n, get_family(family).build(n, rng), rng)
    traced = replace(
        prepared, network_kwargs={**prepared.network_kwargs, "record_transcript": True}
    )
    for engine in spec.engines:
        program = spec.program(prepared, engine)
        runs, records, digest, _ = _run_records(traced, program, engine, seed, None)
        for run in runs:
            per_round = [record.bits() for record in run.transcript]
            assert run.rounds == len(per_round), engine
            assert run.total_bits == sum(per_round), engine
            assert run.max_round_bits == max(per_round, default=0), engine
        plain = _run_records(prepared, program, engine, seed, None)
        assert (records, digest) == (plain[1], plain[2]), engine
