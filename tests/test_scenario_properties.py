"""Scenario coordinates as properties: random (protocol, family, n, seed)
draws over the registry, checked on every engine.

A coordinate's cells must all pass their own checks: each supported
engine finishes, its output passes the ground-truth validator, and its
digest matches the coordinate's reference cell (legacy).  An ok cell
has also passed the bandwidth-budget check the matrix makes right after
``prepare``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scenarios import ScenarioMatrix, family_names, protocol_names


@given(
    protocol=st.sampled_from(protocol_names()),
    family=st.sampled_from(family_names()),
    n=st.integers(min_value=6, max_value=12),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
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
