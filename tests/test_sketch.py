"""GF(2^m) arithmetic, Berlekamp–Massey, and syndrome set sketches."""

from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sketch import GF2m, SetSketch, berlekamp_massey, field_for_universe

FIELD = GF2m(8)
elements = st.integers(min_value=0, max_value=FIELD.order - 1)
nonzero = st.integers(min_value=1, max_value=FIELD.order - 1)


class TestFieldAxioms:
    @given(elements, elements)
    def test_commutativity(self, a, b):
        assert FIELD.mul(a, b) == FIELD.mul(b, a)

    @given(elements, elements, elements)
    def test_associativity(self, a, b, c):
        assert FIELD.mul(FIELD.mul(a, b), c) == FIELD.mul(a, FIELD.mul(b, c))

    @given(elements, elements, elements)
    def test_distributivity(self, a, b, c):
        assert FIELD.mul(a, b ^ c) == FIELD.mul(a, b) ^ FIELD.mul(a, c)

    @given(elements)
    def test_multiplicative_identity(self, a):
        assert FIELD.mul(a, 1) == a

    @given(nonzero)
    def test_inverse(self, a):
        assert FIELD.mul(a, FIELD.inv(a)) == 1

    @given(elements)
    def test_square_consistency(self, a):
        assert FIELD.square(a) == FIELD.mul(a, a) == FIELD.pow(a, 2)

    @given(nonzero, st.integers(min_value=-10, max_value=10))
    def test_pow_laws(self, a, e):
        assert FIELD.mul(FIELD.pow(a, e), FIELD.pow(a, 1 - e)) == a

    def test_zero_inverse_rejected(self):
        with pytest.raises(ZeroDivisionError):
            FIELD.inv(0)

    def test_freshman_dream(self):
        """(a+b)² = a² + b² in characteristic 2."""
        rng = random.Random(1)
        for _ in range(50):
            a, b = rng.randrange(256), rng.randrange(256)
            assert FIELD.square(a ^ b) == FIELD.square(a) ^ FIELD.square(b)

    def test_field_for_universe_sizes(self):
        assert field_for_universe(3).m == 2
        assert field_for_universe(4).m == 3
        assert field_for_universe(255).m == 8

    @pytest.mark.parametrize("m", [2, 3, 5, 8, 11])
    def test_poly_eval_horner(self, m):
        f = GF2m(m)
        rng = random.Random(m)
        coeffs = [rng.randrange(f.order) for _ in range(5)]
        x = rng.randrange(f.order)
        direct = 0
        for i, c in enumerate(coeffs):
            direct ^= f.mul(c, f.pow(x, i))
        assert f.poly_eval(coeffs, x) == direct


class TestLogTables:
    """The log/antilog mul must agree with the shift-and-xor reference
    in every tabulated field."""

    def test_tables_match_slow_mul_all_fields(self):
        from repro.sketch.gf2m import IRREDUCIBLE_POLYS

        for m in IRREDUCIBLE_POLYS:
            field = GF2m(m)
            rng = random.Random(m)
            samples = (
                range(field.order)
                if field.order <= 64
                else [rng.randrange(field.order) for _ in range(64)]
            )
            for a in samples:
                b = rng.randrange(field.order)
                assert field.mul(a, b) == field.mul_slow(a, b), (m, a, b)

    def test_tables_shared_across_instances(self):
        from repro.sketch.gf2m import _TABLE_CACHE

        first = GF2m(10)
        first.mul(3, 7)  # force table build
        second = GF2m(10)
        assert second._exp is first._exp
        assert 10 in _TABLE_CACHE

    def test_instance_created_before_build_reuses_cache(self):
        # Both instances predate the table build; the second's first
        # multiply must adopt the cache, not rebuild it.
        first = GF2m(11)
        second = GF2m(11)
        first.mul(3, 7)
        second.mul(5, 9)
        assert second._exp is first._exp

    def test_inv_matches_fermat_all_small_fields(self):
        # The log-table inverse against a^(2^m - 2), which pow computes
        # by multiplication alone.
        from repro.sketch.gf2m import IRREDUCIBLE_POLYS

        for m in IRREDUCIBLE_POLYS:
            if m > 12:
                continue
            field = GF2m(m)
            for a in range(1, field.order):
                inverse = field.inv(a)
                assert inverse == field.pow(a, field.order - 2), (m, a)
                assert field.mul(a, inverse) == 1, (m, a)

    @given(elements, elements)
    def test_mul_matches_slow_mul(self, a, b):
        assert FIELD.mul(a, b) == FIELD.mul_slow(a, b)

    def test_zero_annihilates(self):
        field = GF2m(6)
        for a in range(field.order):
            assert field.mul(a, 0) == 0
            assert field.mul(0, a) == 0


class TestBerlekampMassey:
    def test_constant_zero(self):
        assert berlekamp_massey(FIELD, [0, 0, 0, 0]) == [1]

    def test_geometric_sequence(self):
        # s_j = x^j satisfies s_j = x * s_{j-1}: connection poly 1 + x·z.
        x = 7
        seq = [FIELD.pow(x, j) for j in range(1, 9)]
        poly = berlekamp_massey(FIELD, seq)
        assert len(poly) == 2
        # root of 1 + c1·z is z = inv(c1) and must equal inv(x).
        assert FIELD.poly_eval(poly, FIELD.inv(x)) == 0

    @given(
        st.sets(nonzero, min_size=1, max_size=6),
    )
    def test_locator_roots_are_set_inverses(self, values):
        t = 6
        syndromes = []
        for j in range(1, 2 * t + 1):
            s = 0
            for x in values:
                s ^= FIELD.pow(x, j)
            syndromes.append(s)
        locator = berlekamp_massey(FIELD, syndromes)
        assert len(locator) - 1 == len(values)
        for x in values:
            assert FIELD.poly_eval(locator, FIELD.inv(x)) == 0


class TestSetSketch:
    @given(st.sets(nonzero, max_size=6))
    def test_roundtrip_within_capacity(self, values):
        sketch = SetSketch(FIELD, 6, values)
        assert sketch.decode(range(1, FIELD.order)) == values

    @given(st.sets(nonzero, min_size=7, max_size=12))
    def test_overflow_fails_or_returns_syndrome_decoy(self, values):
        """Beyond the capacity the decoder may fail (usual) or return a
        *decoy*: a different set of size <= t with identical syndromes —
        the classical beyond-the-BCH-radius behaviour.  What it can
        never do is return a wrong set that fails the syndrome check."""
        sketch = SetSketch(FIELD, 6, values)
        decoded = sketch.decode(range(1, FIELD.order))
        if decoded is not None:
            assert decoded != values
            assert len(decoded) <= 6
            assert SetSketch(FIELD, 6, decoded) == sketch

    @given(st.sets(nonzero, min_size=7, max_size=12))
    def test_overflow_rejected_when_size_known(self, values):
        """With the true cardinality supplied (the Becker decoder's
        situation), over-capacity sets are always rejected."""
        sketch = SetSketch(FIELD, 6, values)
        assert sketch.decode(range(1, FIELD.order), expected_size=len(values)) is None

    @given(st.sets(nonzero, max_size=6), st.sets(nonzero, max_size=6))
    def test_merge_is_symmetric_difference(self, a, b):
        sa = SetSketch(FIELD, 12, a)
        sb = SetSketch(FIELD, 12, b)
        sa.merge(sb)
        assert sa.decode(range(1, FIELD.order)) == (a ^ b)

    @given(st.sets(nonzero, min_size=1, max_size=6))
    def test_toggle_removes(self, values):
        sketch = SetSketch(FIELD, 6, values)
        victim = min(values)
        sketch.toggle(victim)
        assert sketch.decode(range(1, FIELD.order)) == values - {victim}

    def test_expected_size_mismatch_rejected(self):
        sketch = SetSketch(FIELD, 4, {3, 5})
        assert sketch.decode(range(1, FIELD.order), expected_size=3) is None
        assert sketch.decode(range(1, FIELD.order), expected_size=2) == {3, 5}

    def test_empty_sketch(self):
        sketch = SetSketch(FIELD, 4)
        assert sketch.is_zero()
        assert sketch.decode(range(1, FIELD.order)) == set()
        assert sketch.decode(range(1, FIELD.order), expected_size=0) == set()

    def test_zero_element_rejected(self):
        with pytest.raises(ValueError):
            SetSketch(FIELD, 4, {0})

    @given(st.sets(nonzero, max_size=5))
    def test_bits_roundtrip(self, values):
        sketch = SetSketch(FIELD, 5, values)
        packed = sketch.to_bits()
        assert len(packed) == sketch.bit_size() == 5 * FIELD.m
        restored = SetSketch.from_bits(FIELD, 5, packed)
        assert restored == sketch
        assert restored.decode(range(1, FIELD.order)) == values

    def test_universe_restriction(self):
        """Roots outside the candidate universe make decoding fail the
        verification rather than hallucinate."""
        sketch = SetSketch(FIELD, 4, {100, 200})
        assert sketch.decode(range(1, 50)) is None

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            SetSketch(FIELD, 4).merge(SetSketch(FIELD, 5))
