"""Arithmetic in the binary extension fields GF(2^m).

This is the algebra underneath the deterministic one-round graph
reconstruction of Becker et al. [2] as we implement it (README
"Departures from the paper" #2): node neighbourhoods are encoded as
BCH-style power-sum syndromes over GF(2^m), which decode any set of
size <= k from O(k·m) bits.  Elements are plain Python ints in
[0, 2^m); addition is XOR.

Multiplication uses precomputed log/antilog tables: every tabulated
field has at most 2^16 elements, so ``exp``/``log`` arrays over a
primitive element fit comfortably in memory and turn the shift-and-xor
reduction loop into two lookups and one modular add.  The tables are
built lazily (first multiply) and shared process-wide per degree; the
carry-less loop survives as :meth:`GF2m.mul_slow`, the executable
reference the test suite cross-checks the tables against.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

__all__ = ["GF2m", "IRREDUCIBLE_POLYS"]

# Process-wide (exp, log) tables keyed by degree m; built on the first
# multiply in GF(2^m) and shared by every GF2m(m) instance thereafter.
_TABLE_CACHE: Dict[int, Tuple[List[int], List[int]]] = {}

# One irreducible polynomial per degree, represented as an int whose bits
# are coefficients (bit m = x^m term).  Standard low-weight choices.
IRREDUCIBLE_POLYS: Dict[int, int] = {
    1: 0b11,                 # x + 1
    2: 0b111,                # x^2 + x + 1
    3: 0b1011,               # x^3 + x + 1
    4: 0b10011,              # x^4 + x + 1
    5: 0b100101,             # x^5 + x^2 + 1
    6: 0b1000011,            # x^6 + x + 1
    7: 0b10000011,           # x^7 + x + 1
    8: 0b100011011,          # x^8 + x^4 + x^3 + x + 1
    9: 0b1000010001,         # x^9 + x^4 + 1
    10: 0b10000001001,       # x^10 + x^3 + 1
    11: 0b100000000101,      # x^11 + x^2 + 1
    12: 0b1000001010011,     # x^12 + x^6 + x^4 + x + 1
    13: 0b10000000011011,    # x^13 + x^4 + x^3 + x + 1
    14: 0b100000101000011,   # x^14 + x^8 + x^6 + x + 1
    15: 0b1000000000000011,  # x^15 + x + 1
    16: 0b10001000000001011, # x^16 + x^12 + x^3 + x + 1
}


class GF2m:
    """The field GF(2^m) with fixed irreducible modulus."""

    __slots__ = ("m", "modulus", "order", "_mask", "_exp", "_log")

    def __init__(self, m: int) -> None:
        if m not in IRREDUCIBLE_POLYS:
            raise ValueError(f"no modulus tabulated for GF(2^{m})")
        self.m = m
        self.modulus = IRREDUCIBLE_POLYS[m]
        self.order = 1 << m
        self._mask = self.order - 1
        cached = _TABLE_CACHE.get(m)
        if cached is not None:
            self._exp, self._log = cached
        else:
            self._exp = self._log = None

    # Addition and subtraction coincide in characteristic 2.
    @staticmethod
    def add(a: int, b: int) -> int:
        return a ^ b

    def mul_slow(self, a: int, b: int) -> int:
        """Carry-less multiplication followed by modular reduction — the
        table-free reference used to build the log/antilog tables (and
        to cross-check them in the tests)."""
        result = 0
        while b:
            if b & 1:
                result ^= a
            b >>= 1
            a <<= 1
            if a & self.order:
                a ^= self.modulus
        return result & self._mask

    def _build_tables(self) -> List[int]:
        """Find a primitive element and tabulate exp/log; returns log."""
        cached = _TABLE_CACHE.get(self.m)
        if cached is not None:
            # Another instance built the tables after we were constructed.
            self._exp, self._log = cached
            return self._log
        span = self.order - 1
        if span == 1:  # GF(2): the empty product, 1 generates {1}
            _TABLE_CACHE[self.m] = ([1], [-1, 0])
            self._exp, self._log = _TABLE_CACHE[self.m]
            return self._log
        for candidate in range(2, self.order):
            exp = [1] * span
            log = [-1] * self.order
            log[1] = 0
            acc = 1
            ok = True
            for i in range(1, span):
                acc = self.mul_slow(acc, candidate)
                if log[acc] != -1:
                    ok = False  # cycled early: candidate not primitive
                    break
                exp[i] = acc
                log[acc] = i
            if ok and self.mul_slow(acc, candidate) == 1:
                _TABLE_CACHE[self.m] = (exp, log)
                self._exp, self._log = exp, log
                return log
        raise AssertionError(
            f"no primitive element in GF(2^{self.m})"
        )  # pragma: no cover - every finite field has one

    def mul(self, a: int, b: int) -> int:
        """Field multiplication via log/antilog lookup (the fast path
        Becker-reconstruction decoding is dominated by)."""
        if not a or not b:
            return 0
        log = self._log
        if log is None:
            log = self._build_tables()
        return self._exp[(log[a] + log[b]) % (self.order - 1)]

    def square(self, a: int) -> int:
        return self.mul(a, a)

    def pow(self, a: int, exponent: int) -> int:
        if exponent < 0:
            return self.pow(self.inv(a), -exponent)
        result = 1
        base = a
        while exponent:
            if exponent & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            exponent >>= 1
        return result

    def inv(self, a: int) -> int:
        """The inverse by the log table: ``a = g^i`` gives ``a^{-1} =
        g^(span - i)`` for the multiplicative group's order ``span``."""
        if a == 0:
            raise ZeroDivisionError("0 has no inverse in GF(2^m)")
        log = self._log
        if log is None:
            log = self._build_tables()
        span = self.order - 1
        return self._exp[(span - log[a]) % span]

    # -- polynomial helpers (coefficient lists, index = degree) ----------

    def poly_eval(self, coeffs: List[int], x: int) -> int:
        """Evaluate sum(coeffs[i] * x^i) by Horner's rule."""
        acc = 0
        for c in reversed(coeffs):
            acc = self.mul(acc, x) ^ c
        return acc

    def validate(self, a: int) -> None:
        if not 0 <= a < self.order:
            raise ValueError(f"{a} is not an element of GF(2^{self.m})")


def field_for_universe(max_element: int) -> GF2m:
    """The smallest tabulated field whose nonzero elements cover
    1..max_element."""
    m = max(2, max_element.bit_length())
    if m not in IRREDUCIBLE_POLYS:
        raise ValueError(f"universe too large: need GF(2^{m})")
    return GF2m(m)
