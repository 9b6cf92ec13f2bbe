"""Gate types and their b-separability decompositions (Definition 1).

The paper's circuit simulation (Theorem 2) relies on gates being
*b-separable*: for any partition (I_1..I_k) of the gate's inputs there
are b-bit summaries g_j of each part and a combiner h with
f(x) = h(g_1(x_{I_1}), ..., g_k(x_{I_k})).

Each gate class here implements its own decomposition:

=================  =========================  =======================
gate               summary                    separability
=================  =========================  =======================
AND / OR / NAND    partial AND / OR           1 bit
XOR / parity       partial parity             1 bit
MOD_m              partial sum mod m          ⌈log2 m⌉ bits (O(1))
threshold          partial (weighted) sum     ⌈log2(W+1)⌉ bits
                                              (O(log n) unweighted)
generic            raw input bits             |I_j| bits (fallback)
=================  =========================  =======================

Summaries receive *indexed* values (position in the gate's input list
plus value) so that weighted gates know which weight applies.

Gates compare and hash by class and parameters (their instance
attributes): ``ThresholdGate(3) == ThresholdGate(3)``, so a circuit, and
a Theorem 2 plan, equals its pickle and deepcopy round trips.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.core.bits import BitReader, Bits, BitWriter

__all__ = [
    "Gate",
    "AndGate",
    "OrGate",
    "NotGate",
    "XorGate",
    "ModGate",
    "ThresholdGate",
    "MajorityGate",
    "GenericGate",
    "AND",
    "OR",
    "NOT",
    "XOR",
]

IndexedValues = Sequence[Tuple[int, bool]]


class Gate:
    """Base class: a Boolean function with a separability decomposition."""

    name = "gate"

    def compute(self, values: Sequence[bool]) -> bool:
        raise NotImplementedError

    def arity(self) -> Optional[int]:
        """Fixed arity, or None for unbounded fan-in."""
        return None

    # -- separability ----------------------------------------------------

    def summary_width(self, fan_in: int) -> int:
        """Bits per part summary — the gate's separability parameter b."""
        raise NotImplementedError

    def partial_summary(self, part: IndexedValues, fan_in: int) -> Bits:
        raise NotImplementedError

    def combine(self, summaries: Sequence[Bits], fan_in: int) -> bool:
        raise NotImplementedError

    # -- identity ----------------------------------------------------------

    def _params(self) -> tuple:
        """The parameters that fix the gate's function: its instance
        attributes."""
        return tuple(sorted(vars(self).items()))

    def __eq__(self, other) -> bool:
        if other is self:
            return True
        if type(other) is not type(self):
            return NotImplemented
        return self._params() == other._params()

    def __hash__(self) -> int:
        return hash((type(self), self._params()))

    def __repr__(self) -> str:
        return self.name


class AndGate(Gate):
    name = "AND"

    def compute(self, values: Sequence[bool]) -> bool:
        return all(values)

    def summary_width(self, fan_in: int) -> int:
        return 1

    def partial_summary(self, part: IndexedValues, fan_in: int) -> Bits:
        return Bits.from_uint(1 if all(v for _, v in part) else 0, 1)

    def combine(self, summaries: Sequence[Bits], fan_in: int) -> bool:
        return all(s.to_uint() == 1 for s in summaries)


class OrGate(Gate):
    name = "OR"

    def compute(self, values: Sequence[bool]) -> bool:
        return any(values)

    def summary_width(self, fan_in: int) -> int:
        return 1

    def partial_summary(self, part: IndexedValues, fan_in: int) -> Bits:
        return Bits.from_uint(1 if any(v for _, v in part) else 0, 1)

    def combine(self, summaries: Sequence[Bits], fan_in: int) -> bool:
        return any(s.to_uint() == 1 for s in summaries)


class NotGate(Gate):
    name = "NOT"

    def compute(self, values: Sequence[bool]) -> bool:
        if len(values) != 1:
            raise ValueError("NOT takes exactly one input")
        return not values[0]

    def arity(self) -> Optional[int]:
        return 1

    def summary_width(self, fan_in: int) -> int:
        return 1

    def partial_summary(self, part: IndexedValues, fan_in: int) -> Bits:
        return Bits.from_uint(1 if part[0][1] else 0, 1)

    def combine(self, summaries: Sequence[Bits], fan_in: int) -> bool:
        return summaries[0].to_uint() == 0


class XorGate(Gate):
    """Unbounded fan-in parity (sum mod 2 == 1)."""

    name = "XOR"

    def compute(self, values: Sequence[bool]) -> bool:
        return sum(values) % 2 == 1

    def summary_width(self, fan_in: int) -> int:
        return 1

    def partial_summary(self, part: IndexedValues, fan_in: int) -> Bits:
        return Bits.from_uint(sum(v for _, v in part) % 2, 1)

    def combine(self, summaries: Sequence[Bits], fan_in: int) -> bool:
        return sum(s.to_uint() for s in summaries) % 2 == 1


class ModGate(Gate):
    """MOD_m gate per Section 2: outputs 1 iff sum(x) ≡ 0 (mod m).

    O(1)-separable for constant m — the key to the ACC/CC implications.
    """

    name = "MOD"

    def __init__(self, modulus: int) -> None:
        if modulus < 2:
            raise ValueError("modulus must be at least 2")
        self.modulus = modulus
        self.name = f"MOD{modulus}"

    def compute(self, values: Sequence[bool]) -> bool:
        return sum(values) % self.modulus == 0

    def summary_width(self, fan_in: int) -> int:
        return max(1, (self.modulus - 1).bit_length())

    def partial_summary(self, part: IndexedValues, fan_in: int) -> Bits:
        total = sum(v for _, v in part) % self.modulus
        return Bits.from_uint(total, self.summary_width(fan_in))

    def combine(self, summaries: Sequence[Bits], fan_in: int) -> bool:
        return sum(s.to_uint() for s in summaries) % self.modulus == 0


class ThresholdGate(Gate):
    """Threshold gate: 1 iff a_1 x_1 + ... + a_k x_k >= threshold.

    Unweighted threshold gates are Θ(log n)-separable (partial counts) —
    the separability class behind the TC0 implications of Section 2.
    """

    name = "THR"

    def __init__(self, threshold: int, weights: Optional[Sequence[int]] = None) -> None:
        if threshold < 0:
            raise ValueError("threshold must be non-negative")
        if weights is not None and any(w < 0 for w in weights):
            raise ValueError("weights must be non-negative")
        self.threshold = threshold
        self.weights = None if weights is None else tuple(weights)
        self.name = f"THR>={threshold}" + ("" if weights is None else "w")

    def arity(self) -> Optional[int]:
        return None if self.weights is None else len(self.weights)

    def _weight(self, index: int) -> int:
        return 1 if self.weights is None else self.weights[index]

    def _total_weight(self, fan_in: int) -> int:
        return fan_in if self.weights is None else sum(self.weights)

    def compute(self, values: Sequence[bool]) -> bool:
        total = sum(self._weight(i) for i, v in enumerate(values) if v)
        return total >= self.threshold

    def summary_width(self, fan_in: int) -> int:
        return max(1, self._total_weight(fan_in).bit_length())

    def partial_summary(self, part: IndexedValues, fan_in: int) -> Bits:
        total = sum(self._weight(i) for i, v in part if v)
        return Bits.from_uint(total, self.summary_width(fan_in))

    def combine(self, summaries: Sequence[Bits], fan_in: int) -> bool:
        return sum(s.to_uint() for s in summaries) >= self.threshold


class MajorityGate(ThresholdGate):
    """MAJ on a declared fan-in: threshold ⌈(k+1)/2⌉."""

    def __init__(self, fan_in: int) -> None:
        super().__init__(threshold=(fan_in + 2) // 2)
        self.name = f"MAJ{fan_in}"


class GenericGate(Gate):
    """Arbitrary Boolean function given by a truth-table callable; the
    fallback decomposition ships the raw input bits (|I_j|-separable)."""

    name = "GEN"

    def __init__(self, fn, arity: int, name: str = "GEN") -> None:
        self._fn = fn
        self._arity = arity
        self.name = name

    def arity(self) -> Optional[int]:
        return self._arity

    def compute(self, values: Sequence[bool]) -> bool:
        return bool(self._fn(tuple(values)))

    def summary_width(self, fan_in: int) -> int:
        # Raw values plus positions; width sized for the worst-case part
        # (the whole input).  Encoded as a fan_in-wide bitmap of values
        # plus a bitmap of which positions this part covers.
        return 2 * fan_in

    def partial_summary(self, part: IndexedValues, fan_in: int) -> Bits:
        writer = BitWriter()
        covered = 0
        values = 0
        for index, value in part:
            covered |= 1 << index
            if value:
                values |= 1 << index
        writer.write_uint(covered, fan_in)
        writer.write_uint(values, fan_in)
        return writer.getvalue()

    def combine(self, summaries: Sequence[Bits], fan_in: int) -> bool:
        assembled = [False] * fan_in
        for summary in summaries:
            reader = BitReader(summary)
            covered = reader.read_uint(fan_in)
            values = reader.read_uint(fan_in)
            for index in range(fan_in):
                if covered >> index & 1:
                    assembled[index] = bool(values >> index & 1)
        return bool(self._fn(tuple(assembled)))


# Shared singletons for the common gates.
AND = AndGate()
OR = OrGate()
NOT = NotGate()
XOR = XorGate()
