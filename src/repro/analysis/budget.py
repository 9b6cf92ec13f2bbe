"""Bandwidth budgets: declared per-message bit bounds, checked at prepare.

The congested clique's defining constraint is the per-round message
width — :math:`O(\\log n)` bits per link in the paper's CLIQUE-UCAST,
one :math:`O(\\log n)`-bit blackboard word per node in CLIQUE-BCAST.
:class:`BandwidthBudget` turns that asymptotic statement into a checkable
concrete bound: a protocol declares the coefficients of

.. math::

    \\text{bits}(n) = \\text{flat}
        + \\text{log\\_coeff} \\cdot L
        + \\text{log\\_sq\\_coeff} \\cdot L^2,
    \\qquad L = \\lceil \\log_2 \\max(2, n) \\rceil

and :meth:`BandwidthBudget.check` compares a prepared instance's
declared network ``bandwidth`` against it.  Every engine rejects a
message wider than that bandwidth, so the comparison needs ``prepare``
alone: the scenario matrix makes it once per coordinate before any
engine runs.  The
:math:`L^2` term admits the paper's simulation-based protocols, whose
word size carries a :math:`\\log^2 n` factor from pointer-per-level
encodings.

This module imports nothing from the scenario layer, so
:mod:`repro.scenarios.registry` can attach budgets to its specs without
an import cycle.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.errors import BandwidthExceededError

__all__ = ["BandwidthBudget", "log2_ceil"]


def log2_ceil(n: int) -> int:
    """:math:`\\lceil \\log_2 \\max(2, n) \\rceil` — the model's word
    size at problem size ``n`` (clamped so tiny instances still get a
    positive word)."""
    m = max(2, int(n))
    return (m - 1).bit_length()


@dataclass(frozen=True)
class BandwidthBudget:
    """A declared per-round message-width bound, bits as a function of n."""

    flat: int = 0
    log_coeff: int = 0
    log_sq_coeff: int = 0

    def bits(self, n: int) -> int:
        """The budgeted maximum message width at problem size ``n``."""
        level = log2_ceil(n)
        return (
            self.flat
            + self.log_coeff * level
            + self.log_sq_coeff * level * level
        )

    def describe(self) -> str:
        """Human form, e.g. ``"2*log(n) + 9"`` or ``"16*log^2(n)"``."""
        terms = []
        if self.log_sq_coeff:
            terms.append(f"{self.log_sq_coeff}*log^2(n)")
        if self.log_coeff:
            terms.append(f"{self.log_coeff}*log(n)")
        if self.flat or not terms:
            terms.append(str(self.flat))
        return " + ".join(terms)

    def check(self, n: int, bandwidth: int) -> None:
        """Raise :class:`~repro.core.errors.BandwidthExceededError` when
        a declared network ``bandwidth`` (the widest message any engine
        accepts) exceeds the budget at problem size ``n``."""
        allowed = self.bits(n)
        if bandwidth > allowed:
            raise BandwidthExceededError(
                f"declared width {bandwidth} EXCEEDS budget "
                f"{allowed} = {self.describe()} @ n={n}"
            )
