"""Compiled round schedules: a protocol's communication structure as data.

The paper's protocols are *oblivious*: which node sends how many bits to
whom in each round depends only on ``n`` and the protocol's public
parameters (a routing schedule, a phase length, a circuit plan), never
on the inputs.  Kernel programs (:mod:`repro.core.kernels`) state that
structure up front as declared rounds, and this module holds what they
compile into:

* :class:`LaneStructure` — one distinct bulk-round shape as flat
  row/column index arrays, shared by every round that repeats it;
* :class:`CompiledSchedule` — the per-round sequence of :data:`LANE`
  (unicast) and :data:`BCAST` (blackboard) rounds with their bit totals,
  the unit the kernel engine caches in memory.

Generator programs have no compiled form: their structure is only
observable by running them, and the fast engine executes every round of
every run through its validating loop.
"""

from __future__ import annotations

from typing import Any, List, Sequence, Tuple

__all__ = [
    "LaneStructure",
    "CompiledSchedule",
    "LANE",
    "BCAST",
]

# Round kinds in a compiled schedule.
LANE = 0    # homogeneous fixed-width unicast round (bulk lane)
BCAST = 1   # homogeneous fixed-width broadcast round


class LaneStructure:
    """One distinct bulk-round shape: who sends how much to whom.

    Built from ``(sender, dests-array)`` pairs in node order, as the
    kernel layer (:mod:`repro.core.kernels`) declares them.  Structures
    are deduplicated at compile time (phases repeat one shape for many
    rounds), so delivery can skip the receiver-presence rewrite whenever
    consecutive rounds share a structure, and memory stays proportional
    to the number of *distinct* shapes.

    ``widths`` is ``None`` for homogeneous rounds (every message is
    ``width`` bits); a round may carry a flat per-message width vector
    instead, with ``width`` then the maximum (it selects the storage
    dtype).
    """

    __slots__ = (
        "width",
        "widths",
        "sender_ids",
        "rows",
        "cols",
        "count",
    )

    def __init__(
        self,
        width: int,
        pairs: Sequence[Tuple[int, Any]],
        widths: Any = None,
    ) -> None:
        # Deferred so importing repro.core stays numpy-free until a
        # schedule is actually compiled.
        import numpy as np

        self.width = width
        self.widths = widths
        self.sender_ids: List[int] = [v for v, _ in pairs]
        dests_arrays = [dests for _, dests in pairs if dests.size]
        sizes = [dests.size for _, dests in pairs]
        self.cols = (
            np.concatenate(dests_arrays)
            if dests_arrays
            else np.empty(0, dtype=np.intp)
        )
        self.rows = np.repeat(
            np.asarray(self.sender_ids, dtype=np.intp), sizes
        )
        self.count = int(self.cols.size)

    def bits(self) -> int:
        """Total bits one delivery of this structure costs."""
        if self.widths is None:
            return self.count * self.width
        return int(self.widths.sum())


class CompiledSchedule:
    """The compiled structure of one kernel program.

    ``rounds[r]`` is ``(kind, payload, round_bits)`` with ``payload`` a
    :class:`LaneStructure` for :data:`LANE` rounds and ``(ids, width)``
    for :data:`BCAST` rounds.  Kernel programs (:mod:`repro.core.kernels`)
    compile straight into this class (their declared structure *is* the
    schedule), with ``kernel`` holding the per-round execution records
    the kernel runner consumes.
    """

    __slots__ = ("rounds", "params", "kernel")

    def __init__(self, rounds: List[Tuple[int, Any, int]]) -> None:
        self.rounds = rounds
        # (bandwidth, mode) the schedule was validated under; the
        # network evicts the entry if either is reassigned afterwards.
        self.params: Any = None
        # Per-round kernel execution records (set by the kernel layer).
        self.kernel: Any = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kinds = {LANE: "lane", BCAST: "bcast"}
        seq = [kinds[k] for k, _, _ in self.rounds[:8]]
        if len(self.rounds) > 8:
            seq.append("...")
        return (
            f"CompiledSchedule(rounds={len(self.rounds)}, "
            f"bits={sum(bits for _, _, bits in self.rounds)}, kinds={seq})"
        )


