"""The fixed-width unicast lane of the fast engine, and the fixed-width
outbox checks every engine uses.

Many congested-clique protocols spend their rounds exchanging
*fixed-width* unsigned-integer payloads: Lenzen-style routing frames,
the b-bit chunks of a transmit phase, matmul row/summary exchange,
sorted keys.  For dense unicast rounds of those the scalar engine path
— one Python dict write plus per-message validation for each of up to
n² messages — is pure overhead.

A sender declares one destination tuple and one value tuple of plain
ints per round (:meth:`~repro.core.network.Outbox.fixed_width`); the
network validates the whole outbox with a few builtin passes (``in``,
``min``, ``max``, ``set``) when it is yielded (:func:`validate_fixed`),
and the lane writes every sender's tuples into the round's ``n × n``
receive matrix with one fancy-indexed write.  Receivers read their row
through an array-backed :class:`FixedWidthInbox` with the
:class:`~repro.core.network.Inbox` API.  The lane is stateless: each
lane round writes a fresh matrix and hands out fresh views, so an inbox
keeps its round's messages.

Round and bit accounting is identical to the scalar path: a
``width``-bit message costs ``width`` bits, a round is a round.  A
fixed-width broadcast (:meth:`~repro.core.network.Outbox.broadcast_uint`,
checked where it is built, by
:func:`~repro.core.mailbox.coerce_broadcast`, without numpy) needs no
lane: every engine writes it once on the round's
:class:`~repro.core.mailbox.Board`.

Widths up to :data:`NUMERIC_WIDTH_LIMIT` (63) bits ride ``uint64``
storage; wider payloads fall back to object-dtype arrays — the same
bulk indexing, with Python ints as storage.  Either way an inbox hands
out plain ints.

Kernel programs (:mod:`repro.core.kernels`) need no delivery buffer: a
kernel round hands ``recv`` the payload matrix ``send`` produced.
"""

from __future__ import annotations

import operator
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.bits import Bits
from repro.core.errors import BandwidthExceededError, ProtocolError, TopologyError

__all__ = [
    "NUMERIC_WIDTH_LIMIT",
    "FixedWidthInbox",
    "FixedLane",
    "coerce_fixed",
    "validate_fixed",
]

NUMERIC_WIDTH_LIMIT = 63


def _int_tuple(seq: Sequence[int], what: str) -> Tuple[int, ...]:
    """A flat sequence of *true* integers as a tuple of plain ints.

    Floats (and anything else without ``__index__``) are rejected with
    :class:`ProtocolError` instead of being silently truncated the way
    a numpy dtype cast would truncate ``1.7`` to ``1``; numpy input is
    read with one ``.tolist()``."""
    if isinstance(seq, np.ndarray):
        if seq.ndim != 1:
            raise ProtocolError(f"fixed-width {what} must be a flat sequence")
        if seq.dtype.kind in "iu":
            return tuple(seq.tolist())
        seq = seq.tolist()
    try:
        return tuple(map(operator.index, seq))
    except TypeError as exc:
        raise ProtocolError(
            f"fixed-width {what} must be integers, not {exc}"
        ) from exc


def coerce_fixed(
    dests: Sequence[int], values: Sequence[int], width: int
) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Normalize a fixed-width outbox's payload into parallel tuples of
    plain ints.

    Always copies the inputs into immutable tuples: the network
    validates an outbox when it is yielded, and other nodes run between
    that yield and the round's delivery, so aliasing a caller-owned
    list or array that is mutated in place meanwhile would let
    unvalidated data onto the wire."""
    if width < 1:
        raise ValueError("fixed-width messages need width >= 1 bit")
    dest_tuple = _int_tuple(dests, "destinations")
    value_tuple = _int_tuple(values, "values")
    if value_tuple and min(value_tuple) < 0:
        raise ProtocolError("fixed-width values must be non-negative")
    if len(value_tuple) != len(dest_tuple):
        raise ProtocolError(
            f"{len(dest_tuple)} destinations but {len(value_tuple)} values"
        )
    return dest_tuple, value_tuple


def validate_fixed(
    outbox: Any,
    sender: int,
    n: int,
    bandwidth: int,
    allowed_set: Optional[frozenset] = None,
) -> None:
    """Whole-outbox validation with builtin passes; raises on any
    violation.

    Replaces the per-message checks of the scalar path: one self-send
    and one range scan over the destination tuple, one membership scan
    against the sender's CONGEST neighbours (``allowed_set``), one width
    scan over the values (:func:`coerce_fixed` already rejected negative
    ones).
    """
    width = outbox.width
    if width > bandwidth:
        raise BandwidthExceededError(
            f"node {sender} sent {width}-bit fixed-width messages "
            f"(bandwidth {bandwidth})"
        )
    dests = outbox.dests
    if not dests:
        return
    if sender in dests:
        raise TopologyError(f"node {sender} sent a message to itself")
    if min(dests) < 0 or max(dests) >= n:
        raise TopologyError(f"node {sender} sent to an out-of-range destination")
    if not outbox.trusted_unique and len(set(dests)) != len(dests):
        raise ProtocolError(
            f"node {sender} listed a destination twice in a fixed-width outbox"
        )
    if allowed_set is not None and not allowed_set.issuperset(dests):
        dest = next(d for d in dests if d not in allowed_set)
        raise TopologyError(
            f"node {sender} sent to non-neighbour {dest} in CONGEST"
        )
    if max(outbox.values) >> width:
        raise ProtocolError(
            f"node {sender} sent a value that does not fit in {width} bits"
        )


class FixedWidthInbox:
    """Array-backed inbox over one receiver's row of a round's receive
    matrix.

    Has the :class:`~repro.core.network.Inbox` API (``get`` /
    ``senders`` / ``items`` / ``uint_items`` / ``len`` / ``in``); every
    lane round writes a fresh matrix, so the inbox keeps its round's
    messages.
    """

    __slots__ = ("_values", "_present", "_width", "_senders", "_items")

    def __init__(
        self, values_row: np.ndarray, present_row: np.ndarray, width: int
    ) -> None:
        self._values = values_row
        self._present = present_row
        self._width = width
        self._senders: Optional[Tuple[int, ...]] = None
        self._items = None

    def senders(self) -> Tuple[int, ...]:
        cached = self._senders
        if cached is None:
            cached = self._senders = tuple(np.flatnonzero(self._present).tolist())
        return cached

    def items(self) -> Tuple[Tuple[int, Bits], ...]:
        cached = self._items
        if cached is None:
            width = self._width
            cached = self._items = tuple(
                (s, Bits(value, width)) for s, value in self.uint_items()
            )
        return cached

    def uint_items(self) -> List[Tuple[int, int]]:
        return list(zip(self.senders(), self._values[self._present].tolist()))

    def get(self, sender: int) -> Optional[Bits]:
        if sender in self:
            return Bits(int(self._values[sender]), self._width)
        return None

    def __len__(self) -> int:
        return len(self.senders())

    def __contains__(self, sender: int) -> bool:
        return 0 <= sender < self._present.shape[0] and bool(self._present[sender])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FixedWidthInbox({dict(self.uint_items())!r}, width={self._width})"


class FixedLane:
    """The unicast bulk lane (engine internal)."""

    __slots__ = ("n",)

    def __init__(self, n: int) -> None:
        self.n = n

    def deliver(
        self, senders, width: int, record=None
    ) -> Tuple[int, List[FixedWidthInbox]]:
        """Deliver one homogeneous bulk round into a fresh ``n × n``
        receive matrix (row = receiver, column = sender); returns the
        bits sent and one inbox per receiver.

        ``senders`` is a list of ``(node_id, outbox)`` in node order, as
        required for transcript order parity with the scalar path.
        """
        n = self.n
        receivers: List[int] = []
        payloads: List[int] = []
        counts: List[int] = []
        for sender, outbox in senders:
            dests = outbox.dests
            receivers += dests
            payloads += outbox.values
            counts.append(len(dests))
            if record is not None:
                record.sends.extend(
                    (sender, dest, Bits(value, width))
                    for dest, value in zip(dests, outbox.values)
                )
        total = len(payloads)
        # Each message's flat (receiver, sender) cell, built once and
        # used for both writes.
        flat = np.fromiter(receivers, dtype=np.intp, count=total) * n
        flat += np.repeat([sender for sender, _ in senders], counts)
        dtype = np.uint64 if width <= NUMERIC_WIDTH_LIMIT else object
        values = np.zeros(n * n, dtype=dtype)
        present = np.zeros(n * n, dtype=bool)
        values[flat] = np.fromiter(payloads, dtype=dtype, count=total)
        present[flat] = True
        values = values.reshape(n, n)
        present = present.reshape(n, n)
        inboxes = [FixedWidthInbox(values[u], present[u], width) for u in range(n)]
        return total * width, inboxes
