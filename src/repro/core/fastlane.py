"""The fixed-width outbox checks every engine uses.

Many congested-clique protocols spend their rounds exchanging
*fixed-width* unsigned-integer payloads: Lenzen-style routing frames,
the b-bit chunks of a transmit phase, matmul row/summary exchange,
sorted keys.  A sender declares one destination tuple and one value
tuple of plain ints per round
(:meth:`~repro.core.network.Outbox.fixed_width`): :func:`coerce_fixed`
copies and type-checks them when the outbox is built, and the network
validates the whole outbox with a few builtin passes (``in``, ``min``,
``max``, ``set``) when it is yielded (:func:`validate_fixed`), so
delivery runs no per-message check.  A round in which every sender
yielded one width crosses the wire as those ints (see
:mod:`repro.core.engine.delivery`).

Round and bit accounting is that of the scalar path: a ``width``-bit
message costs ``width`` bits, a round is a round.  A fixed-width
broadcast (:meth:`~repro.core.network.Outbox.broadcast_uint`, checked
where it is built, by :func:`~repro.core.mailbox.coerce_broadcast`)
is written once on the round's :class:`~repro.core.mailbox.Board`.

The kernel layer stores payloads of up to :data:`NUMERIC_WIDTH_LIMIT`
(63) bits as ``uint64`` and wider ones as object-dtype arrays of
Python ints.
"""

from __future__ import annotations

import operator
from typing import Any, Optional, Sequence, Tuple

import numpy as np

from repro.core.errors import BandwidthExceededError, ProtocolError, TopologyError

__all__ = [
    "NUMERIC_WIDTH_LIMIT",
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
