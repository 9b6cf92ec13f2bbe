"""Scalar delivery: the fully validating per-message path.

:func:`deliver_outbox` delivers one sender's outbox, with optional
transcript recording: a broadcast is written once on the round's board,
a unicast message into its receiver's dict.  Every generator engine's
round loop is built from it, so all of them charge bits and raise
protocol errors identically.

It enforces the model rules (bandwidth, topology, payload types) on
every dict outbox.  A fixed-width outbox is written straight into its
receivers' dicts: an equivalent whole-outbox validation already ran
when the outbox was yielded (see
:func:`repro.core.fastlane.validate_fixed`).  In a round that
:func:`int_round_width` finds all fixed-width of one width, with no
active fault plan, each value crosses as the plain int it is, and the
receivers read it through a :class:`~repro.core.mailbox.UintInbox`;
in every other round it becomes a ``width``-bit :class:`Bits`, which
is what a fault plan acts on.  Either way a recorded transcript holds
:class:`Bits`.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.core.bits import Bits
from repro.core.errors import (
    BandwidthExceededError,
    ProtocolError,
    TopologyError,
)

__all__ = ["deliver_outbox", "int_round_width"]


def _at(round_index: Optional[int]) -> str:
    """Round context appended to delivery-layer errors (empty when the
    caller did not say which round it is delivering)."""
    return "" if round_index is None else f" in round {round_index}"


def int_round_width(pending) -> Optional[int]:
    """The width of a round whose non-silent outboxes (``pending`` maps
    each sender to one) are all fixed-width unicasts of one width, else
    ``None``."""
    width = None
    for outbox in pending.values():
        kind = outbox.kind
        if kind == "fixed":
            if width is None:
                width = outbox.width
            elif outbox.width != width:
                return None
        elif kind != "silent":
            return None
    return width


def deliver_outbox(
    network: Any,
    sender: int,
    outbox: Any,
    boxes,
    record: Optional[Any],
    round_index: Optional[int] = None,
    as_ints: bool = False,
) -> int:
    """Deliver one sender's outbox with full per-message validation and
    optional transcript recording; returns the bits charged.

    ``boxes`` is the round's board ``{writer: word}`` in a broadcast
    network, where a broadcast is written once under its writer, and
    otherwise the list of per-receiver ``{sender: message}`` dicts.
    ``as_ints`` writes a fixed-width outbox's values as plain ints, not
    :class:`Bits`; the caller passes it for a round that
    :func:`int_round_width` accepted.  Errors carry (round, sender,
    receiver) context when ``round_index`` is given."""
    bits_sent = 0
    kind = outbox.kind
    if kind == "silent":
        return 0
    if kind == "broadcast" or kind == "bfixed":
        payload = (
            outbox.payload
            if kind == "broadcast"
            else outbox._materialize_broadcast()
        )
        if not isinstance(payload, Bits):
            raise ProtocolError(
                f"node {sender} broadcast a non-Bits payload{_at(round_index)}"
            )
        if len(payload) > network.bandwidth:
            raise BandwidthExceededError(
                f"node {sender} broadcast {len(payload)} bits "
                f"(bandwidth {network.bandwidth}){_at(round_index)}"
            )
        if len(payload) == 0:
            return 0
        boxes[sender] = payload
        bits_sent = len(payload)
        if record is not None:
            record.sends.append((sender, None, payload))
        return bits_sent
    if kind == "fixed":
        # The network ran ``validate_fixed`` on this outbox when it was
        # yielded, so none of the per-message checks below can fire.
        width = outbox.width
        dests = outbox.dests
        if as_ints:
            for dest, value in zip(dests, outbox.values):
                boxes[dest][sender] = value
            if record is not None:
                record.sends.extend(
                    (sender, dest, Bits(value, width))
                    for dest, value in zip(dests, outbox.values)
                )
        else:
            for dest, value in zip(dests, outbox.values):
                payload = Bits(value, width)
                boxes[dest][sender] = payload
                if record is not None:
                    record.sends.append((sender, dest, payload))
        return width * len(dests)
    # unicast / CONGEST
    messages = outbox.messages
    allowed = None
    if network._allowed is not None:
        allowed = network._allowed[sender]
    for dest, payload in messages.items():
        if not isinstance(payload, Bits):
            raise ProtocolError(
                f"node {sender} sent a non-Bits payload to "
                f"{dest}{_at(round_index)}"
            )
        if dest == sender:
            raise TopologyError(
                f"node {sender} sent a message to itself{_at(round_index)}"
            )
        if not 0 <= dest < network.n:
            raise TopologyError(
                f"node {sender} sent to out-of-range {dest}{_at(round_index)}"
            )
        if allowed is not None and dest not in allowed:
            raise TopologyError(
                f"node {sender} sent to non-neighbour {dest} in "
                f"CONGEST{_at(round_index)}"
            )
        if len(payload) > network.bandwidth:
            raise BandwidthExceededError(
                f"node {sender} sent {len(payload)} bits to {dest} "
                f"(bandwidth {network.bandwidth}){_at(round_index)}"
            )
        if len(payload) == 0:
            continue
        boxes[dest][sender] = payload
        bits_sent += len(payload)
        if record is not None:
            record.sends.append((sender, dest, payload))
    return bits_sent

