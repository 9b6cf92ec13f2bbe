"""Scalar delivery: the fully validating per-message path.

:func:`deliver_outbox` delivers one sender's outbox, with optional
transcript recording: a broadcast is written once on the round's board,
a unicast message into its receiver's dict.  The legacy reference loop
is built entirely from it, and the fast engine delivers every round
that its unicast lane does not take through it, so both charge bits and
raise protocol errors identically.

It enforces the model rules (bandwidth, topology, payload types) on
every dict outbox.  A fixed-width outbox is written straight into its
receivers' dicts, as the unicast lane of :mod:`repro.core.fastlane`
writes it into its matrix: an equivalent whole-outbox validation
already ran when the outbox was yielded (see
:func:`repro.core.fastlane.validate_fixed`).
"""

from __future__ import annotations

from typing import Any, Optional

from repro.core.bits import Bits
from repro.core.errors import (
    BandwidthExceededError,
    ProtocolError,
    TopologyError,
)

__all__ = ["deliver_outbox"]


def _at(round_index: Optional[int]) -> str:
    """Round context appended to delivery-layer errors (empty when the
    caller did not say which round it is delivering)."""
    return "" if round_index is None else f" in round {round_index}"


def deliver_outbox(
    network: Any,
    sender: int,
    outbox: Any,
    boxes,
    record: Optional[Any],
    round_index: Optional[int] = None,
) -> int:
    """Deliver one sender's outbox with full per-message validation and
    optional transcript recording; returns the bits charged.

    ``boxes`` is the round's board ``{writer: word}`` in a broadcast
    network, where a broadcast is written once under its writer, and
    otherwise the list of per-receiver ``{sender: message}`` dicts.
    Errors carry (round, sender, receiver) context when ``round_index``
    is given."""
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
        for dest, value in zip(outbox.dests, outbox.values):
            payload = Bits(value, width)
            boxes[dest][sender] = payload
            if record is not None:
                record.sends.append((sender, dest, payload))
        return width * len(outbox.dests)
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

