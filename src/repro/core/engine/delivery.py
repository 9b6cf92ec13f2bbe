"""Scalar delivery: the fully validating per-message paths.

The two module functions are the scalar delivery paths shared by the
legacy and fast engines:

* :func:`deliver_outbox` — one sender's outbox into per-receiver dicts,
  with optional transcript recording.  The legacy reference loop is
  built entirely from this.
* :func:`deliver_round_scalar` — one whole round, transcript off: no
  record branches in the loop, hoisted lookups.  The fast engine's
  scalar rounds use it.

Both enforce the model rules (bandwidth, topology, payload types) and
raise the same exceptions a cold run would; the bulk lanes of
:mod:`repro.core.fastlane` may skip these checks only when an
equivalent vectorized validation already ran (see
:func:`repro.core.fastlane.validate_fixed`).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.core.bits import Bits
from repro.core.errors import (
    BandwidthExceededError,
    ProtocolError,
    TopologyError,
)

__all__ = [
    "deliver_outbox",
    "deliver_round_scalar",
]


def _at(round_index: Optional[int]) -> str:
    """Round context appended to delivery-layer errors (empty when the
    caller did not say which round it is delivering)."""
    return "" if round_index is None else f" in round {round_index}"


def deliver_outbox(
    network: Any,
    sender: int,
    outbox: Any,
    inboxes,
    record: Optional[Any],
    round_index: Optional[int] = None,
) -> int:
    """Deliver one sender's outbox with full per-message validation and
    optional transcript recording; returns the bits charged.  Errors
    carry (round, sender, receiver) context when ``round_index`` is
    given."""
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
        for dest in network._neighbors[sender]:
            inboxes[dest][sender] = payload
        bits_sent = len(payload)
        if record is not None:
            record.sends.append((sender, None, payload))
        return bits_sent
    # unicast / CONGEST (fixed-width outboxes are materialized first)
    messages = outbox.messages if kind == "unicast" else outbox._materialize()
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
        inboxes[dest][sender] = payload
        bits_sent += len(payload)
        if record is not None:
            record.sends.append((sender, dest, payload))
    return bits_sent


def deliver_round_scalar(
    network: Any,
    pending: Dict[int, Any],
    inbox_dicts: List[Dict[int, Bits]],
    round_index: Optional[int] = None,
) -> int:
    """Scalar delivery of one whole round, transcript off: no record
    branches in the loop, reused buffers, hoisted lookups.  Errors carry
    (round, sender, receiver) context when ``round_index`` is given."""
    n = network.n
    bandwidth = network.bandwidth
    neighbors = network._neighbors
    allowed_sets = network._allowed
    bits = 0
    for sender, outbox in pending.items():
        kind = outbox.kind
        if kind == "silent":
            continue
        if kind == "broadcast" or kind == "bfixed":
            payload = (
                outbox.payload
                if kind == "broadcast"
                else outbox._materialize_broadcast()
            )
            if payload.__class__ is not Bits and not isinstance(payload, Bits):
                raise ProtocolError(
                    f"node {sender} broadcast a non-Bits "
                    f"payload{_at(round_index)}"
                )
            plen = len(payload)
            if plen > bandwidth:
                raise BandwidthExceededError(
                    f"node {sender} broadcast {plen} bits "
                    f"(bandwidth {bandwidth}){_at(round_index)}"
                )
            if plen == 0:
                continue
            for dest in neighbors[sender]:
                inbox_dicts[dest][sender] = payload
            bits += plen
            continue
        if kind == "fixed":
            # Sparse or mixed round: this outbox was vector-validated
            # at yield time; deliver its messages check-free.
            for dest, payload in outbox._materialize().items():
                inbox_dicts[dest][sender] = payload
            bits += outbox.width * outbox.dests.size
            continue
        # unicast / CONGEST
        allowed = allowed_sets[sender] if allowed_sets is not None else None
        for dest, payload in outbox.messages.items():
            if payload.__class__ is not Bits and not isinstance(payload, Bits):
                raise ProtocolError(
                    f"node {sender} sent a non-Bits payload to "
                    f"{dest}{_at(round_index)}"
                )
            if dest == sender:
                raise TopologyError(
                    f"node {sender} sent a message to itself{_at(round_index)}"
                )
            if not 0 <= dest < n:
                raise TopologyError(
                    f"node {sender} sent to out-of-range "
                    f"{dest}{_at(round_index)}"
                )
            if allowed is not None and dest not in allowed:
                raise TopologyError(
                    f"node {sender} sent to non-neighbour {dest} in "
                    f"CONGEST{_at(round_index)}"
                )
            plen = len(payload)
            if plen > bandwidth:
                raise BandwidthExceededError(
                    f"node {sender} sent {plen} bits to {dest} "
                    f"(bandwidth {bandwidth}){_at(round_index)}"
                )
            if plen == 0:
                continue
            inbox_dicts[dest][sender] = payload
            bits += plen
    return bits
