"""Shared delivery layer: the buffers and lanes a round is written into.

Engines decide *when* a round is delivered; this module owns *how*.  A
:class:`DeliveryBackend` is allocated per run and holds the reusable
scalar inbox buffers plus the bulk lanes from
:mod:`repro.core.fastlane` (unicast :class:`~repro.core.fastlane.FixedLane`,
blackboard :class:`~repro.core.fastlane.BroadcastLane`), created lazily
on the first round that can use them.  New lane implementations plug in
here — an engine only ever asks the backend for a lane, it never
constructs one.

The two module functions are the scalar (per-message, fully validating)
delivery paths shared by the engines:

* :func:`deliver_outbox` — one sender's outbox into per-receiver dicts,
  with optional transcript recording.  The legacy reference loop is
  built entirely from this.
* :func:`deliver_round_scalar` — one whole round, transcript off: no
  record branches in the loop, hoisted lookups.  The fast engine's
  scalar rounds use it.

Both enforce the model rules (bandwidth, topology, payload types) and
raise the same exceptions a cold run would; bulk lanes may skip these
checks only when an equivalent vectorized validation already ran
(see :func:`repro.core.fastlane.validate_fixed`).
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
    "DEFAULT_CHUNK_BYTES",
    "DeliveryBackend",
    "batch_chunk_size",
    "deliver_outbox",
    "deliver_round_scalar",
]

#: Budget for one stacked K×n×n batch chunk (uint64 values).
DEFAULT_CHUNK_BYTES = 64 << 20


def batch_chunk_size(n: int) -> int:
    """How many instances one kernel ``run_many`` batch chunk holds at
    size ``n``.

    The kernel engine stacks K instances into K×n×n uint64 lanes and
    caps each chunk's value buffer at :data:`DEFAULT_CHUNK_BYTES`.
    Chunking is invisible in results — per-instance outputs are a pure
    function of the instance inputs — so the budget trades peak memory
    against lane reuse.
    """
    return max(1, DEFAULT_CHUNK_BYTES // (n * n * 8))


def _at(round_index: Optional[int]) -> str:
    """Round context appended to delivery-layer errors (empty when the
    caller did not say which round it is delivering)."""
    return "" if round_index is None else f" in round {round_index}"


class DeliveryBackend:
    """Per-run delivery state: reusable scalar buffers + lazy bulk lanes.

    The scalar buffers (`n` inbox dicts and their
    :class:`~repro.core.network.Inbox` views) live for the whole run and
    are cleared, never reconstructed.  ``scalar_round_started`` tracks
    whether they need clearing before the next scalar round.
    """

    __slots__ = (
        "n",
        "inbox_dicts",
        "inbox_views",
        "scalar_round_started",
        "unicast_lane",
        "broadcast_lane",
    )

    def __init__(self, n: int) -> None:
        from repro.core.network import Inbox

        self.n = n
        self.inbox_dicts: List[Dict[int, Bits]] = [dict() for _ in range(n)]
        self.inbox_views = [Inbox(d) for d in self.inbox_dicts]
        self.scalar_round_started = False
        self.unicast_lane: Any = None
        self.broadcast_lane: Any = None

    def fixed_lane(self):
        """The unicast bulk lane, created on first use."""
        lane = self.unicast_lane
        if lane is None:
            from repro.core.fastlane import FixedLane

            lane = self.unicast_lane = FixedLane(self.n)
        return lane

    def bcast_lane(self):
        """The blackboard bulk lane, created on first use."""
        lane = self.broadcast_lane
        if lane is None:
            from repro.core.fastlane import BroadcastLane

            lane = self.broadcast_lane = BroadcastLane(self.n)
        return lane

    def begin_scalar_round(self) -> None:
        """Make the scalar buffers ready for a fresh round (clears them
        only when a previous scalar round dirtied them)."""
        if self.scalar_round_started:
            dicts = self.inbox_dicts
            views = self.inbox_views
            for u in range(self.n):
                dicts[u].clear()
                views[u]._reset()
        self.scalar_round_started = True


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
