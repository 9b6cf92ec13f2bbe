"""Per-round message containers: what a node sends and what it receives.

:class:`Outbox` is what one node yields at the end of its round —
scalar unicast/broadcast dicts, or the bulk fixed-width constructors the
numpy lanes (:mod:`repro.core.fastlane`) deliver in one array write.
:class:`Inbox` is the dict-backed receive view the scalar paths hand
back (the lanes provide their own array-backed flavours with the same
accessors; :func:`inbox_uints` reads either).

Both classes are engine-agnostic: every engine in
:mod:`repro.core.engine` consumes the same containers, which is what
keeps their results byte-identical.  Historically these lived in
:mod:`repro.core.network`, which still re-exports them.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.bits import Bits

__all__ = ["Inbox", "Outbox", "inbox_uints", "EMPTY_INBOX"]


class Inbox:
    """Messages delivered to one node in one round, keyed by sender id.

    Inboxes are immutable once delivered, so the sorted views produced by
    :meth:`senders` and :meth:`items` are computed once and cached.  Every
    engine builds fresh inboxes each round, so an inbox keeps its round's
    messages after the round ends.
    """

    __slots__ = ("_by_sender", "_senders", "_items")

    def __init__(self, by_sender: Dict[int, Bits]) -> None:
        self._by_sender = by_sender
        self._senders: Optional[Tuple[int, ...]] = None
        self._items: Optional[Tuple[Tuple[int, Bits], ...]] = None

    def get(self, sender: int) -> Optional[Bits]:
        return self._by_sender.get(sender)

    def senders(self) -> Tuple[int, ...]:
        cached = self._senders
        if cached is None:
            cached = self._senders = tuple(sorted(self._by_sender))
        return cached

    def items(self) -> Tuple[Tuple[int, Bits], ...]:
        cached = self._items
        if cached is None:
            cached = self._items = tuple(sorted(self._by_sender.items()))
        return cached

    def uint_items(self) -> List[Tuple[int, int]]:
        """``(sender, payload-as-uint)`` pairs sorted by sender — the same
        accessor the fast lane's array inbox provides."""
        return [(sender, payload.to_uint()) for sender, payload in self.items()]

    def __len__(self) -> int:
        return len(self._by_sender)

    def __contains__(self, sender: int) -> bool:
        return sender in self._by_sender

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Inbox({self._by_sender!r})"


EMPTY_INBOX = Inbox({})


def inbox_uints(inbox: Any) -> List[Tuple[int, int]]:
    """``(sender, payload-as-uint)`` pairs sorted by sender, for either
    inbox flavour (dict-backed :class:`Inbox` or the fast lane's
    array-backed :class:`~repro.core.fastlane.FixedWidthInbox`)."""
    return inbox.uint_items()


class Outbox:
    """What one node sends in one round.

    Construct with :meth:`unicast`, :meth:`broadcast`, :meth:`silent`,
    or the bulk fixed-width constructors :meth:`fixed_width` /
    :meth:`fixed_width_map` / :meth:`broadcast_uint`; the engine
    validates the kind against the network's mode.
    """

    __slots__ = (
        "kind",
        "messages",
        "payload",
        "dests",
        "values",
        "width",
        "trusted_unique",
    )

    def __init__(
        self,
        kind: str,
        messages: Optional[Dict[int, Bits]],
        payload: Optional[Bits],
        dests: Any = None,
        values: Any = None,
        width: int = 0,
        trusted_unique: bool = False,
    ):
        self.kind = kind
        self.messages = messages
        self.payload = payload
        self.dests = dests
        self.values = values
        self.width = width
        self.trusted_unique = trusted_unique

    @classmethod
    def unicast(cls, messages: Mapping[int, Bits]) -> "Outbox":
        return cls("unicast", dict(messages), None)

    @classmethod
    def broadcast(cls, payload: Bits) -> "Outbox":
        return cls("broadcast", None, payload)

    @classmethod
    def broadcast_uint(cls, value: int, width: int) -> "Outbox":
        """Fixed-width broadcast: write ``value`` as exactly ``width``
        bits on the blackboard.  Rounds in which every non-silent sender
        yields a fixed-width broadcast of one width are delivered
        through the numpy broadcast lane (one vector write, array-backed
        inboxes — see :mod:`repro.core.fastlane`); mixed rounds
        materialize the payload as an ordinary :class:`Bits` broadcast.
        Either way one broadcast of ``width`` bits costs ``width``."""
        from repro.core import fastlane

        coerced = fastlane.coerce_broadcast(value, width)
        return cls("bfixed", None, None, values=coerced, width=width)

    @classmethod
    def silent(cls) -> "Outbox":
        return _SILENT_OUTBOX

    @classmethod
    def fixed_width(cls, dests: Sequence[int], values: Sequence[int], width: int) -> "Outbox":
        """Bulk unicast of fixed-width unsigned-integer payloads:
        ``values[i]`` (exactly ``width`` bits on the wire) goes to
        ``dests[i]``.  Both are kept as tuples of plain ints.  Rounds in
        which every sender yields a fixed-width outbox of the same width
        are delivered through the numpy fast lane; otherwise the
        messages are materialized as ordinary ``width``-bit
        :class:`~repro.core.bits.Bits` unicasts."""
        from repro.core import fastlane

        d, v = fastlane.coerce_fixed(dests, values, width)
        return cls("fixed", None, None, dests=d, values=v, width=width)

    @classmethod
    def fixed_width_map(cls, messages: Mapping[int, int], width: int) -> "Outbox":
        """:meth:`fixed_width` from a ``{dest: uint}`` mapping (dict keys
        are unique by construction, so the duplicate-destination check is
        skipped; other Mapping types are copied through ``dict`` first so
        a broken ``keys()`` cannot smuggle a duplicate past it)."""
        from repro.core import fastlane

        if type(messages) is not dict:
            messages = dict(messages)
        d, v = fastlane.coerce_fixed(messages.keys(), messages.values(), width)
        out = cls("fixed", None, None, dests=d, values=v, width=width)
        out.trusted_unique = True
        return out

    def _materialize(self) -> Dict[int, Bits]:
        """A fixed-width outbox as an ordinary ``{dest: Bits}`` dict (the
        scalar fallback for sparse/mixed rounds and the legacy engine).
        Memoized in the otherwise-unused ``messages`` slot, so a reused
        outbox pays the Bits construction once, not once per round."""
        cached = self.messages
        if cached is None:
            width = self.width
            cached = self.messages = {
                dest: Bits(value, width)
                for dest, value in zip(self.dests, self.values)
            }
        return cached

    def _materialize_broadcast(self) -> Bits:
        """A fixed-width broadcast outbox's payload as :class:`Bits` (the
        scalar fallback for mixed rounds, the legacy engine, and the
        transcript).  Memoized in the otherwise-unused ``payload`` slot."""
        cached = self.payload
        if cached is None:
            cached = self.payload = Bits(self.values, self.width)
        return cached


_SILENT_OUTBOX = Outbox("silent", None, None)
