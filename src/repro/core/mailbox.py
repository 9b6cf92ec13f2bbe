"""Per-round message containers: what a node sends and what it receives.

:class:`Outbox` is what one node yields at the end of its round —
scalar unicast/broadcast dicts, or the bulk fixed-width constructors.
A fixed-width outbox holds one destination tuple and one value tuple of
plain ints: :func:`coerce_fixed` copies and type-checks them when the
outbox is built, and the network checks the whole outbox with a few
builtin passes when it is yielded (:func:`validate_fixed`), so
delivery runs no per-message check.

:class:`Inbox` is the dict-backed receive view of a unicast or CONGEST
round.  A round whose senders all yielded fixed-width outboxes of one
width crosses the wire as plain ints, and its receivers read a
:class:`UintInbox` over them, which builds a :class:`Bits` only when
asked for one.  A CLIQUE-BCAST round is one :class:`Board`, each
writer's word written once, and every node reads it through a
:class:`BoardInbox` that skips the node's own word.  A round whose
writers all yielded fixed-width broadcasts of one width is a
:class:`UintBoard` of plain ints, which builds a :class:`Bits` only
when asked for one, as :class:`UintInbox` does.  Every inbox flavour
has the same accessors; :func:`inbox_uints` reads any of them.  A reader
that wants the whole round rather than one node's view of it asks
:func:`inbox_source` for the object an inbox reads from: the shared
board, or the inbox itself.

The generator loop (:mod:`repro.core.engine.legacy`) builds and reads
these containers.  Historically :class:`Inbox` and :class:`Outbox`
lived in :mod:`repro.core.network`, which still re-exports them.
"""

from __future__ import annotations

import operator
import sys
from bisect import bisect_left
from functools import cached_property
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.bits import Bits
from repro.core.errors import BandwidthExceededError, ProtocolError, TopologyError

__all__ = [
    "Board",
    "BoardInbox",
    "UintBoard",
    "Inbox",
    "Outbox",
    "coerce_broadcast",
    "coerce_fixed",
    "inbox_source",
    "inbox_uints",
    "validate_fixed",
    "UintInbox",
    "EMPTY_INBOX",
]


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
        accessor every inbox flavour provides."""
        return [(sender, payload.to_uint()) for sender, payload in self.items()]

    def __len__(self) -> int:
        return len(self._by_sender)

    def __contains__(self, sender: int) -> bool:
        return sender in self._by_sender

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Inbox({self._by_sender!r})"


class UintInbox(Inbox):
    """The :class:`Inbox` of a round delivered as ints: ``by_sender``
    maps each sender to its ``width``-bit message as a plain uint.

    ``uint_items``, ``senders``, ``len`` and ``in`` read the ints;
    ``get`` and ``items`` build ``width``-bit :class:`Bits` on demand,
    so a receiver that reads uints never builds one.
    """

    __slots__ = ("_width",)

    def __init__(self, by_sender: Dict[int, int], width: int) -> None:
        self._by_sender = by_sender
        self._senders = None
        self._items = None
        self._width = width

    def get(self, sender: int) -> Optional[Bits]:
        value = self._by_sender.get(sender)
        return None if value is None else Bits(value, self._width)

    def items(self) -> Tuple[Tuple[int, Bits], ...]:
        cached = self._items
        if cached is None:
            width = self._width
            cached = self._items = tuple(
                (sender, Bits(value, width))
                for sender, value in sorted(self._by_sender.items())
            )
        return cached

    def uint_items(self) -> List[Tuple[int, int]]:
        return sorted(self._by_sender.items())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"UintInbox({self._by_sender!r}, width={self._width})"


EMPTY_INBOX = Inbox({})


class Board:
    """One CLIQUE-BCAST round's blackboard: ``words`` maps each writer
    to the one word it wrote.

    The delivery layer writes each word once, and an active fault plan
    acts on ``words`` before any node reads them.  The sorted views are
    built on first read and shared by every node's :class:`BoardInbox`,
    so each writer's word is decoded once per round, not once per
    receiver.
    """

    def __init__(self, words: Dict[int, Bits]) -> None:
        self.words = words

    def word(self, writer: int) -> Optional[Bits]:
        """``writer``'s word, or ``None`` if it wrote none."""
        return self.words.get(writer)

    @cached_property
    def items(self) -> Tuple[Tuple[int, Bits], ...]:
        return tuple(sorted(self.words.items()))

    @cached_property
    def writers(self) -> Tuple[int, ...]:
        return tuple(sorted(self.words))

    @cached_property
    def uints(self) -> List[Tuple[int, int]]:
        return [(writer, word.to_uint()) for writer, word in self.items]

    def uint_items(self) -> List[Tuple[int, int]]:
        """Every word on the board as ``(writer, uint)`` pairs sorted by
        writer: the inbox accessor, read by no one in particular, so no
        writer's own word is skipped."""
        return self.uints[:]


class UintBoard(Board):
    """The :class:`Board` of a round written as ints: ``words`` maps
    each writer to its ``width``-bit word as a plain uint.

    ``uints`` and ``writers`` read the ints; ``word`` and ``items``
    build ``width``-bit :class:`Bits` on demand, so a round whose
    readers read uints never builds one.
    """

    def __init__(self, words: Dict[int, int], width: int) -> None:
        self.words = words
        self.width = width

    def word(self, writer: int) -> Optional[Bits]:
        value = self.words.get(writer)
        return None if value is None else Bits(value, self.width)

    @cached_property
    def items(self) -> Tuple[Tuple[int, Bits], ...]:
        width = self.width
        return tuple((writer, Bits(value, width)) for writer, value in self.uints)

    @cached_property
    def uints(self) -> List[Tuple[int, int]]:
        return sorted(self.words.items())


class BoardInbox:
    """One node's view of a round's :class:`Board`, with the
    :class:`Inbox` API: every word but the node's own, since a broadcast
    never echoes back to its writer.  The sorted accessors slice the
    board's shared views around the node's own word, so a view is O(1)
    to hand out, and it keeps its round's words.
    """

    __slots__ = ("_board", "_me")

    def __init__(self, board: Board, me: int) -> None:
        self._board = board
        self._me = me

    def _without_me(self, shared):
        """``shared`` (sorted by writer) minus this node's own word."""
        me = self._me
        if me not in self._board.words:
            return shared[:]
        at = bisect_left(self._board.writers, me)
        return shared[:at] + shared[at + 1 :]

    def get(self, sender: int) -> Optional[Bits]:
        return None if sender == self._me else self._board.word(sender)

    def senders(self) -> Tuple[int, ...]:
        return self._without_me(self._board.writers)

    def items(self) -> Tuple[Tuple[int, Bits], ...]:
        return self._without_me(self._board.items)

    def uint_items(self) -> List[Tuple[int, int]]:
        return self._without_me(self._board.uints)

    def __len__(self) -> int:
        words = self._board.words
        return len(words) - (self._me in words)

    def __contains__(self, sender: int) -> bool:
        return sender != self._me and sender in self._board.words

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BoardInbox({dict(self.items())!r})"


def inbox_source(inbox: Any) -> Any:
    """What ``inbox`` reads from: the round's shared :class:`Board` for a
    :class:`BoardInbox`, and the inbox itself for every other flavour.
    Either one answers :func:`inbox_uints`, the board with every
    writer's word.  All receivers of a CLIQUE-BCAST round get the same
    board, so a value derived from it once serves every one of them."""
    return inbox._board if type(inbox) is BoardInbox else inbox


def inbox_uints(inbox: Any) -> List[Tuple[int, int]]:
    """``(sender, payload-as-uint)`` pairs sorted by sender, for every
    inbox flavour (dict-backed :class:`Inbox`, a :class:`UintInbox` or a
    :class:`BoardInbox`)."""
    return inbox.uint_items()


def coerce_broadcast(value: int, width: int) -> int:
    """Validate one fixed-width broadcast payload (a plain uint).

    The whole check is network-independent (only the bandwidth bound is
    left for the engine), so a broadcast outbox is fully validated at
    construction and can be reused round after round for free."""
    if width < 1:
        raise ValueError("fixed-width messages need width >= 1 bit")
    try:
        value = operator.index(value)
    except TypeError as exc:
        raise ProtocolError(
            f"broadcast_uint payload must be an integer, not {exc}"
        ) from exc
    if value < 0 or value >> width:
        raise ProtocolError(
            f"broadcast_uint payload {value} does not fit in {width} bits"
        )
    return value


def _int_tuple(seq: Sequence[int], what: str) -> Tuple[int, ...]:
    """A flat sequence of *true* integers as a tuple of plain ints.

    Floats (and anything else without ``__index__``) are rejected with
    :class:`ProtocolError` instead of being silently truncated the way
    a numpy dtype cast would truncate ``1.7`` to ``1``; numpy input is
    read with one ``.tolist()``.  An ndarray exists only once numpy has
    been imported, so it is recognised without importing numpy."""
    np = sys.modules.get("numpy")
    if np is not None and isinstance(seq, np.ndarray):
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
    outbox: "Outbox",
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
        bits on the blackboard.  The value is validated here, so only
        the bandwidth bound is left for the network.  A round in which
        every writer yields a fixed-width broadcast of the same width,
        with no active fault plan, writes these values on a
        :class:`UintBoard` as the ints they are; otherwise delivery
        writes each on the round's :class:`Board` as a ``width``-bit
        :class:`Bits` word, like :meth:`broadcast`.  One broadcast of
        ``width`` bits costs ``width``."""
        coerced = coerce_broadcast(value, width)
        return cls("bfixed", None, None, values=coerced, width=width)

    @classmethod
    def silent(cls) -> "Outbox":
        return _SILENT_OUTBOX

    @classmethod
    def fixed_width(cls, dests: Sequence[int], values: Sequence[int], width: int) -> "Outbox":
        """Bulk unicast of fixed-width unsigned-integer payloads:
        ``values[i]`` (exactly ``width`` bits on the wire) goes to
        ``dests[i]``.  Both are kept as tuples of plain ints.  A round
        in which every sender yields a fixed-width outbox of the same
        width, with no active fault plan, is delivered as those ints
        (receivers read a :class:`UintInbox`); otherwise each message is
        delivered as an ordinary ``width``-bit
        :class:`~repro.core.bits.Bits` unicast."""
        d, v = coerce_fixed(dests, values, width)
        return cls("fixed", None, None, dests=d, values=v, width=width)

    @classmethod
    def fixed_width_map(cls, messages: Mapping[int, int], width: int) -> "Outbox":
        """:meth:`fixed_width` from a ``{dest: uint}`` mapping (dict keys
        are unique by construction, so the duplicate-destination check is
        skipped; other Mapping types are copied through ``dict`` first so
        a broken ``keys()`` cannot smuggle a duplicate past it)."""
        if type(messages) is not dict:
            messages = dict(messages)
        d, v = coerce_fixed(messages.keys(), messages.values(), width)
        out = cls("fixed", None, None, dests=d, values=v, width=width)
        out.trusted_unique = True
        return out

    def _materialize_broadcast(self) -> Bits:
        """A fixed-width broadcast outbox's payload as :class:`Bits`, the
        word delivery writes on a :class:`Board` of :class:`Bits` and
        the transcript records.
        Memoized in the otherwise-unused ``payload`` slot, so a reused
        outbox pays the Bits construction once."""
        cached = self.payload
        if cached is None:
            cached = self.payload = Bits(self.values, self.width)
        return cached


_SILENT_OUTBOX = Outbox("silent", None, None)
