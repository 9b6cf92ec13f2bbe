"""Deterministic fault injection for the congested clique.

The paper's model assumes perfectly reliable all-to-all links; a
production service does not get that luxury.  This module lets any run
execute under a *chaos schedule* — dropped, corrupted, duplicated,
delayed messages and crashed (send-omitting) nodes — that is a pure
function of a seed and the message coordinates, so the **same fault
schedule** hits a protocol no matter which engine executes it and no
matter in which order the engine touches the messages.

Design
------

* :class:`FaultPlan` is the immutable description: per-kind
  probabilities, explicit ``(round, src, dst) -> kind`` triggers, a
  round window, and crash parameters.  Every decision is derived by
  hashing ``seed | kind | round | src | dst`` (sha256), never by
  consuming a shared RNG stream — two engines that deliver the same
  logical messages reach identical decisions even if they iterate
  receivers in different orders or batch instances differently.
* :class:`FaultSession` is the per-run applicator: it mutates delivered
  inboxes *after* the wire delivery (bits are charged for what was
  sent, exactly as a real lossy network charges the sender), records
  every injected fault as a :class:`FaultEvent`, and carries the
  delayed-delivery queue between rounds.
* Every engine calls the session on what it delivers: the legacy loop
  through :meth:`FaultSession.apply_scalar` on the round's board
  (broadcast) or per-receiver dicts, the kernel executor through
  :meth:`FaultSession.apply_kernel` on each round's flat payload: a
  ``K × count`` ``uint64`` matrix, or ``K × count × nbytes`` byte rows
  past 63 bits.

Semantics
---------

Faults are *receive-side*: the transcript and the bit accounting record
what was put on the wire, then the plan decides what each receiver
actually sees.  In broadcast mode a fault is keyed ``(round, src,
dst=None)`` and acts on the word on the round's board, so it hits
**all** receivers identically (one blackboard word has one fate).

A crashed node suffers send omission: from its crash round onward none
of its messages are delivered.  Its program keeps running locally (crash
≠ halt in this model), which keeps round structure engine-independent.

The legacy engine implements all five kinds exactly.  The kernel path
delivers each round as a matrix with one column per declared message,
so a dropped, delayed or crash-omitted message reads as 0 (there is no
"absent"), and a delayed/duplicated payload only resurfaces when a
later round's declared structure carries the same link and that slot
is empty; the recorded *schedule* (the :class:`FaultEvent` list) is
identical across engines even where the observable effect is
capability-limited — divergence between engines under faults is
exactly what a scenario sweep over several engines surfaces, as cells
that do not match their coordinate's reference.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.core.bits import Bits
from repro.core.errors import FaultInjectionError

__all__ = ["FaultEvent", "FaultPlan", "FaultSession"]

#: Fault kinds a plan may inject, in decision-priority order: an
#: explicit trigger wins, then the first probabilistic kind whose coin
#: lands decides (one fault per message per round).
FAULT_KINDS = ("drop", "corrupt", "duplicate", "delay", "crash")


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault: what happened to which message.

    ``dst`` is ``None`` for broadcast words and for crash events.
    ``detail`` is kind-specific: the flipped bit index for ``corrupt``,
    the delivery round for ``duplicate``/``delay``, ``None`` otherwise.
    """

    round: int
    src: int
    dst: Optional[int]
    kind: str
    detail: Optional[int] = None

    def key(self) -> Tuple[int, int, int, str]:
        """Canonical per-round sort key (engine-order independent)."""
        return (self.round, self.src, -1 if self.dst is None else self.dst, self.kind)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "round": self.round,
            "src": self.src,
            "dst": self.dst,
            "kind": self.kind,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, deterministic chaos schedule.

    Parameters
    ----------
    seed:
        Hash seed; two plans with equal parameters produce identical
        schedules everywhere.
    drop_rate, corrupt_rate, duplicate_rate, delay_rate:
        Per-message per-round probabilities in ``[0, 1]``.  Decisions
        are independent coins hashed from the message coordinates.
    crash_rate:
        Per-node probability of crashing; a crashed node's crash round
        is drawn uniformly from ``[1, crash_horizon]`` and from then on
        all of its sends are omitted.
    crashes:
        Explicit ``{node: crash_round}`` overrides (applied regardless
        of ``crash_rate``).
    triggers:
        Explicit ``{(round, src, dst): kind}`` faults; ``dst=None``
        targets a broadcast word.  Rounds are 1-based, matching
        :class:`~repro.core.network.RunResult.rounds`.
    from_round, until_round:
        Inclusive round window outside which no probabilistic fault
        fires (triggers are always honoured).
    delay_rounds:
        How many rounds later a delayed or duplicated payload is
        re-delivered (into the slot only if it is empty — a fresh
        message always wins).
    """

    seed: int = 0
    drop_rate: float = 0.0
    corrupt_rate: float = 0.0
    duplicate_rate: float = 0.0
    delay_rate: float = 0.0
    crash_rate: float = 0.0
    crash_horizon: int = 16
    crashes: Dict[int, int] = field(default_factory=dict)
    triggers: Dict[Tuple[int, int, Optional[int]], str] = field(default_factory=dict)
    from_round: int = 1
    until_round: Optional[int] = None
    delay_rounds: int = 1

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Raise :class:`FaultInjectionError` on a malformed plan."""
        for name in ("drop_rate", "corrupt_rate", "duplicate_rate", "delay_rate", "crash_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise FaultInjectionError(f"{name} must be in [0, 1], got {rate!r}")
        if self.crash_horizon < 1:
            raise FaultInjectionError("crash_horizon must be at least 1 round")
        if self.delay_rounds < 1:
            raise FaultInjectionError("delay_rounds must be at least 1 round")
        if self.from_round < 1:
            raise FaultInjectionError("from_round is 1-based, must be >= 1")
        if self.until_round is not None and self.until_round < self.from_round:
            raise FaultInjectionError("until_round must be >= from_round")
        for coord, kind in self.triggers.items():
            if kind not in FAULT_KINDS or kind == "crash":
                raise FaultInjectionError(
                    f"trigger {coord!r} names unknown fault kind {kind!r}; "
                    f"use one of {FAULT_KINDS[:-1]} (crashes go in `crashes`)"
                )
            if len(coord) != 3 or coord[0] < 1:
                raise FaultInjectionError(
                    f"trigger key {coord!r} must be (round>=1, src, dst-or-None)"
                )
        for node, crash_round in self.crashes.items():
            if crash_round < 1:
                raise FaultInjectionError(
                    f"crash round for node {node} must be >= 1, got {crash_round}"
                )

    @property
    def is_active(self) -> bool:
        """False for the no-op plan — the zero-overhead fast path: an
        inactive plan never allocates a session, so runs behave exactly
        as if no plan were installed."""
        return bool(
            self.drop_rate
            or self.corrupt_rate
            or self.duplicate_rate
            or self.delay_rate
            or self.crash_rate
            or self.crashes
            or self.triggers
        )

    # -- deterministic coins --------------------------------------------

    def _coin(self, label: str, round_index: int, src: int, dst: Optional[int]) -> float:
        """Uniform in ``[0, 1)``, a pure function of the coordinates —
        no stream, no ordering sensitivity."""
        key = f"{self.seed}|{label}|{round_index}|{src}|{-1 if dst is None else dst}"
        digest = hashlib.sha256(key.encode()).digest()
        return int.from_bytes(digest[:7], "big") / float(1 << 56)

    def fault_for(self, round_index: int, src: int, dst: Optional[int]) -> Optional[str]:
        """The fault kind (if any) hitting the message ``src -> dst`` in
        ``round_index``; ``dst=None`` is a broadcast word."""
        trigger = self.triggers.get((round_index, src, dst))
        if trigger is not None:
            return trigger
        if round_index < self.from_round:
            return None
        if self.until_round is not None and round_index > self.until_round:
            return None
        if self.drop_rate and self._coin("drop", round_index, src, dst) < self.drop_rate:
            return "drop"
        if self.corrupt_rate and self._coin("corrupt", round_index, src, dst) < self.corrupt_rate:
            return "corrupt"
        if self.duplicate_rate and self._coin("duplicate", round_index, src, dst) < self.duplicate_rate:
            return "duplicate"
        if self.delay_rate and self._coin("delay", round_index, src, dst) < self.delay_rate:
            return "delay"
        return None

    def corrupt_bit(self, round_index: int, src: int, dst: Optional[int], width: int) -> int:
        """Which bit a ``corrupt`` fault flips (deterministic, < width)."""
        return min(width - 1, int(self._coin("bit", round_index, src, dst) * width))

    def crash_round(self, node: int) -> Optional[int]:
        """The round from which ``node`` omits all sends, or ``None``."""
        explicit = self.crashes.get(node)
        if explicit is not None:
            return explicit
        if self.crash_rate and self._coin("crash?", 0, node, None) < self.crash_rate:
            return 1 + int(self._coin("crash@", 0, node, None) * self.crash_horizon)
        return None

    # -- session / serialization ----------------------------------------

    def session(self, network: Any) -> Optional["FaultSession"]:
        """A fresh per-run :class:`FaultSession`, or ``None`` when the
        plan is inactive (the zero-overhead path)."""
        if not self.is_active:
            return None
        return FaultSession(self, network.n, network.mode.value == "broadcast")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "drop_rate": self.drop_rate,
            "corrupt_rate": self.corrupt_rate,
            "duplicate_rate": self.duplicate_rate,
            "delay_rate": self.delay_rate,
            "crash_rate": self.crash_rate,
            "crash_horizon": self.crash_horizon,
            "crashes": {str(k): v for k, v in sorted(self.crashes.items())},
            "triggers": {
                f"{r}:{s}:{'*' if d is None else d}": kind
                for (r, s, d), kind in sorted(
                    self.triggers.items(),
                    key=lambda item: (item[0][0], item[0][1], -1 if item[0][2] is None else item[0][2]),
                )
            },
            "from_round": self.from_round,
            "until_round": self.until_round,
            "delay_rounds": self.delay_rounds,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultPlan":
        """Inverse of :meth:`to_dict`; raises
        :class:`~repro.core.errors.FaultInjectionError` on malformed
        input (unknown keys, unparseable trigger coordinates) so a plan
        read from disk either round-trips exactly or fails loudly."""
        known = {
            "seed", "drop_rate", "corrupt_rate", "duplicate_rate",
            "delay_rate", "crash_rate", "crash_horizon", "crashes",
            "triggers", "from_round", "until_round", "delay_rounds",
        }
        unknown = set(data) - known
        if unknown:
            raise FaultInjectionError(
                f"unknown FaultPlan fields {sorted(unknown)}; known: {sorted(known)}"
            )
        kwargs = dict(data)
        try:
            kwargs["crashes"] = {
                int(node): int(crash_round)
                for node, crash_round in data.get("crashes", {}).items()
            }
            triggers: Dict[Tuple[int, int, Optional[int]], str] = {}
            for coord, kind in data.get("triggers", {}).items():
                r, s, d = coord.split(":")
                triggers[(int(r), int(s), None if d == "*" else int(d))] = kind
            kwargs["triggers"] = triggers
        except (ValueError, AttributeError) as exc:
            raise FaultInjectionError(
                f"malformed FaultPlan serialization: {exc}"
            ) from exc
        return cls(**kwargs)

    def to_json(self) -> str:
        """Canonical JSON encoding of :meth:`to_dict` — a plan's portable
        text form."""
        import json

        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        """Inverse of :meth:`to_json`: ``FaultPlan.from_json(p.to_json())``
        equals ``p`` and produces the identical fault schedule."""
        import json

        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FaultInjectionError(f"FaultPlan JSON does not parse: {exc}") from exc
        if not isinstance(data, dict):
            raise FaultInjectionError(
                f"FaultPlan JSON must be an object, got {type(data).__name__}"
            )
        return cls.from_dict(data)


class FaultSession:
    """Per-run fault state: the event log, the delayed-delivery queue
    and the precomputed crash schedule.  One session serves one run —
    on the kernel engine one ``run_many`` call, whose instances share
    each round's payload matrix and so one schedule — and the event
    list is that run's complete, canonical fault record: per round,
    events are sorted by ``(src, dst, kind)`` no matter in which order
    the engine touched the messages.
    """

    __slots__ = ("plan", "n", "broadcast_mode", "events", "_delayed", "_crash_rounds", "_round_events")

    def __init__(self, plan: FaultPlan, n: int, broadcast_mode: bool) -> None:
        self.plan = plan
        self.n = n
        self.broadcast_mode = broadcast_mode
        self.events: List[FaultEvent] = []
        self._delayed: Dict[int, List[Tuple[int, Optional[int], Any]]] = {}
        self._crash_rounds: Dict[int, int] = {}
        for v in range(n):
            crash = plan.crash_round(v)
            if crash is not None:
                self._crash_rounds[v] = crash
        self._round_events: List[FaultEvent] = []

    # -- shared bookkeeping ---------------------------------------------

    def _record(self, round_index: int, src: int, dst: Optional[int], kind: str, detail: Optional[int]) -> None:
        self._round_events.append(FaultEvent(round_index, src, dst, kind, detail))

    def _record_crashes(self, round_index: int) -> None:
        for v, crash in self._crash_rounds.items():
            if crash == round_index:
                self._record(round_index, v, None, "crash", None)

    def _seal_round(self) -> None:
        if self._round_events:
            self._round_events.sort(key=FaultEvent.key)
            self.events.extend(self._round_events)
            self._round_events = []

    def _stash(self, round_index: int, src: int, dst: Optional[int], payload: Any) -> None:
        due = round_index + self.plan.delay_rounds
        self._delayed.setdefault(due, []).append((src, dst, payload))

    # -- scalar path (the legacy engine) ---------------------------------

    def apply_scalar(self, round_index: int, boxes: Any) -> None:
        """Mutate one delivered round before any node reads it.

        In broadcast mode ``boxes`` is the round's board ``{writer:
        word}``, so a fault on a word is one dict operation and every
        receiver sees the same fate; otherwise ``boxes`` is the list of
        per-receiver ``{sender: message}`` dicts.
        """
        self._record_crashes(round_index)
        if not self.broadcast_mode:
            pairs = enumerate(boxes)
        elif self.n > 1:
            pairs = ((None, boxes),)
        else:
            # A lone node's word has no reader, so it has no fate either.
            pairs = ()
        for dst, box in pairs:
            for src in sorted(box):
                crash = self._crash_rounds.get(src)
                if crash is not None and round_index >= crash:
                    del box[src]
                    continue
                kind = self.plan.fault_for(round_index, src, dst)
                if kind is None:
                    continue
                payload = box[src]
                if kind == "drop":
                    del box[src]
                    self._record(round_index, src, dst, "drop", None)
                elif kind == "corrupt":
                    width = len(payload)
                    bit = self.plan.corrupt_bit(round_index, src, dst, width)
                    box[src] = Bits(payload.to_uint() ^ (1 << bit), width)
                    self._record(round_index, src, dst, "corrupt", bit)
                elif kind == "duplicate":
                    self._stash(round_index, src, dst, payload)
                    self._record(round_index, src, dst, "duplicate",
                                 round_index + self.plan.delay_rounds)
                elif kind == "delay":
                    del box[src]
                    self._stash(round_index, src, dst, payload)
                    self._record(round_index, src, dst, "delay",
                                 round_index + self.plan.delay_rounds)
        due = self._delayed.pop(round_index, None)
        if due:
            # Late payloads fill only empty slots: a fresh message from
            # the same sender always wins over a stale one.
            for src, dst, payload in due:
                if dst is None:
                    boxes.setdefault(src, payload)
                else:
                    boxes[dst].setdefault(src, payload)
        self._seal_round()

    # -- kernel path ------------------------------------------------------

    def apply_kernel(self, round_index, values, links, width, widths=None):
        """A fault-adjusted copy of one kernel round's payload, or
        ``values`` itself when no fault touches the round; ``values`` is
        never mutated.

        ``values`` is a ``K × count`` ``uint64`` matrix, or ``K × count
        × nbytes`` ``uint8`` byte rows (each message right-aligned) for
        a round past 63 bits.  Column ``j`` carries link ``links[j] =
        (src, dst)``, ``dst`` ``None`` for a blackboard word, and is
        ``width`` bits wide (or ``widths[j]``).  A dropped, delayed or
        crash-omitted message reads 0 (its whole row).  A late payload,
        stashed as its column or row, resurfaces only where this round's
        declared structure carries its link and that slot is empty — the
        structural limit of matrix-shaped delivery — with its value
        unchanged; a slot whose storage cannot hold that value raises
        :class:`~repro.core.errors.FaultInjectionError`."""
        self._record_crashes(round_index)
        decisions = []
        for j, (src, dst) in enumerate(links):
            crash = self._crash_rounds.get(src)
            if crash is not None and round_index >= crash:
                decisions.append((j, src, dst, "crash-omit"))
                continue
            kind = self.plan.fault_for(round_index, src, dst)
            if kind is not None:
                decisions.append((j, src, dst, kind))
        due = self._delayed.pop(round_index, None)
        if not decisions and not due:
            self._seal_round()
            return values
        vals = values.copy()
        empty = set()
        for j, src, dst, kind in decisions:
            if kind == "corrupt":
                slot_width = width if widths is None else int(widths[j])
                bit = self.plan.corrupt_bit(round_index, src, dst, slot_width)
                _xor_bit(vals, j, bit)
                self._record(round_index, src, dst, "corrupt", bit)
            elif kind == "drop":
                self._record(round_index, src, dst, "drop", None)
            elif kind != "crash-omit":  # duplicate / delay
                self._stash(round_index, src, dst, values[:, j].copy())
                self._record(round_index, src, dst, kind,
                             round_index + self.plan.delay_rounds)
            if kind in ("drop", "delay", "crash-omit"):
                vals[:, j] = 0
                empty.add(j)
        if due:
            slot_of = {link: j for j, link in enumerate(links)}
            for src, dst, late in due:
                j = slot_of.get((src, dst))
                if j in empty:
                    _place_late(vals, j, late, round_index, (src, dst))
                    empty.discard(j)
        self._seal_round()
        return vals


def _xor_bit(vals, column: int, bit: int) -> None:
    """Flip bit ``bit``, counted from the least significant end, of
    every instance's message in a payload column: a ``uint64`` entry
    XORs it natively, a byte row flips byte ``nbytes - 1 - bit // 8``
    under mask ``1 << bit % 8``."""
    if vals.ndim == 3:
        vals[:, column, vals.shape[2] - 1 - bit // 8] ^= vals.dtype.type(1 << bit % 8)
    else:
        vals[:, column] ^= vals.dtype.type(1 << bit)


def _place_late(vals, column: int, late, round_index: int, link) -> None:
    """Write a late payload into the emptied ``column`` of ``vals``
    with its value unchanged.  ``late`` is the column (``K`` ``uint64``)
    or the rows (``K × nbytes``) it was stashed as; a value that the
    column's ``uint64`` entries or byte rows cannot hold raises
    :class:`FaultInjectionError`."""
    if late.ndim == 1:
        if vals.ndim == 2:
            vals[:, column] = late
            return
        # A uint64 value into byte rows: its 8 big-endian bytes.
        late = late.astype(">u8").view("u1").reshape(-1, 8)
    room = vals.shape[2] if vals.ndim == 3 else 8
    cut = late.shape[1] - room
    if cut > 0:
        if late[:, :cut].any():
            raise FaultInjectionError(
                f"a payload delayed on link {link} does not fit the "
                f"{room}-byte slots of round {round_index}"
            )
        late = late[:, cut:]
    if vals.ndim == 3:
        vals[:, column, room - late.shape[1] :] = late
    else:
        word = vals[:, column].astype(">u8")
        word.view("u1").reshape(-1, 8)[:, 8 - late.shape[1] :] = late
        vals[:, column] = word
