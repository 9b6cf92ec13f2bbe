"""Synchronous message-passing front door for the congested clique.

This module implements the three communication models studied in the
paper:

* ``CLIQUE-UCAST(n, b)`` — every round, every node may send a *different*
  message of at most ``b`` bits on each of its ``n-1`` links.
* ``CLIQUE-BCAST(n, b)`` — every round, every node writes a single message
  of at most ``b`` bits that all other nodes receive (the shared-
  blackboard / number-in-hand multiparty model).
* ``CONGEST-UCAST`` — unicast with the communication topology restricted
  to the edges of an arbitrary graph.

Protocols are written as generator coroutines: each node's program yields
an :class:`Outbox` to end its round and is resumed with the
:class:`Inbox` of messages delivered to it.  The generator's return value
is the node's output.  The engine enforces bandwidth per the model,
counts rounds and bits, and can record a full transcript (needed by the
communication-complexity reductions of Section 3).

Execution engines
-----------------

*How* a program executes is one of the two engine modules of
:mod:`repro.core.engine`, looked up by name in
:data:`~repro.core.engine.ENGINES`:

* ``legacy`` (default) — the original per-round-allocation loop that
  runs every generator program, kept as the executable reference
  semantics; the equivalence suites pin every kernel twin to it
  byte-for-byte.
* ``kernel`` — declared :class:`~repro.core.kernels.KernelProgram`\\ s,
  whose rounds compile where they are declared, checked against the
  network on every run and executed as one matrix operation per round
  over all nodes and instances, zero generator steps.

A kernel program runs on ``kernel`` whatever ``Network(engine=...)``
names (it has no other semantics), and ``engine="kernel"`` rejects a
generator program.  An engine's failure propagates to the caller.

In the generator loop a round whose senders all yielded fixed-width
outboxes of one width crosses the wire as plain ints when no fault plan
is active, read through a :class:`~repro.core.mailbox.UintInbox` or,
in CLIQUE-BCAST, a :class:`~repro.core.mailbox.UintBoard`; every other
round carries :class:`~repro.core.bits.Bits`.  A CLIQUE-BCAST round is
one :class:`~repro.core.mailbox.Board`: each writer's word is written
once, and every node reads it through a view that skips its own word.

An inbox keeps its round's messages on every engine: each round hands
every node a fresh inbox, so a program may stash one and read it in a
later round.

The only state a :class:`Network` carries between runs is its seeded
coin states, and the engine modules hold none, so one program runs on
any number of networks.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.bits import Bits
from repro.core.engine import ENGINES
from repro.core.mailbox import (
    EMPTY_INBOX,
    _SILENT_OUTBOX,
    Inbox,
    Outbox,
    inbox_uints,
    validate_fixed,
)
from repro.core.errors import BandwidthExceededError, ProtocolError, TopologyError

__all__ = [
    "Mode",
    "Inbox",
    "Outbox",
    "Context",
    "CoinStates",
    "RoundRecord",
    "RunResult",
    "Network",
    "run_protocol",
    "inbox_uints",
    "EMPTY_INBOX",
]


class Mode(enum.Enum):
    """Communication model selector."""

    UNICAST = "unicast"
    BROADCAST = "broadcast"
    CONGEST = "congest"


# Message containers live in repro.core.mailbox; re-exported here for
# compatibility (every protocol module historically imports them from
# repro.core.network).
_ = (Inbox, Outbox, inbox_uints, EMPTY_INBOX, _SILENT_OUTBOX)


class CoinStates:
    """The seeded coin states of one network seed: node ``v``'s private
    coin is ``random.Random(f"{seed}:node:{v}")`` and the public coin
    ``random.Random(f"{seed}:shared")``.  Each seed string is hashed the
    first time a run reads that coin, and every later run clones the
    captured state, which is cheaper than re-seeding and guarantees
    every run starts from identical streams."""

    __slots__ = ("seed", "_nodes", "_shared")

    def __init__(self, seed: int, n: int) -> None:
        self.seed = seed
        self._nodes: List[Any] = [None] * n
        self._shared: Any = None

    def node_rng(self, v: int) -> random.Random:
        """A fresh clone of node ``v``'s private coin."""
        state = self._nodes[v]
        if state is None:
            state = self._nodes[v] = random.Random(
                f"{self.seed}:node:{v}"
            ).getstate()
        return _clone_rng(state)

    def shared_rng(self) -> random.Random:
        """A fresh clone of the public coin."""
        state = self._shared
        if state is None:
            state = self._shared = random.Random(f"{self.seed}:shared").getstate()
        return _clone_rng(state)


def _clone_rng(state: Any) -> random.Random:
    rng = random.Random.__new__(random.Random)
    rng.setstate(state)
    return rng


@dataclass
class Context:
    """Per-node view of the network, handed to each node program.

    ``rng`` is this node's private coin.  ``shared_rng`` is the public
    coin: every node receives its *own* ``random.Random`` instance, but
    all of them are seeded identically, so node ``v``'s k-th draw equals
    node ``u``'s k-th draw no matter how the engine interleaves node
    executions.  The contract is per-node-identical *streams*: nodes
    agree on shared randomness as long as they make the same sequence of
    draw calls (the natural lockstep discipline of a synchronous
    protocol).  A single genuinely shared instance would break exactly
    this — interleaved draws would hand each node a disjoint slice of
    one stream.

    Each coin is cloned from the network's seeded state the first time
    the node reads it, in whatever round that is, so a node's stream
    does not depend on when it starts drawing, and a program that never
    draws costs no clone.

    ``memo`` is one dict shared by every node context of a run and
    dropped with it; a second run starts from an empty one.  In
    CLIQUE-BCAST anything a node derives from the blackboard alone is
    the same at every node, so a program may store such a value here
    once instead of deriving it n times.  The contract:

    * store only a pure function of values the node already holds;
    * the key names the function and every one of its inputs;
    * the stored value is immutable (``Bits``, frozen dataclasses,
      tuples).

    A shared value may be a function of a round's whole board (every
    writer's word, the node's own included), provided each node reads
    back only its own view of it — the broadcast phases of
    :mod:`repro.core.phases` decode each phase once this way, keyed by
    the boards themselves; the stored value stays immutable.  Under the
    contract a node reads back exactly what it would have computed
    itself, so no information passes between nodes, and receive-side
    faults stay exact: a fault acts on the board before any node reads
    it, and a corrupted word is a different key.  It is not a cross-run
    cache.
    """

    node_id: int
    n: int
    bandwidth: int
    mode: Mode
    neighbors: Tuple[int, ...]
    input: Any = None
    memo: Dict[Any, Any] = field(default_factory=dict)
    # The run's seeded states, which ``rng`` and ``shared_rng`` clone.
    _coins: Optional[CoinStates] = field(default=None, repr=False, compare=False)

    @cached_property
    def rng(self) -> random.Random:
        return self._coins.node_rng(self.node_id)

    @cached_property
    def shared_rng(self) -> random.Random:
        return self._coins.shared_rng()


@dataclass
class RoundRecord:
    """Transcript of one round: list of (sender, receiver, bits); a
    broadcast is recorded once with ``receiver=None``."""

    sends: List[Tuple[int, Optional[int], Bits]] = field(default_factory=list)

    def bits(self) -> int:
        return sum(len(m) for _, _, m in self.sends)


@dataclass
class RunResult:
    """Outcome of one protocol execution.

    ``faults`` is the canonical list of
    :class:`~repro.core.faults.FaultEvent`\\ s injected by an active
    :class:`~repro.core.faults.FaultPlan` (``None`` when no plan was
    active).
    """

    outputs: List[Any]
    rounds: int
    total_bits: int
    max_round_bits: int
    transcript: Optional[List[RoundRecord]] = None
    faults: Optional[List[Any]] = None

    def blackboard_bits(self) -> int:
        """Total bits written, counting each broadcast once (the natural
        cost measure for the shared-blackboard model)."""
        return self.total_bits


NodeProgram = Callable[[Context], Any]


class Network:
    """Synchronous round-based network for ``n`` nodes.

    Parameters
    ----------
    n:
        Number of nodes (players).
    bandwidth:
        Maximum message size ``b`` in bits (per link per round for
        unicast/CONGEST; per node per round for broadcast).
    mode:
        Which of the three communication models to enforce.
    topology:
        For :attr:`Mode.CONGEST`, an adjacency structure: a sequence of
        neighbour collections, one per node.  Ignored otherwise.
    seed:
        Seeds both the per-node private RNGs and the shared public-coin
        RNG, making every run reproducible.
    max_rounds:
        The round bound, at least 1: a generator run still going after
        this many rounds, or a kernel program that declares more,
        raises :class:`~repro.core.errors.MaxRoundsExceededError`
        naming it.  A sweep sets it per cell to bound livelocks under
        fault injection.
    record_transcript:
        When true, the result carries a full per-round transcript (used
        by the lower-bound reductions to charge communication).
    fault_plan:
        An optional :class:`~repro.core.faults.FaultPlan`.  When the
        plan is *active*, every run executes under its deterministic
        chaos schedule (applied receive-side, identically on every
        engine) and the result's ``faults`` field lists the injected
        events; an inactive (all-zero) plan — and ``None`` — cost
        nothing on the hot path.
    engine:
        ``"legacy"`` (the default) or ``"kernel"``; anything else raises
        ``ValueError``.  A kernel program runs on ``"kernel"`` whatever
        this names, and ``"kernel"`` rejects a generator program with
        :class:`~repro.core.errors.ProtocolError`.
    """

    def __init__(
        self,
        n: int,
        bandwidth: int,
        mode: Mode = Mode.UNICAST,
        topology: Optional[Sequence[Sequence[int]]] = None,
        seed: int = 0,
        max_rounds: int = 1_000_000,
        record_transcript: bool = False,
        engine: str = "legacy",
        fault_plan: Optional[Any] = None,
    ) -> None:
        if engine not in ENGINES:
            raise ValueError(f"unknown engine {engine!r}")
        if n < 1:
            raise ValueError("need at least one node")
        if bandwidth < 1:
            raise ValueError("bandwidth must be at least 1 bit")
        if max_rounds < 1:
            raise ValueError("max_rounds must be at least 1 round")
        if fault_plan is not None:
            fault_plan.validate()
        self.n = n
        self.bandwidth = bandwidth
        self.mode = mode
        self.seed = seed
        self.max_rounds = max_rounds
        self.record_transcript = record_transcript
        self.fault_plan = fault_plan
        #: The engine name given at construction.
        self.engine = engine
        if mode is Mode.CONGEST:
            if topology is None:
                raise TopologyError("CONGEST mode requires a topology")
            self._neighbors = [tuple(sorted(set(topology[v]))) for v in range(n)]
            for v, nbrs in enumerate(self._neighbors):
                if v in nbrs:
                    raise TopologyError(f"node {v} may not neighbour itself")
                for u in nbrs:
                    if not 0 <= u < n:
                        raise TopologyError(f"neighbour {u} out of range")
            # Membership checks are model-invariant: hoist them into
            # per-sender frozensets built once, not per message.
            self._allowed: Optional[List[frozenset]] = [
                frozenset(nbrs) for nbrs in self._neighbors
            ]
        else:
            everyone = tuple(range(n))
            self._neighbors = [everyone[:v] + everyone[v + 1 :] for v in range(n)]
            self._allowed = None
        # The coin states of the current seed, shared by every run (and
        # every run_many instance) on it.
        self._coins: Optional[CoinStates] = None

    # -- execution -------------------------------------------------------

    def run(
        self,
        program: Callable[[Context], Any],
        inputs: Optional[Sequence[Any]] = None,
    ) -> RunResult:
        """Run ``program`` (a generator function taking a Context) on all
        nodes in lockstep and return the :class:`RunResult`.

        ``inputs[v]`` is exposed as ``ctx.input`` on node ``v``.

        ``program`` may also be a
        :class:`~repro.core.kernels.KernelProgram`, which runs on the
        vectorized kernel engine (a kernel program *is* its own
        execution semantics, pinned to the generator reference by the
        equivalence suites).
        """
        return self.run_many(program, [inputs])[0]

    def run_many(
        self,
        program: Callable[[Context], Any],
        inputs_list: Sequence[Optional[Sequence[Any]]],
    ) -> List[RunResult]:
        """Run ``program`` once per entry of ``inputs_list`` and return
        one :class:`RunResult` per instance, byte-identical to calling
        :meth:`run` sequentially.

        Every instance's inputs are checked before any runs.  A kernel
        program runs on the kernel engine, which moves all instances
        through each round as one ``K × count`` payload matrix; a
        generator program runs on the legacy loop, one instance after
        another.
        """
        inputs_list = list(inputs_list)
        for inputs in inputs_list:
            self._check_inputs(inputs)
        if getattr(program, "is_kernel_program", False):
            engine = "kernel"
        elif self.engine == "kernel":
            raise ProtocolError(
                "the 'kernel' engine only executes kernel programs, got a "
                "generator node program"
            )
        else:
            engine = self.engine
        return ENGINES[engine].run_many(self, program, inputs_list)

    def _check_inputs(self, inputs: Optional[Sequence[Any]]) -> None:
        if inputs is not None and len(inputs) != self.n:
            raise ProtocolError(
                f"got {len(inputs)} inputs for {self.n} nodes; "
                "Network.run needs exactly one input per node "
                "(pass inputs=None for input-free protocols)"
            )

    # -- resilience hooks the engines consume ----------------------------

    def _fault_session(self) -> Optional[Any]:
        """A fresh per-run fault session, or ``None`` when no active
        plan is installed (one attribute check — the zero-overhead
        contract of disabled fault injection)."""
        plan = self.fault_plan
        if plan is None:
            return None
        return plan.session(self)

    # -- per-run state the engines consume -------------------------------

    def _coin_states(self) -> CoinStates:
        """The :class:`CoinStates` of the network's seed, shared by
        every run (and by the kernel runner); keyed on the seed so
        reassigning ``network.seed`` takes effect."""
        coins = self._coins
        if coins is None or coins.seed != self.seed:
            coins = self._coins = CoinStates(self.seed, self.n)
        return coins

    def _make_contexts(self, inputs: Optional[Sequence[Any]]) -> List[Context]:
        coins = self._coin_states()
        memo: Dict[Any, Any] = {}
        return [
            Context(
                node_id=v,
                n=self.n,
                bandwidth=self.bandwidth,
                mode=self.mode,
                neighbors=self._neighbors[v],
                input=None if inputs is None else inputs[v],
                memo=memo,
                _coins=coins,
            )
            for v in range(self.n)
        ]

    def _start(self, program, inputs):
        contexts = self._make_contexts(inputs)
        outputs: List[Any] = [None] * self.n
        generators: Dict[int, Any] = {}
        pending_outbox: Dict[int, Outbox] = {}
        for v in range(self.n):
            gen = program(contexts[v])
            if not hasattr(gen, "send"):
                # A plain function: purely local computation, zero rounds.
                outputs[v] = gen
                continue
            try:
                pending_outbox[v] = self._check_outbox(v, next(gen))
                generators[v] = gen
            except StopIteration as stop:
                outputs[v] = stop.value
        return outputs, generators, pending_outbox

    def _check_outbox(self, sender: int, yielded: Any) -> Outbox:
        if yielded is None:
            return _SILENT_OUTBOX
        if not isinstance(yielded, Outbox):
            raise ProtocolError(
                f"node {sender} yielded {type(yielded).__name__}, expected Outbox"
            )
        kind = yielded.kind
        if kind in ("broadcast", "bfixed") and self.mode is not Mode.BROADCAST:
            raise ProtocolError(
                f"node {sender} broadcast in a {self.mode.value} network"
            )
        if kind in ("unicast", "fixed") and self.mode is Mode.BROADCAST:
            raise ProtocolError(
                f"node {sender} unicast in a broadcast network"
            )
        if kind == "bfixed" and yielded.width > self.bandwidth:
            # The payload itself was validated at construction; only the
            # network-dependent bandwidth bound is checked here.
            raise BandwidthExceededError(
                f"node {sender} broadcast {yielded.width} bits "
                f"(bandwidth {self.bandwidth})"
            )
        if kind == "fixed":
            # Whole-outbox validation at every yield, so delivery runs
            # no per-message check.
            allowed = self._allowed
            validate_fixed(
                yielded,
                sender,
                self.n,
                self.bandwidth,
                None if allowed is None else allowed[sender],
            )
        return yielded


def run_protocol(
    program: Callable[[Context], Any],
    n: int,
    bandwidth: int,
    mode: Mode = Mode.UNICAST,
    inputs: Optional[Sequence[Any]] = None,
    **kwargs: Any,
) -> RunResult:
    """Convenience wrapper: build a :class:`Network` and run ``program``."""
    network = Network(n=n, bandwidth=bandwidth, mode=mode, **kwargs)
    return network.run(program, inputs=inputs)
