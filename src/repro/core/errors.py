"""Exception hierarchy for the congested-clique reproduction library.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch library failures without catching unrelated bugs.
Any other exception out of :meth:`~repro.core.network.Network.run` — a
bug in an engine or in a node program — propagates unchanged: no engine
re-runs the program, so a scenario-matrix cell records it as failed
with its ``error_type``.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class BandwidthExceededError(ReproError):
    """A node tried to send more bits on a link (or blackboard) than the
    per-round bandwidth ``b`` allows."""


class TopologyError(ReproError):
    """A message was addressed to a node that is not reachable in the
    current communication model (e.g. a non-neighbour in CONGEST)."""


class ProtocolError(ReproError):
    """A node program violated the engine's protocol contract (e.g. it
    yielded something that is not an :class:`~repro.core.network.Outbox`)."""


class MaxRoundsExceededError(ReproError):
    """The protocol did not terminate within the network's round bound
    (``Network(max_rounds=...)``); the message names the bound."""


class FaultInjectionError(ReproError):
    """A :class:`~repro.core.faults.FaultPlan` is malformed (bad
    probabilities, bad triggers) or was applied in a context it cannot
    express (e.g. per-receiver corruption of a broadcast word)."""


class DecodeError(ReproError):
    """A bit-level decoder was asked to read past the end of its input or
    encountered a malformed encoding."""


class SimulationPlanError(ReproError):
    """A Theorem 2 simulation cannot run as planned: a player would send
    or read a gate value it never learns, a node lacks an input the plan
    says it holds, or a planned heavy push or routed payload never
    arrives.  ``player`` and ``gate`` name the culprit."""

    def __init__(self, message: str, player: int, gate: int) -> None:
        super().__init__(message)
        self.player = player
        self.gate = gate


class SweepExecutionError(ReproError):
    """Base class for failures of the sharded sweep executor
    (:mod:`repro.scenarios.sweep`): infrastructure faults of the harness
    itself, as opposed to protocol-semantic errors of the cell being run.

    Every instance carries the failing cell's ``coordinate`` (the
    ``seed:protocol:family:n:engine`` journal key, or ``None`` when the
    failure is not tied to one cell), the ``attempts`` already spent on
    it, and a short ``traceback_digest`` deduplicating crash signatures
    across a sweep — the same forensics triple the PR 6 fault taxonomy
    records on failed matrix cells.
    """

    def __init__(
        self,
        message: str,
        coordinate: "str | None" = None,
        attempts: int = 0,
        traceback_digest: "str | None" = None,
    ) -> None:
        detail = message
        if coordinate is not None:
            detail += f" [cell {coordinate}, attempt {attempts}]"
        super().__init__(detail)
        self.coordinate = coordinate
        self.attempts = attempts
        self.traceback_digest = traceback_digest


class WorkerCrashError(SweepExecutionError):
    """A sweep worker process died (segfault, SIGKILL, lost heartbeat,
    unclean exit) while executing — or assigned — a matrix cell.  The
    supervisor retries the cell with backoff; after ``max_attempts`` the
    cell lands in the poison quarantine with this error recorded."""


class CellTimeoutError(SweepExecutionError):
    """A sweep cell exceeded its wall-clock deadline and the supervisor
    SIGKILLed the worker running it.  Distinct from the *in-protocol*
    round bound (``Network(max_rounds=)``, which a sweep sets from
    ``cell_round_limit``, raising :class:`MaxRoundsExceededError`): a
    cell that hangs outside the round loop (in ``prepare``, in native
    code) only this deadline can catch."""


class SweepResumeError(SweepExecutionError):
    """A sweep journal could not be resumed: it belongs to a different
    sweep (fingerprint mismatch), is corrupted beyond the tolerated
    torn trailing line, or would be silently overwritten."""
