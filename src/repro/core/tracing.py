"""Human-readable views of protocol transcripts.

Debugging a distributed protocol from raw transcripts is painful; these
helpers render a :class:`~repro.core.network.RunResult` recorded with
``record_transcript=True`` as a per-round timeline and per-node/per-link
traffic summaries.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.network import RunResult

__all__ = ["render_timeline", "traffic_by_node", "traffic_matrix", "transcript_stats"]


def transcript_stats(result: RunResult) -> Dict[str, int]:
    """Aggregate counts from a recorded transcript: rounds, messages
    (sends; a broadcast counts once) and bits.  Useful for cross-checking
    the engine's own accounting and for benchmark sanity checks."""
    if result.transcript is None:
        raise ValueError("run the network with record_transcript=True")
    messages = 0
    bits = 0
    for record in result.transcript:
        messages += len(record.sends)
        bits += record.bits()
    return {"rounds": len(result.transcript), "messages": messages, "bits": bits}


def render_timeline(
    result: RunResult, max_rounds: Optional[int] = None, max_events: int = 8
) -> str:
    """A textual round-by-round timeline: who sent how many bits where."""
    if result.transcript is None:
        raise ValueError("run the network with record_transcript=True")
    lines: List[str] = []
    rounds = result.transcript
    if max_rounds is not None:
        rounds = rounds[:max_rounds]
    for index, record in enumerate(rounds):
        lines.append(f"round {index + 1}: {record.bits()} bits")
        for sender, receiver, payload in record.sends[:max_events]:
            target = "*" if receiver is None else str(receiver)
            lines.append(f"  {sender} -> {target}  [{len(payload)}b]")
        hidden = len(record.sends) - max_events
        if hidden > 0:
            lines.append(f"  ... {hidden} more sends")
    if max_rounds is not None and len(result.transcript) > max_rounds:
        lines.append(f"... {len(result.transcript) - max_rounds} more rounds")
    return "\n".join(lines)


def traffic_by_node(result: RunResult) -> Dict[int, int]:
    """Total bits each node sent over the whole run (a broadcast is
    charged once, matching the blackboard cost model)."""
    if result.transcript is None:
        raise ValueError("run the network with record_transcript=True")
    totals: Dict[int, int] = {}
    for record in result.transcript:
        for sender, _receiver, payload in record.sends:
            totals[sender] = totals.get(sender, 0) + len(payload)
    return totals


def traffic_matrix(result: RunResult, n: int) -> List[List[int]]:
    """Bits sent per ordered (sender, receiver) pair; broadcasts count
    toward every other node's column."""
    if result.transcript is None:
        raise ValueError("run the network with record_transcript=True")
    matrix = [[0] * n for _ in range(n)]
    for record in result.transcript:
        for sender, receiver, payload in record.sends:
            if receiver is None:
                for other in range(n):
                    if other != sender:
                        matrix[sender][other] += len(payload)
            else:
                matrix[sender][receiver] += len(payload)
    return matrix
