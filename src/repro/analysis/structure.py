"""Communication-structure extraction: the analyzer's view of a protocol.

Two extraction paths feed the verifier:

* **Kernel programs** declare their entire round structure up front
  (:class:`~repro.core.kernels.UnicastRound` /
  :class:`~repro.core.kernels.BroadcastRound` specs), so
  :func:`kernel_structure` reads the shape straight off the
  declarations — no send/recv callback ever executes, which is what
  makes the pass *static*: a kernel program's structure cannot depend on
  inputs by construction.

* **Generator programs** interleave structure and computation, so their
  shape is observed by :func:`trace_structure`: one instrumented run on
  the legacy reference engine with ``record_transcript=True`` (the
  transcript-recording network doubles as the tracing stub, so the
  trace sees exactly the scalar reference semantics).

Both paths normalize to :class:`ProtocolStructure`: per round, how many
messages were sent, the widest one, and the bits charged — never the
payload.  The verifier's bandwidth-budget check reads the widest
message off it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

__all__ = [
    "RoundShape",
    "ProtocolStructure",
    "kernel_structure",
    "trace_structure",
]


@dataclass(frozen=True)
class RoundShape:
    """Shape of one communication round, payload-free."""

    kind: str  # "unicast" | "broadcast" | "mixed" | "silent"
    messages: int
    max_width: int
    total_bits: int

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "messages": self.messages,
            "max_width": self.max_width,
            "total_bits": self.total_bits,
        }


@dataclass
class ProtocolStructure:
    """Per-round communication shape of one protocol execution/declaration."""

    source: str  # "kernel-declared" | "traced"
    rounds: List[RoundShape] = field(default_factory=list)

    @property
    def num_rounds(self) -> int:
        return len(self.rounds)

    @property
    def max_message_width(self) -> int:
        return max((shape.max_width for shape in self.rounds), default=0)

    @property
    def max_round_bits(self) -> int:
        return max((shape.total_bits for shape in self.rounds), default=0)

    @property
    def total_bits(self) -> int:
        return sum(shape.total_bits for shape in self.rounds)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "source": self.source,
            "num_rounds": self.num_rounds,
            "max_message_width": self.max_message_width,
            "max_round_bits": self.max_round_bits,
            "total_bits": self.total_bits,
            "rounds": [shape.to_dict() for shape in self.rounds],
        }


def kernel_structure(program: Any) -> ProtocolStructure:
    """Read a :class:`~repro.core.kernels.KernelProgram`'s structure off
    its round declarations without executing any callback."""
    if not getattr(program, "is_kernel_program", False):
        raise TypeError(
            f"kernel_structure needs a KernelProgram, got {type(program).__name__}"
        )
    rounds = [
        RoundShape(
            kind=kind, messages=count, max_width=width, total_bits=total
        )
        for kind, count, width, total in program.declared_structure()
    ]
    return ProtocolStructure(source="kernel-declared", rounds=rounds)


def _shape_from_record(record: Any) -> RoundShape:
    """Collapse one transcript :class:`~repro.core.network.RoundRecord`
    into its structural shape."""
    kinds = set()
    total = 0
    max_width = 0
    for _sender, receiver, bits in record.sends:
        width = len(bits)
        kinds.add("broadcast" if receiver is None else "unicast")
        total += width
        if width > max_width:
            max_width = width
    if not kinds:
        kind = "silent"
    elif len(kinds) == 2:
        kind = "mixed"
    else:
        kind = kinds.pop()
    return RoundShape(
        kind=kind,
        messages=len(record.sends),
        max_width=max_width,
        total_bits=total,
    )


def trace_structure(
    program: Any,
    inputs: Optional[List[Any]],
    network_kwargs: Dict[str, Any],
    seed: int = 0,
) -> ProtocolStructure:
    """Observe a generator program's round structure through one
    transcript-recording run on the legacy reference engine.

    The recording network is the tracing stub: the legacy engine
    delivers every message through the reference scalar path, and the
    traced network is fresh per call, so tracing never touches any
    caller's network state.
    """
    from repro.core.network import Network

    kwargs = dict(network_kwargs)
    kwargs.pop("engine", None)
    kwargs.pop("record_transcript", None)
    kwargs.setdefault("seed", seed)
    network = Network(engine="legacy", record_transcript=True, **kwargs)
    result = network.run(program, inputs=inputs)
    rounds = [_shape_from_record(record) for record in result.transcript]
    return ProtocolStructure(source="traced", rounds=rounds)
