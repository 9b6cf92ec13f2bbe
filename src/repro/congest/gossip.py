"""Gossip (flooding) over the input graph, and cut-bit accounting.

Theorem 19's CONGEST half rests on a cut argument: any protocol solving
H-detection over a δ-sparse lower-bound graph pushes all the
disjointness information through the N cut edges, so rounds >=
|E_F|/(cut·b).  This module supplies the *executable* counterpart:

* :func:`gossip_rows_program` — the generic CONGEST detection strategy
  (every node floods every adjacency row it learns until quiescence,
  then decides locally).  It is the CONGEST analogue of the trivial
  full-learning clique algorithm.
* :func:`cut_bits` — charge a recorded transcript against a vertex
  partition, measuring exactly the quantity the lower bound budgets.

Running the gossip detector on a Lemma 18 instance and measuring its
cut traffic demonstrates the inequality live: the measured cut bits
always dominate what the disjointness instance requires.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.core.bits import BitReader, Bits, BitWriter
from repro.core.network import Context, Mode, Network, Outbox, RunResult
from repro.graphs.graph import Graph
from repro.graphs.subgraph_iso import find_embedding

__all__ = ["gossip_rows_program", "gossip_detect", "cut_bits"]


def _parse_rows(payload: Bits, n: int) -> Iterable[Tuple[int, int]]:
    reader = BitReader(payload)
    entry = max(1, (n - 1).bit_length()) + n
    while reader.remaining >= entry:
        node = reader.read_uint(max(1, (n - 1).bit_length()))
        row = reader.read_uint(n)
        yield node, row


def gossip_rows_program(pattern: Graph, max_phases: Optional[int] = None):
    """Flood adjacency rows until everyone knows every reachable row,
    then search the reconstructed graph locally.

    ``ctx.input`` = this node's neighbour collection.  Each phase every
    node forwards the rows it newly learned (chunked to the bandwidth).
    After n phases every row has crossed every shortest path; nodes
    decide and halt.
    """

    def program(ctx: Context):
        n = ctx.n
        me = ctx.node_id
        my_row = 0
        for u in ctx.input:
            my_row |= 1 << u
        known: Dict[int, int] = {me: my_row}
        fresh: List[Tuple[int, int]] = [(me, my_row)]
        entry_bits = max(1, (n - 1).bit_length()) + n
        phases = max_phases if max_phases is not None else n

        for _phase in range(phases):
            # serialise the fresh rows once, then drip them out in
            # bandwidth-sized frames to every neighbour in lockstep.
            writer = BitWriter()
            for node, row in fresh:
                writer.write_uint(node, max(1, (n - 1).bit_length()))
                writer.write_uint(row, n)
            payload = writer.getvalue()
            fresh = []
            frames = payload.chunks(ctx.bandwidth) if len(payload) else []
            # all nodes agree on the phase length: the worst case is
            # every row fresh at once.
            worst = -(-(n * entry_bits) // ctx.bandwidth)
            received_parts: Dict[int, List[Bits]] = {}
            for r in range(worst):
                if r < len(frames):
                    outbox = Outbox.unicast(
                        {u: frames[r] for u in ctx.neighbors}
                    )
                else:
                    outbox = Outbox.silent()
                inbox = yield outbox
                for sender, frame in inbox.items():
                    received_parts.setdefault(sender, []).append(frame)
            for sender, parts in received_parts.items():
                for node, row in _parse_rows(Bits.concat(parts), n):
                    if node not in known:
                        known[node] = row
                        fresh.append((node, row))

        graph = Graph(n)
        for node, row in known.items():
            for u in range(n):
                if (row >> u) & 1 and node != u:
                    graph.add_edge(node, u)
        embedding = find_embedding(graph, pattern)
        return embedding is not None

    return program


def gossip_detect(
    graph: Graph,
    pattern: Graph,
    bandwidth: int,
    seed: int = 0,
    record_transcript: bool = True,
) -> Tuple[bool, RunResult]:
    """Run the gossip detector over ``graph``'s own edges."""
    topology = [sorted(graph.neighbors(v)) for v in range(graph.n)]
    network = Network(
        n=graph.n,
        bandwidth=bandwidth,
        mode=Mode.CONGEST,
        topology=topology,
        seed=seed,
        record_transcript=record_transcript,
    )
    inputs = [graph.neighbors(v) for v in range(graph.n)]
    result = network.run(
        gossip_rows_program(pattern, max_phases=graph.n), inputs=inputs
    )
    found = any(result.outputs)
    return found, result


def cut_bits(result: RunResult, side_a: Set[int]) -> int:
    """Bits that crossed the (A, V∖A) cut in a recorded transcript —
    the budget Theorem 19's CONGEST bound divides by."""
    if result.transcript is None:
        raise ValueError("run the network with record_transcript=True")
    total = 0
    for record in result.transcript:
        for sender, receiver, payload in record.sends:
            if receiver is None:
                raise ValueError("cut accounting expects unicast transcripts")
            if (sender in side_a) != (receiver in side_a):
                total += len(payload)
    return total
