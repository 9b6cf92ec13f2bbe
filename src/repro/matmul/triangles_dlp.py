"""Deterministic triangle detection à la Dolev–Lenzen–Peled [8].

The paper repeatedly benchmarks against [8]'s triangle algorithm, so we
implement its deterministic core as a baseline: partition the vertices
into g ≈ n^{1/3} groups, assign each of the ~g³/6 group-*multisets*
{a,b,c} to a player, ship the three bipartite adjacency blocks to that
player (Θ((n/g)²) bits each), and let it search its block triple
locally.  Every triangle lives in exactly one group multiset, so
coverage is exhaustive and the algorithm is deterministic.

Per-player traffic is Θ(n^{4/3}) bits, received over n links of
bandwidth b — Θ(n^{1/3}·⌈log n per frame⌉/b) rounds, reproducing the
Õ(n^{1/3}) headline of [8] (the T-triangles speedup of [8] is
randomized and out of scope; see README "Departures from the paper"
#5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.bits import Bits
from repro.core.network import Mode, Network, RunResult
from repro.core.phases import transmit_unicast
from repro.graphs.graph import Graph
from repro.routing.lenzen import payload_demand, route_payloads
from repro.routing.schedule import build_schedule

__all__ = [
    "DLPOutcome",
    "dlp_plan",
    "detect_triangle_dlp",
    "count_triangles_dlp",
]


@dataclass(frozen=True)
class DLPOutcome:
    found: bool
    witness: Optional[Tuple[int, int, int]]
    group_count: int


def _groups(n: int, g: int) -> List[range]:
    base, extra = divmod(n, g)
    out = []
    start = 0
    for i in range(g):
        size = base + (1 if i < extra else 0)
        out.append(range(start, start + size))
        start += size
    return out


@dataclass
class _Plan:
    n: int
    g: int
    groups: List[range]
    group_of: List[int]
    triples: List[Tuple[int, int, int]]
    owner_of_triple: List[int]
    # pairs (a, b) with a <= b needed by player p
    pairs_by_owner: Dict[int, List[Tuple[int, int]]]
    # (v, p) -> ordered pairs for which v ships its slice to p
    send_pairs: Dict[Tuple[int, int], List[Tuple[int, int]]]
    lengths: Dict[Tuple[int, int], int]


def dlp_plan(n: int, group_count: Optional[int] = None) -> _Plan:
    g = group_count or max(1, round(n ** (1.0 / 3.0)))
    g = min(g, n)
    groups = _groups(n, g)
    group_of = [0] * n
    for gi, rng in enumerate(groups):
        for v in rng:
            group_of[v] = gi
    triples = [
        (a, b, c)
        for a in range(g)
        for b in range(a, g)
        for c in range(b, g)
    ]
    owner_of_triple = [t % n for t in range(len(triples))]
    pairs_by_owner: Dict[int, set] = {}
    for t, (a, b, c) in enumerate(triples):
        p = owner_of_triple[t]
        pairs = pairs_by_owner.setdefault(p, set())
        pairs.add((a, b))
        pairs.add((a, c))
        pairs.add((b, c))
    pairs_sorted = {p: sorted(pairs) for p, pairs in pairs_by_owner.items()}
    send_pairs: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
    lengths: Dict[Tuple[int, int], int] = {}
    for p, pairs in pairs_sorted.items():
        for a, b in pairs:
            for v in groups[a]:
                if v == p:
                    continue
                key = (v, p)
                send_pairs.setdefault(key, []).append((a, b))
                lengths[key] = lengths.get(key, 0) + len(groups[b])
    return _Plan(
        n=n,
        g=g,
        groups=groups,
        group_of=group_of,
        triples=triples,
        owner_of_triple=owner_of_triple,
        pairs_by_owner=pairs_sorted,
        send_pairs=send_pairs,
        lengths=lengths,
    )


def _slice_bits(row: List[int], members: range) -> Bits:
    return Bits.from_bools([bool(row[u]) for u in members])


def _slice_mask(row: List[int], members: range) -> int:
    """Adjacency mask with member index i at bit i (LSB-first)."""
    mask = 0
    for i, u in enumerate(members):
        if row[u]:
            mask |= 1 << i
    return mask


def _bits_to_mask(bits: Bits) -> int:
    """Convert an MSB-first Bits slice to an index-i-at-bit-i mask."""
    mask = 0
    for i, bit in enumerate(bits):
        if bit:
            mask |= 1 << i
    return mask


def detect_triangle_dlp(
    graph: Graph,
    bandwidth: int,
    group_count: Optional[int] = None,
    seed: int = 0,
) -> Tuple[DLPOutcome, RunResult]:
    """Run the deterministic group-triple algorithm on CLIQUE-UCAST."""
    n = graph.n
    plan = dlp_plan(n, group_count)
    schedule = build_schedule(payload_demand(plan.lengths, bandwidth), n)
    vertex_bits = max(1, (max(1, n - 1)).bit_length())
    report_len = 1 + 3 * vertex_bits

    def program(ctx):
        me = ctx.node_id
        row = [1 if u in ctx.input else 0 for u in range(n)]

        payloads = {}
        for (v, p), pairs in plan.send_pairs.items():
            if v != me:
                continue
            parts = [_slice_bits(row, plan.groups[b]) for (_a, b) in pairs]
            payloads[p] = Bits.concat(parts)
        received = yield from route_payloads(
            ctx, plan.lengths, payloads, bandwidth, schedule
        )
        # Rebuild the slices addressed to me: slice_to[(v, b)] = int mask
        # over group b's members (bit i = member groups[b][i]).
        slice_to: Dict[Tuple[int, int], int] = {}

        def store(v: int, pairs: List[Tuple[int, int]], bits: Bits) -> None:
            offset = 0
            for _a, b in pairs:
                width = len(plan.groups[b])
                slice_to[(v, b)] = _bits_to_mask(bits[offset : offset + width])
                offset += width

        for v, bits in received.items():
            store(v, plan.send_pairs[(v, me)], bits)
        # My own slices (I might own triples touching my own group).
        my_pairs = plan.pairs_by_owner.get(me, [])
        for a, b in my_pairs:
            if plan.group_of[me] == a:
                slice_to[(me, b)] = _slice_mask(row, plan.groups[b])

        found: Optional[Tuple[int, int, int]] = None
        for t, (a, b, c) in enumerate(plan.triples):
            if plan.owner_of_triple[t] != me or found:
                continue
            members_b = list(plan.groups[b])
            members_c = list(plan.groups[c])
            for u in plan.groups[a]:
                mask_ub = slice_to.get((u, b), 0)
                mask_uc = slice_to.get((u, c), 0)
                if not mask_ub or not mask_uc:
                    continue
                for i, w in enumerate(members_b):
                    if w == u or not (mask_ub >> i) & 1:
                        continue
                    common = mask_uc & slice_to.get((w, c), 0)
                    if w in plan.groups[c]:
                        # avoid counting w itself as the third vertex
                        wi = w - plan.groups[c][0]
                        common &= ~(1 << wi)
                    if u in plan.groups[c]:
                        ui = u - plan.groups[c][0]
                        common &= ~(1 << ui)
                    if common:
                        x = members_c[(common & -common).bit_length() - 1]
                        found = tuple(sorted((u, w, x)))
                        break
                if found:
                    break

        # Aggregate at player 0.
        if me != 0:
            if found is None:
                payload = Bits.zeros(report_len)
            else:
                payload = Bits.concat(
                    [Bits.from_uint(1, 1)]
                    + [Bits.from_uint(x, vertex_bits) for x in found]
                )
            yield from transmit_unicast(ctx, {0: payload}, max_bits=report_len)
            return DLPOutcome(found is not None, found, plan.g)
        reports = yield from transmit_unicast(ctx, {}, max_bits=report_len)
        witness = found
        for _sender, payload in sorted(reports.items()):
            if payload[0] == 1 and witness is None:
                values = [
                    payload[1 + i * vertex_bits : 1 + (i + 1) * vertex_bits].to_uint()
                    for i in range(3)
                ]
                witness = tuple(values)  # type: ignore[assignment]
        return DLPOutcome(witness is not None, witness, plan.g)

    network = Network(n=n, bandwidth=bandwidth, mode=Mode.UNICAST, seed=seed)
    inputs = [graph.neighbors(v) for v in range(n)]
    result = network.run(program, inputs=inputs)
    return result.outputs[0], result


def count_triangles_dlp(
    graph: Graph,
    bandwidth: int,
    group_count: Optional[int] = None,
    seed: int = 0,
) -> Tuple[int, RunResult]:
    """Exact global triangle *count* with the same group-triple data
    movement (an extension feature: [8] counts as well as detects).

    Each triple owner counts the triangles whose vertex-sorted group
    signature equals its triple — every triangle is counted exactly once
    because group ranges are consecutive, so u < w < x sorts groups too.
    Counts converge at player 0 in one unicast phase of O(log n³) bits.
    """
    n = graph.n
    plan = dlp_plan(n, group_count)
    schedule = build_schedule(payload_demand(plan.lengths, bandwidth), n)
    count_bits = max(1, (n * n * n).bit_length())

    def program(ctx):
        me = ctx.node_id
        row = [1 if u in ctx.input else 0 for u in range(n)]
        payloads = {}
        for (v, p), pairs in plan.send_pairs.items():
            if v != me:
                continue
            parts = [_slice_bits(row, plan.groups[b]) for (_a, b) in pairs]
            payloads[p] = Bits.concat(parts)
        received = yield from route_payloads(
            ctx, plan.lengths, payloads, bandwidth, schedule
        )
        slice_to: Dict[Tuple[int, int], int] = {}
        for v, bits in received.items():
            offset = 0
            for _a, b in plan.send_pairs[(v, me)]:
                width = len(plan.groups[b])
                slice_to[(v, b)] = _bits_to_mask(bits[offset : offset + width])
                offset += width
        for a, b in plan.pairs_by_owner.get(me, []):
            if plan.group_of[me] == a:
                slice_to[(me, b)] = _slice_mask(row, plan.groups[b])

        local_count = 0
        for t, (a, b, c) in enumerate(plan.triples):
            if plan.owner_of_triple[t] != me:
                continue
            members_b = list(plan.groups[b])
            start_c = plan.groups[c][0]
            for u in plan.groups[a]:
                mask_ub = slice_to.get((u, b), 0)
                mask_uc = slice_to.get((u, c), 0)
                if not mask_ub or not mask_uc:
                    continue
                for i, w in enumerate(members_b):
                    if w <= u or not (mask_ub >> i) & 1:
                        continue
                    common = mask_uc & slice_to.get((w, c), 0)
                    # enforce x > w so each triangle is counted once
                    min_x_index = w - start_c + 1 if w >= start_c else 0
                    if min_x_index > 0:
                        common &= ~((1 << min_x_index) - 1)
                    elif w + 1 > start_c:
                        common &= ~((1 << (w + 1 - start_c)) - 1)
                    local_count += bin(common).count("1")

        # Aggregate exact counts at player 0.
        if me != 0:
            yield from transmit_unicast(
                ctx,
                {0: Bits.from_uint(local_count, count_bits)},
                max_bits=count_bits,
            )
            return local_count
        received = yield from transmit_unicast(ctx, {}, max_bits=count_bits)
        total = local_count + sum(
            payload.to_uint() for _s, payload in received.items()
        )
        return total

    network = Network(n=n, bandwidth=bandwidth, mode=Mode.UNICAST, seed=seed)
    inputs = [graph.neighbors(v) for v in range(n)]
    result = network.run(program, inputs=inputs)
    return result.outputs[0], result
