"""Deterministic sorting on the congested clique (the other half of
Lenzen's routing-and-sorting toolbox [28]).

Problem: each of the n players holds n keys; after sorting, player i
must hold the i-th block of the global sorted order (keys of global
rank i·n .. (i+1)·n − 1).

Like the router (see :mod:`repro.routing.schedule`), we exploit that in
every use inside this paper the *multiset of keys' destinations* can be
made public knowledge cheaply: the protocol first publishes a histogram
sketch (each player announces how many of its keys fall in each block
boundary — boundaries are computed from a public all-to-all sample),
then routes keys with the O(1)-round balanced router, since every
player sends exactly n keys and receives exactly n keys.

The implementation below uses exact splitters computed from a public
broadcast of every player's local quantiles — Θ(n·log U) blackboard
bits, constant rounds at bandwidth Θ(n^ε)… in engine terms we simply
run: (1) a broadcast phase publishing each player's sorted local keys'
block counts against candidate splitters, (2) the balanced routing
phase.  The round count is O(1) phases, each of O(keys·bits/(n·b))
rounds — the [28] sorting guarantee at our router's level of
abstraction (README "Departures from the paper" #1 applies verbatim).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.core.bits import BitReader, BitWriter
from repro.core.network import Context, Mode, Network, RunResult
from repro.core.phases import transmit_broadcast
from repro.routing.lenzen import payload_demand, route_payloads
from repro.routing.schedule import build_schedule

__all__ = ["sort_protocol", "clique_sort"]


def sort_protocol(keys_per_player: int, key_bits: int):
    """Node program: ``ctx.input`` is this player's list of keys (ints
    < 2^key_bits); returns this player's sorted output block.

    Phase A publishes every player's full sorted key list on the
    blackboard (keys_per_player · key_bits bits per player — the same
    Θ(n²·log U) total information any splitter-based scheme publishes
    in aggregate, kept simple here because the engine charges it
    honestly).  All players then know the global order and compute the
    destination of every key; phase B routes the keys point-to-point
    with the balanced router (each player sends and receives exactly
    keys_per_player keys — a balanced demand).
    """

    def program(ctx: Context):
        me = ctx.node_id
        n = ctx.n
        my_keys = sorted(ctx.input)
        if len(my_keys) != keys_per_player:
            raise ValueError("every player must hold exactly k keys")

        writer = BitWriter()
        for key in my_keys:
            writer.write_uint(key, key_bits)
        payload_bits = keys_per_player * key_bits
        received = yield from transmit_broadcast(
            ctx, writer.getvalue(), max_bits=payload_bits
        )
        all_keys: List[Tuple[int, int, int]] = []  # (key, owner, index)
        for idx, key in enumerate(my_keys):
            all_keys.append((key, me, idx))
        for sender, bits in received.items():
            reader = BitReader(bits)
            for idx in range(keys_per_player):
                all_keys.append((reader.read_uint(key_bits), sender, idx))
        all_keys.sort()

        # Destination of each key: global rank // keys_per_player.
        destination: Dict[Tuple[int, int], int] = {}
        lengths: Dict[Tuple[int, int], int] = {}
        for rank, (key, owner, idx) in enumerate(all_keys):
            dest = rank // keys_per_player
            destination[(owner, idx)] = dest
            if dest != owner:
                pair = (owner, dest)
                lengths[pair] = lengths.get(pair, 0) + key_bits

        payloads: Dict[int, BitWriter] = {}
        kept: List[int] = []
        for idx, key in enumerate(my_keys):
            dest = destination[(me, idx)]
            if dest == me:
                kept.append(key)
            else:
                payloads.setdefault(dest, BitWriter()).write_uint(key, key_bits)
        schedule = build_schedule(payload_demand(lengths, ctx.bandwidth), n)
        received_keys = yield from route_payloads(
            ctx,
            lengths,
            {dest: w.getvalue() for dest, w in payloads.items()},
            ctx.bandwidth,
            schedule,
        )
        block = list(kept)
        for _sender, bits in received_keys.items():
            reader = BitReader(bits)
            while reader.remaining >= key_bits:
                block.append(reader.read_uint(key_bits))
        return sorted(block)

    return program


def clique_sort(
    key_lists: Sequence[Sequence[int]],
    key_bits: int,
    bandwidth: int,
    seed: int = 0,
) -> Tuple[List[List[int]], RunResult]:
    """Sort n·k keys across n players; returns (blocks, engine result)."""
    n = len(key_lists)
    k = len(key_lists[0])
    # Sorting lives in CLIQUE-UCAST ([28]); the protocol's broadcast
    # phase is emulated by fanning identical frames out on every link,
    # which costs exactly the same number of rounds.
    network = Network(n=n, bandwidth=bandwidth, mode=Mode.UNICAST, seed=seed)

    def driver(ctx: Context):
        result = yield from _adapt_broadcast(ctx, sort_protocol(k, key_bits))
        return result

    result = network.run(driver, inputs=[list(keys) for keys in key_lists])
    return list(result.outputs), result


def _adapt_broadcast(ctx: Context, program_factory):
    """Drive a program written with broadcast phases on a unicast clique
    by fanning identical frames out on every link (same round count)."""
    from repro.core.network import Outbox

    inner = program_factory(ctx)
    try:
        outbox = next(inner)
    except StopIteration as stop:
        return stop.value
    while True:
        if outbox is not None:
            if outbox.kind == "broadcast":
                outbox = Outbox.unicast(
                    {u: outbox.payload for u in ctx.neighbors}
                )
            elif outbox.kind == "bfixed":
                # A fixed-width broadcast fans out as a fixed-width
                # unicast, which rides the engine's unicast bulk lane.
                outbox = Outbox.fixed_width_map(
                    {u: outbox.values for u in ctx.neighbors}, outbox.width
                )
        inbox = yield outbox
        try:
            outbox = inner.send(inbox)
        except StopIteration as stop:
            return stop.value
