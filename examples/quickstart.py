"""Quickstart: write and run your own congested-clique protocol.

The engine runs one generator per node: ``yield`` an Outbox to end the
round, receive an Inbox, return your output.  This example computes the
maximum of the players' inputs in the broadcast clique, one b-bit chunk
at a time, and reports the exact round/bit costs the engine measured —
then runs the same protocol a third way, as a *kernel program* (no
generators at all: one numpy operation per round for every node).

Run:  python examples/quickstart.py
"""

from __future__ import annotations

from repro.core import (
    Bits,
    KernelBuilder,
    Mode,
    Network,
    Outbox,
    run_protocol,
    transmit_broadcast,
)


def max_protocol(value_bits: int):
    """Every node broadcasts its value; everyone outputs the maximum."""

    def program(ctx):
        payload = Bits.from_uint(ctx.input, value_bits)
        received = yield from transmit_broadcast(ctx, payload, max_bits=value_bits)
        values = {ctx.node_id: ctx.input}
        for sender, bits in received.items():
            values[sender] = bits.to_uint()
        return max(values.values())

    return program


def bit_by_bit_tournament():
    """A lower-level protocol using raw rounds: nodes announce whether
    they are still in the running for the maximum, one bit per round,
    scanning value bits from the most significant down."""

    def program(ctx):
        value_bits = 8
        alive = True
        survivors = set(range(ctx.n))
        for position in reversed(range(value_bits)):
            my_bit = (ctx.input >> position) & 1
            announce = 1 if (alive and my_bit) else 0
            inbox = yield Outbox.broadcast(Bits.from_uint(announce, 1))
            ones = {s for s, m in inbox.items() if m.to_uint() == 1}
            if announce:
                ones.add(ctx.node_id)
            if ones:
                survivors &= ones
                if alive and not (my_bit or ctx.node_id in ones):
                    pass
                alive = alive and my_bit
        # the surviving nodes all hold the maximum; everyone knows it is
        # reconstructible from the transcript, but for simplicity the
        # survivors announce one more time.
        inbox = yield Outbox.broadcast(
            Bits.from_uint(1 if alive else 0, 1)
        )
        winner = ctx.node_id if alive else min(
            s for s, m in inbox.items() if m.to_uint() == 1
        )
        return winner

    return program


def max_kernel_program(n: int, value_bits: int, bandwidth: int):
    """The kernel form of :func:`max_protocol`: the round structure
    (everyone broadcasts ``value_bits`` in ``bandwidth``-bit chunks) is
    declared up front, and each round is one vectorized send/receive
    over all nodes — zero generator resumptions.  Same rounds, same
    bits, same outputs."""
    import numpy as np

    rounds = -(-value_bits // bandwidth)  # chunks, most significant first
    builder = KernelBuilder(n, Mode.BROADCAST)
    writers = list(range(n))

    def init(state, kctx):
        values = np.asarray(kctx.inputs_list, dtype=np.uint64)  # (K, n)
        state["chunks"] = [
            (values >> np.uint64(shift)) & np.uint64((1 << bandwidth) - 1)
            for shift in range(bandwidth * (rounds - 1), -1, -bandwidth)
        ]
        state["acc"] = np.zeros_like(values)

    builder.on_init(init)
    for r in range(rounds):

        def send(state, _r=r):
            return state["chunks"][_r]

        def recv(state, delivered):
            # Reassemble every writer's value chunk by chunk from the
            # blackboard, for all instances at once.
            state["acc"] = (state["acc"] << np.uint64(bandwidth)) | delivered

        builder.broadcast_round(writers, bandwidth, send, recv)

    def finish(state, kctx):
        best = state["acc"].max(axis=1)
        return [[int(best[k])] * n for k in range(kctx.instances)]

    return builder.build(finish, name="max_kernel")


def main() -> None:
    inputs = [23, 7, 200, 143, 56, 99, 180, 31]
    n = len(inputs)

    print("=== CLIQUE-BCAST(n=8, b=3): maximum via one broadcast phase ===")
    result = run_protocol(
        max_protocol(8), n=n, bandwidth=3, mode=Mode.BROADCAST, inputs=inputs
    )
    print(f"inputs        : {inputs}")
    print(f"outputs       : {result.outputs}")
    print(f"rounds        : {result.rounds}  (8-bit payloads in 3-bit chunks)")
    print(f"blackboard bits: {result.total_bits}")
    assert all(out == max(inputs) for out in result.outputs)

    print()
    print("=== same task, bit-by-bit elimination (1 bit per round) ===")
    result2 = run_protocol(
        bit_by_bit_tournament(), n=n, bandwidth=1, mode=Mode.BROADCAST,
        inputs=inputs,
    )
    winner = inputs.index(max(inputs))
    print(f"winning node  : {result2.outputs[0]} (expected {winner})")
    print(f"rounds        : {result2.rounds}")
    assert all(out == winner for out in result2.outputs)

    print()
    print("=== same task as a kernel program (zero generator steps) ===")
    network = Network(n=n, bandwidth=3, mode=Mode.BROADCAST)
    kernel = max_kernel_program(n, value_bits=8, bandwidth=3)
    result3 = network.run(kernel, inputs=inputs)
    print(f"outputs       : {result3.outputs}")
    print(f"rounds        : {result3.rounds}  (8-bit values in 3-bit chunks)")
    print(f"blackboard bits: {result3.total_bits}")
    assert all(out == max(inputs) for out in result3.outputs)
    # And a whole sweep of instances through the same compiled rounds:
    sweep = network.run_many(kernel, [inputs, sorted(inputs), inputs[::-1]])
    assert all(r.outputs[0] == max(inputs) for r in sweep)
    print(f"run_many sweep : 3 instances, rounds {[r.rounds for r in sweep]}")

    print()
    print("All three protocols agree; the engine enforced every bandwidth limit.")


if __name__ == "__main__":
    main()
