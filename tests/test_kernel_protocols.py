"""Kernel forms of the migrated protocols vs their generator reference
implementations — byte-identical RunResults, seeded fuzz."""

from __future__ import annotations

import random

import pytest

from repro.core.bits import Bits
from repro.core.network import Mode, Network
from repro.core.phases import (
    transmit_broadcast,
    transmit_broadcast_kernel_program,
    transmit_unicast,
    transmit_unicast_kernel_program,
)
from repro.graphs import random_graph
from repro.matmul.distributed import detect_triangle_mm, detect_triangle_mm_many
from repro.routing.lenzen import route_kernel_program, route_program
from repro.routing.schedule import build_schedule
from repro.simulation.protocol import simulate_circuit_many


def result_tuple(result):
    return (
        result.rounds,
        result.total_bits,
        result.max_round_bits,
        result.outputs,
    )


def assert_equivalent(generator_results, kernel_results):
    assert len(generator_results) == len(kernel_results)
    for expected, got in zip(generator_results, kernel_results):
        assert result_tuple(got) == result_tuple(expected)


class TestTransmitUnicastKernel:
    def make_case(self, seed, bandwidth, max_bits, n=9):
        rng = random.Random(seed)
        links = [
            (src, dst)
            for src in range(n)
            for dst in range(n)
            if src != dst and rng.random() < 0.4
        ]

        def make_inputs(instance):
            r = random.Random(seed * 100 + instance)
            per_node = [dict() for _ in range(n)]
            for src, dst in links:
                length = r.randint(0, max_bits)
                per_node[src][dst] = Bits(
                    r.getrandbits(length) if length else 0, length
                )
            return per_node

        return n, links, [make_inputs(k) for k in range(3)]

    @pytest.mark.parametrize(
        "seed,bandwidth,max_bits",
        [(1, 8, 40), (2, 16, 5), (3, 70, 150), (4, 5, 0)],
    )
    def test_matches_generator(self, seed, bandwidth, max_bits):
        n, links, inputs_list = self.make_case(seed, bandwidth, max_bits)

        def gen_program(ctx):
            received = yield from transmit_unicast(
                ctx, ctx.input or {}, max_bits
            )
            return received

        kernel_program = transmit_unicast_kernel_program(
            n, bandwidth, links, max_bits
        )
        gnet = Network(n=n, bandwidth=bandwidth)
        knet = Network(n=n, bandwidth=bandwidth)
        assert_equivalent(
            [gnet.run(gen_program, inputs) for inputs in inputs_list],
            knet.run_many(kernel_program, inputs_list),
        )

    def test_empty_links_still_runs_the_phase(self):
        n, bandwidth, max_bits = 4, 8, 20
        kernel_program = transmit_unicast_kernel_program(
            n, bandwidth, [], max_bits
        )

        def gen_program(ctx):
            received = yield from transmit_unicast(ctx, {}, max_bits)
            return received

        expected = Network(n=n, bandwidth=bandwidth).run(gen_program)
        got = Network(n=n, bandwidth=bandwidth).run(
            kernel_program, [dict() for _ in range(n)]
        )
        assert result_tuple(got) == result_tuple(expected)
        assert got.rounds > 0 and got.total_bits == 0


class TestTransmitBroadcastKernel:
    @pytest.mark.parametrize(
        "seed,bandwidth,max_bits", [(1, 8, 40), (2, 16, 3), (3, 80, 130)]
    )
    def test_matches_generator(self, seed, bandwidth, max_bits):
        rng = random.Random(seed)
        n = 8
        writers = [v for v in range(n) if rng.random() < 0.7]

        def make_inputs(instance):
            r = random.Random(seed * 31 + instance)
            per_node = [None] * n
            for w in writers:
                length = r.randint(0, max_bits)
                per_node[w] = Bits(
                    r.getrandbits(length) if length else 0, length
                )
            return per_node

        inputs_list = [make_inputs(k) for k in range(3)]

        def gen_program(ctx):
            received = yield from transmit_broadcast(ctx, ctx.input, max_bits)
            return received

        kernel_program = transmit_broadcast_kernel_program(
            n, bandwidth, writers, max_bits
        )
        gnet = Network(n=n, bandwidth=bandwidth, mode=Mode.BROADCAST)
        knet = Network(n=n, bandwidth=bandwidth, mode=Mode.BROADCAST)
        assert_equivalent(
            [gnet.run(gen_program, inputs) for inputs in inputs_list],
            knet.run_many(kernel_program, inputs_list),
        )


class TestRoutingKernel:
    @pytest.mark.parametrize("seed,n,density", [(1, 10, 0.3), (2, 16, 0.7), (3, 6, 1.0)])
    def test_matches_generator(self, seed, n, density):
        rng = random.Random(seed)
        frame_size = 16
        demand = {}
        for src in range(n):
            for dst in range(n):
                if src != dst and rng.random() < density:
                    demand[(src, dst)] = rng.randint(1, 4)
        schedule = build_schedule(demand, n)
        gen_program = route_program(schedule, frame_size)
        kernel_program = route_kernel_program(schedule, frame_size)

        def make_inputs(instance):
            r = random.Random(seed * 7 + instance)
            per_node = [dict() for _ in range(n)]
            for (src, dst), count in demand.items():
                for idx in range(count):
                    per_node[src][(src, dst, idx)] = r.getrandbits(frame_size)
            return per_node

        inputs_list = [make_inputs(k) for k in range(3)]
        gnet = Network(n=n, bandwidth=frame_size)
        knet = Network(n=n, bandwidth=frame_size)
        assert_equivalent(
            gnet.run_many(gen_program, inputs_list),
            knet.run_many(kernel_program, inputs_list),
        )

    def test_wide_frames_ride_byte_rows(self):
        n, frame_size = 6, 80
        demand = {(v, (v + 1) % n): 2 for v in range(n)}
        schedule = build_schedule(demand, n)
        gen_program = route_program(schedule, frame_size)
        kernel_program = route_kernel_program(schedule, frame_size)
        rng = random.Random(9)
        inputs = [dict() for _ in range(n)]
        for (src, dst), count in demand.items():
            for idx in range(count):
                inputs[src][(src, dst, idx)] = rng.getrandbits(frame_size)
        expected = Network(n=n, bandwidth=frame_size).run(gen_program, inputs)
        got = Network(n=n, bandwidth=frame_size).run(kernel_program, inputs)
        assert result_tuple(got) == result_tuple(expected)


class TestSimulationKernel:
    def test_random_circuits_match(self):
        from repro.circuits.gates import (
            AND,
            NOT,
            OR,
            XOR,
            MajorityGate,
            ModGate,
            ThresholdGate,
        )
        from repro.circuits.circuit import Circuit

        rng = random.Random(13)
        for _trial in range(3):
            circuit = Circuit()
            pool = list(circuit.add_inputs(18))
            pool.append(circuit.add_const(True))
            for _ in range(40):
                kind = rng.randrange(6)
                if kind == 0:
                    gate, fan = AND, rng.randint(1, 5)
                elif kind == 1:
                    gate, fan = OR, rng.randint(1, 5)
                elif kind == 2:
                    gate, fan = NOT, 1
                elif kind == 3:
                    gate, fan = XOR, rng.randint(1, 6)
                elif kind == 4:
                    gate, fan = ModGate(rng.randint(2, 4)), rng.randint(1, 5)
                else:
                    fan = rng.randint(1, 6)
                    gate = (
                        MajorityGate(fan)
                        if rng.random() < 0.5
                        else ThresholdGate(rng.randint(0, fan))
                    )
                gid = circuit.add_gate(
                    gate, [rng.choice(pool) for _ in range(fan)]
                )
                pool.append(gid)
                if rng.random() < 0.3:
                    circuit.mark_output(gid)
            if not circuit.outputs:
                circuit.mark_output(pool[-1])
            n = rng.choice([5, 8])
            inputs_list = [
                [rng.random() < 0.5 for _ in range(circuit.num_inputs)]
                for _ in range(3)
            ]
            expected_outputs, expected_results, plan = simulate_circuit_many(
                circuit, n, inputs_list
            )
            kernel_outputs, kernel_results, _plan = simulate_circuit_many(
                circuit, n, inputs_list, plan=plan, kernel=True
            )
            assert kernel_outputs == expected_outputs
            assert_equivalent(expected_results, kernel_results)
            for values, outputs in zip(inputs_list, kernel_outputs):
                truth = circuit.evaluate(values)
                assert all(truth[g] == v for g, v in outputs.items())


class TestTriangleMMKernel:
    @pytest.mark.parametrize("circuit_kind", ["naive", "strassen"])
    def test_matches_generator(self, circuit_kind):
        graphs = [
            random_graph(9, p, random.Random(s))
            for s, p in [(1, 0.0), (2, 0.25), (3, 0.6)]
        ]
        expected_outcomes, expected_results, plan = detect_triangle_mm_many(
            graphs, trials=3, circuit_kind=circuit_kind
        )
        kernel_outcomes, kernel_results, _plan = detect_triangle_mm_many(
            graphs, trials=3, circuit_kind=circuit_kind, plan=plan, kernel=True
        )
        assert kernel_outcomes == expected_outcomes
        assert_equivalent(expected_results, kernel_results)

    def test_single_run_path(self):
        graph = random_graph(8, 0.4, random.Random(17))
        expected, expected_result, plan = detect_triangle_mm(
            graph, trials=2, circuit_kind="naive"
        )
        got, got_result, _plan = detect_triangle_mm(
            graph, trials=2, circuit_kind="naive", plan=plan, kernel=True
        )
        assert got == expected
        assert result_tuple(got_result) == result_tuple(expected_result)
