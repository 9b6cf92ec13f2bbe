"""The engine subsystem: planner dispatch, capability flags, the
``engine=`` shim, and per-backend front-door validation."""

import pytest

from repro.core.bits import Bits
from repro.core.engine import (
    ENGINES,
    FAST_ENGINE,
    KERNEL_ENGINE,
    LEGACY_ENGINE,
    Engine,
    ExecutionPlanner,
    KernelEngine,
    LegacyEngine,
    resolve_engine,
)
from repro.core.errors import ProtocolError
from repro.core.network import Mode, Network, Outbox
from repro.core.phases import (
    transmit_broadcast_kernel_program,
    transmit_unicast,
)


def echo_program(ctx):
    """One fixed-width round: node v sends v to every neighbour."""
    dests = [u for u in range(ctx.n) if u != ctx.node_id]
    inbox = yield Outbox.fixed_width(dests, [ctx.node_id] * len(dests), 8)
    return sorted(inbox.uint_items())


def result_tuple(result):
    return (
        result.outputs,
        result.rounds,
        result.total_bits,
        result.max_round_bits,
    )


def broadcast_kernel_program(n):
    width = 8
    payloads = [Bits(v, width) for v in range(n)]
    program = transmit_broadcast_kernel_program(
        n, width, list(range(n)), max_bits=width
    )
    return program, payloads


class TestPlannerDispatch:
    def test_default_network_selects_fast(self):
        network = Network(n=4, bandwidth=8)
        assert network._planner.plan(network, echo_program) is FAST_ENGINE

    def test_shim_selects_matching_engine(self):
        # The engine="..." kwarg is a deprecation shim over the planner:
        # each historical string must pin exactly the matching backend.
        for name, expected in (("fast", FAST_ENGINE), ("legacy", LEGACY_ENGINE)):
            network = Network(n=4, bandwidth=8, engine=name)
            label, engine = network._planner.explain(network, echo_program)
            assert engine is expected
            assert label == "requested"

    def test_auto_and_none_let_planner_default(self):
        for value in ("auto", None):
            network = Network(n=4, bandwidth=8, engine=value)
            label, engine = network._planner.explain(network, echo_program)
            assert engine is FAST_ENGINE
            assert label == "default"

    def test_kernel_program_routes_to_kernel_engine(self):
        program, _ = broadcast_kernel_program(4)
        for shim in ("fast", "legacy", "auto"):
            network = Network(
                n=4, bandwidth=8, mode=Mode.BROADCAST, engine=shim
            )
            label, engine = network._planner.explain(network, program)
            assert engine is KERNEL_ENGINE
            assert label == "kernel-program"

    def test_engine_instance_is_honoured(self):
        class TracingEngine(LegacyEngine):
            name = "tracing"
            calls = 0

            def _run(self, network, program, inputs):
                type(self).calls += 1
                return super()._run(network, program, inputs)

        backend = TracingEngine()
        network = Network(n=4, bandwidth=8, engine=backend)
        assert network._planner.plan(network, echo_program) is backend
        result = network.run(echo_program)
        assert backend.calls == 1
        reference = Network(n=4, bandwidth=8, engine="legacy").run(echo_program)
        assert result_tuple(result) == result_tuple(reference)

    def test_kernel_capable_instance_keeps_kernel_programs(self):
        class MyKernelEngine(KernelEngine):
            name = "my-kernel"

        backend = MyKernelEngine()
        program, _ = broadcast_kernel_program(4)
        network = Network(n=4, bandwidth=8, mode=Mode.BROADCAST, engine=backend)
        assert network._planner.plan(network, program) is backend

    def test_unknown_engine_string_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            Network(n=4, bandwidth=8, engine="warp")
        with pytest.raises(ValueError, match="unknown engine"):
            resolve_engine("warp")

    def test_registry_contents(self):
        assert set(ENGINES) == {"legacy", "fast", "kernel"}
        assert all(isinstance(engine, Engine) for engine in ENGINES.values())

    def test_custom_table_wins(self):
        planner = ExecutionPlanner(
            [("always-legacy", lambda network, program: LEGACY_ENGINE)]
        )
        network = Network(n=4, bandwidth=8)
        assert planner.plan(network, echo_program) is LEGACY_ENGINE


class TestCapabilityFlags:
    def test_flag_matrix(self):
        assert LEGACY_ENGINE.supports_generator_programs
        assert not LEGACY_ENGINE.supports_kernel_programs
        assert FAST_ENGINE.supports_generator_programs
        assert not FAST_ENGINE.supports_kernel_programs
        assert KERNEL_ENGINE.supports_kernel_programs
        assert not KERNEL_ENGINE.supports_generator_programs

    def test_legacy_engine_rejects_kernel_programs(self):
        program, payloads = broadcast_kernel_program(4)
        network = Network(n=4, bandwidth=8, mode=Mode.BROADCAST, engine="legacy")
        with pytest.raises(ProtocolError, match="cannot execute kernel"):
            LEGACY_ENGINE.run(network, program, payloads)
        with pytest.raises(ProtocolError, match="cannot execute kernel"):
            LEGACY_ENGINE.run_many(network, program, [payloads])
        # ...but the planner routes the same program to the kernel
        # backend even on a legacy-pinned network (pinned behaviour: a
        # kernel program IS its own semantics).
        result = network.run(program, inputs=payloads)
        assert [bits.to_uint() for bits in result.outputs[0].values()]

    def test_fast_engine_rejects_kernel_programs(self):
        program, payloads = broadcast_kernel_program(4)
        network = Network(n=4, bandwidth=8, mode=Mode.BROADCAST)
        with pytest.raises(ProtocolError, match="cannot execute kernel"):
            FAST_ENGINE.run(network, program, payloads)

    def test_kernel_engine_rejects_generator_programs(self):
        network = Network(n=4, bandwidth=8)
        with pytest.raises(ProtocolError, match="only executes kernel"):
            KERNEL_ENGINE.run(network, echo_program)


class TestFrontDoorValidation:
    def test_run_many_validates_input_lengths_on_every_backend(self):
        n = 4
        good = [None] * n
        bad = [None] * (n - 1)

        def generator_case(engine):
            network = Network(n=n, bandwidth=8, engine=engine)
            return network, echo_program, [good, bad]

        for engine in ("legacy", "fast"):
            network, program, inputs_list = generator_case(engine)
            with pytest.raises(ProtocolError, match="inputs for"):
                network.run_many(program, inputs_list)
            with pytest.raises(ProtocolError, match="inputs for"):
                network.run(program, inputs=bad)

        program, payloads = broadcast_kernel_program(n)
        network = Network(n=n, bandwidth=8, mode=Mode.BROADCAST, engine="kernel")
        with pytest.raises(ProtocolError, match="inputs for"):
            network.run_many(program, [payloads, payloads[:-1]])
        with pytest.raises(ProtocolError, match="inputs for"):
            network.run(program, inputs=payloads[:-1])

    def test_direct_engine_calls_validate_too(self):
        # The validation lives on Engine.run/run_many, not only on the
        # Network front door, so a custom caller cannot skip it.
        network = Network(n=4, bandwidth=8)
        with pytest.raises(ProtocolError, match="inputs for"):
            FAST_ENGINE.run(network, echo_program, [None] * 3)
        with pytest.raises(ProtocolError, match="inputs for"):
            LEGACY_ENGINE.run_many(network, echo_program, [[None] * 5])


class TestBackendEquivalenceSmoke:
    def test_all_backends_agree_on_phase_protocol(self):
        n, max_bits = 5, 12

        def program(ctx):
            payload = {
                v: Bits(ctx.node_id * 7 + v, max_bits)
                for v in range(n)
                if v != ctx.node_id
            }
            received = yield from transmit_unicast(ctx, payload, max_bits)
            return sorted((src, bits.to_uint()) for src, bits in received.items())

        results = {
            engine: Network(n=n, bandwidth=4, engine=engine).run(program)
            for engine in ("legacy", "fast")
        }
        reference = result_tuple(results["legacy"])
        assert result_tuple(results["fast"]) == reference
