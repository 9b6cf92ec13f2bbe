"""The engine table: dispatch from ``Network(engine=...)`` to the three
engine modules, front-door input checks, and engine failures that
propagate instead of being re-run elsewhere."""

import pytest

from repro.core.bits import Bits
from repro.core.engine import ENGINES, fast, kernel, legacy
from repro.core.errors import BandwidthExceededError, ProtocolError
from repro.core.network import Mode, Network, Outbox
from repro.core.phases import (
    transmit_broadcast_kernel_program,
    transmit_unicast,
)
from repro.scenarios import ScenarioMatrix


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


@pytest.fixture
def calls(monkeypatch):
    """The engine names whose ``run_many`` ran, in call order."""
    seen = []
    for name, module in ENGINES.items():

        def counting(network, program, inputs_list, _name=name, _real=module.run_many):
            seen.append(_name)
            return _real(network, program, inputs_list)

        monkeypatch.setattr(module, "run_many", counting)
    return seen


@pytest.fixture
def broken_fast(monkeypatch):
    """The fast engine crashes on every run with a non-protocol error."""

    def crash(network, program, inputs_list):
        raise RuntimeError("simulated engine crash")

    monkeypatch.setattr(fast, "run_many", crash)


class TestEngineDispatch:
    def test_registry_contents(self):
        assert ENGINES == {"legacy": legacy, "fast": fast, "kernel": kernel}

    def test_default_network_runs_fast(self, calls):
        Network(n=4, bandwidth=8).run(echo_program)
        assert calls == ["fast"]

    def test_each_name_runs_its_own_engine(self, calls):
        for name in ("legacy", "fast"):
            network = Network(n=4, bandwidth=8, engine=name)
            network.run(echo_program)
            network.run_many(echo_program, [None, None])
        program, payloads = broadcast_kernel_program(4)
        network = Network(n=4, bandwidth=8, mode=Mode.BROADCAST, engine="kernel")
        network.run(program, inputs=payloads)
        assert calls == ["legacy", "legacy", "fast", "fast", "kernel"]

    def test_kernel_program_runs_on_kernel_whatever_engine_names(self, calls):
        program, payloads = broadcast_kernel_program(4)
        results = [
            Network(n=4, bandwidth=8, mode=Mode.BROADCAST, engine=name).run(
                program, inputs=payloads
            )
            for name in ("legacy", "fast", "kernel")
        ]
        assert calls == ["kernel"] * 3
        assert all(result_tuple(r) == result_tuple(results[0]) for r in results)

    def test_kernel_engine_rejects_generator_programs(self):
        network = Network(n=4, bandwidth=8, engine="kernel")
        with pytest.raises(ProtocolError, match="only executes kernel"):
            network.run(echo_program)
        with pytest.raises(ProtocolError, match="only executes kernel"):
            network.run_many(echo_program, [None])

    @pytest.mark.parametrize("engine", ["warp", "auto", None])
    def test_unknown_engine_rejected(self, engine):
        with pytest.raises(ValueError, match="unknown engine"):
            Network(n=4, bandwidth=8, engine=engine)


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


class TestEngineFailures:
    """An engine's exception reaches the caller: no other engine re-runs
    the program and stands in for the one that failed."""

    def test_broken_fast_engine_raises(self, broken_fast, calls):
        network = Network(n=4, bandwidth=8, engine="fast")
        with pytest.raises(RuntimeError, match="simulated engine crash"):
            network.run(echo_program)
        with pytest.raises(RuntimeError, match="simulated engine crash"):
            network.run_many(echo_program, [None, None])
        assert calls == ["fast", "fast"]

    def test_broken_fast_engine_fails_its_matrix_cells(self, broken_fast):
        result = ScenarioMatrix(
            ["routing", "mst"], ["gnp"], [6], engines=["legacy", "fast"]
        ).run()
        fast_cells = [cell for cell in result.cells if cell.engine == "fast"]
        assert len(fast_cells) == 2
        for cell in fast_cells:
            assert cell.status == "failed"
            assert cell.error_type == "RuntimeError"
        assert result.mismatches() == fast_cells

    @pytest.mark.parametrize("engine", ["legacy", "fast"])
    def test_protocol_errors_propagate(self, engine, calls):
        def too_wide(ctx):
            yield Outbox.broadcast_uint(0xFFFF, 16)

        network = Network(n=4, bandwidth=8, mode=Mode.BROADCAST, engine=engine)
        with pytest.raises(BandwidthExceededError):
            network.run(too_wide)
        assert calls == [engine]

    @pytest.mark.parametrize("engine", ["legacy", "fast"])
    def test_program_bugs_propagate(self, engine, calls):
        def buggy(ctx):
            yield Outbox.broadcast_uint(ctx.node_id, 8)
            raise KeyError("program bug")

        network = Network(n=4, bandwidth=8, mode=Mode.BROADCAST, engine=engine)
        with pytest.raises(KeyError, match="program bug"):
            network.run(buggy)
        assert calls == [engine]


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
