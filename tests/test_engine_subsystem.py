"""The engine table: dispatch from ``Network(engine=...)`` to the two
engine modules, front-door input checks, and engine failures that
propagate instead of being re-run elsewhere."""

import pytest

from repro.core.bits import Bits
from repro.core.engine import ENGINES, kernel, legacy
from repro.core.errors import BandwidthExceededError, ProtocolError
from repro.core.network import Mode, Network, Outbox
from repro.core.phases import (
    transmit_broadcast_kernel_program,
    transmit_unicast,
    transmit_unicast_kernel_program,
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
def broken_kernel(monkeypatch):
    """The kernel engine crashes on every run with a non-protocol error."""

    def crash(network, program, inputs_list):
        raise RuntimeError("simulated engine crash")

    monkeypatch.setattr(kernel, "run_many", crash)


class TestEngineDispatch:
    def test_registry_contents(self):
        assert ENGINES == {"legacy": legacy, "kernel": kernel}

    def test_default_network_runs_legacy(self, calls):
        Network(n=4, bandwidth=8).run(echo_program)
        assert calls == ["legacy"]

    def test_each_name_runs_its_own_engine(self, calls):
        network = Network(n=4, bandwidth=8, engine="legacy")
        network.run(echo_program)
        network.run_many(echo_program, [None, None])
        program, payloads = broadcast_kernel_program(4)
        network = Network(n=4, bandwidth=8, mode=Mode.BROADCAST, engine="kernel")
        network.run(program, inputs=payloads)
        assert calls == ["legacy", "legacy", "kernel"]

    def test_kernel_program_runs_on_kernel_whatever_engine_names(self, calls):
        program, payloads = broadcast_kernel_program(4)
        results = [
            Network(n=4, bandwidth=8, mode=Mode.BROADCAST, engine=name).run(
                program, inputs=payloads
            )
            for name in ("legacy", "kernel")
        ]
        assert calls == ["kernel"] * 2
        assert all(result_tuple(r) == result_tuple(results[0]) for r in results)

    def test_kernel_engine_rejects_generator_programs(self):
        network = Network(n=4, bandwidth=8, engine="kernel")
        with pytest.raises(ProtocolError, match="only executes kernel"):
            network.run(echo_program)
        with pytest.raises(ProtocolError, match="only executes kernel"):
            network.run_many(echo_program, [None])

    @pytest.mark.parametrize("engine", ["warp", "auto", None, "fast"])
    def test_unknown_engine_rejected(self, engine):
        with pytest.raises(ValueError, match="unknown engine"):
            Network(n=4, bandwidth=8, engine=engine)


class TestFrontDoorValidation:
    def test_run_many_validates_input_lengths_on_every_backend(self):
        n = 4
        good = [None] * n
        bad = [None] * (n - 1)

        network = Network(n=n, bandwidth=8, engine="legacy")
        with pytest.raises(ProtocolError, match="inputs for"):
            network.run_many(echo_program, [good, bad])
        with pytest.raises(ProtocolError, match="inputs for"):
            network.run(echo_program, inputs=bad)

        program, payloads = broadcast_kernel_program(n)
        network = Network(n=n, bandwidth=8, mode=Mode.BROADCAST, engine="kernel")
        with pytest.raises(ProtocolError, match="inputs for"):
            network.run_many(program, [payloads, payloads[:-1]])
        with pytest.raises(ProtocolError, match="inputs for"):
            network.run(program, inputs=payloads[:-1])


class TestEngineFailures:
    """An engine's exception reaches the caller: no other engine re-runs
    the program and stands in for the one that failed."""

    def test_broken_kernel_engine_raises(self, broken_kernel, calls):
        program, payloads = broadcast_kernel_program(4)
        network = Network(n=4, bandwidth=8, mode=Mode.BROADCAST, engine="kernel")
        with pytest.raises(RuntimeError, match="simulated engine crash"):
            network.run(program, inputs=payloads)
        with pytest.raises(RuntimeError, match="simulated engine crash"):
            network.run_many(program, [payloads, payloads])
        assert calls == ["kernel", "kernel"]

    def test_broken_kernel_engine_fails_its_matrix_cells(self, broken_kernel):
        # mst has no kernel form, so routing holds the one kernel cell.
        result = ScenarioMatrix(
            ["routing", "mst"], ["gnp"], [6], engines=["legacy", "kernel"]
        ).run()
        kernel_cells = [
            cell
            for cell in result.cells
            if cell.engine == "kernel" and cell.status != "unsupported"
        ]
        assert [cell.protocol for cell in kernel_cells] == ["routing"]
        for cell in kernel_cells:
            assert cell.status == "failed"
            assert cell.error_type == "RuntimeError"
        assert result.mismatches() == kernel_cells

    @pytest.mark.parametrize("engine", ["legacy"])
    def test_protocol_errors_propagate(self, engine, calls):
        def too_wide(ctx):
            yield Outbox.broadcast_uint(0xFFFF, 16)

        network = Network(n=4, bandwidth=8, mode=Mode.BROADCAST, engine=engine)
        with pytest.raises(BandwidthExceededError):
            network.run(too_wide)
        assert calls == [engine]

    @pytest.mark.parametrize("engine", ["legacy"])
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
        # One unicast transmit phase as a generator program on legacy
        # and as its kernel twin on kernel.
        n, max_bits = 5, 12
        payloads = [
            {v: Bits(u * 7 + v, max_bits) for v in range(n) if v != u}
            for u in range(n)
        ]
        links = [(u, v) for u in range(n) for v in range(n) if u != v]

        def program(ctx):
            received = yield from transmit_unicast(ctx, ctx.input, max_bits)
            return received

        results = {
            "legacy": Network(n=n, bandwidth=4, engine="legacy").run(
                program, inputs=payloads
            ),
            "kernel": Network(n=n, bandwidth=4, engine="kernel").run(
                transmit_unicast_kernel_program(n, 4, links, max_bits),
                inputs=payloads,
            ),
        }
        reference = result_tuple(results["legacy"])
        assert result_tuple(results["kernel"]) == reference
