"""The phase/fragmentation layer: honest chunking into b-bit frames."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.bits import BitReader, Bits
from repro.core.errors import DecodeError
from repro.core.network import Mode, run_protocol
from repro.core.phases import (
    _decode_frames,
    _frame_payload,
    header_width,
    idle,
    phase_length,
    transmit_broadcast,
    transmit_unicast,
)


class TestPhaseLength:
    def test_small_payload_single_round(self):
        assert phase_length(3, 8) == 1

    def test_exact_multiples(self):
        # 10 payload bits + 4 header bits = 14 -> 2 rounds at b=7.
        assert phase_length(10, 7) == 2

    @given(
        st.integers(min_value=0, max_value=5000),
        st.integers(min_value=1, max_value=64),
    )
    def test_formula(self, max_bits, b):
        total = header_width(max_bits) + max_bits
        assert phase_length(max_bits, b) == -(-total // b)

    @given(st.integers(min_value=1, max_value=10**6))
    def test_header_fits_length(self, max_bits):
        assert max_bits < (1 << header_width(max_bits))


class TestParseConcat:
    """:func:`_decode_frames` on one 38-bit frame (the whole stream)."""

    def test_header_within_bound_decodes(self):
        stream = Bits((19 << 33) | (0x5A5A5 << 14), 38)
        assert _decode_frames([stream.to_uint()], 38, 19) == Bits(0x5A5A5, 19)

    def test_header_above_max_bits_rejected(self):
        # The stream holds the 31 bits the header claims, but a phase
        # bounded by max_bits=19 never frames that many.
        stream = Bits((31 << 33) | 0x1F0F0F0F, 38)
        with pytest.raises(DecodeError, match="31 bits"):
            _decode_frames([stream.to_uint()], 38, 19)


def _bitreader_decode(frames, bandwidth, max_bits):
    """The reference decoder: concatenate the frames into one stream
    and walk it with a :class:`BitReader`."""
    reader = BitReader(Bits.from_uint_concat(frames, bandwidth))
    length = reader.read_uint(header_width(max_bits))
    if length > max_bits:
        raise DecodeError(
            f"length header says {length} bits, the phase allows {max_bits}"
        )
    return reader.read_bits(length)


def _decode_outcome(decode, frames, bandwidth, max_bits):
    try:
        return decode(frames, bandwidth, max_bits)
    except (ValueError, DecodeError) as exc:
        return type(exc), str(exc)


class TestDecodeFrames:
    """:func:`_decode_frames` returns what the BitReader walk returns,
    or raises the same exception, on framed, truncated and random
    frames."""

    @given(st.data())
    def test_matches_bitreader_reference(self, data):
        bandwidth = data.draw(st.integers(min_value=1, max_value=80), "bandwidth")
        max_bits = data.draw(st.integers(min_value=0, max_value=300), "max_bits")
        rounds = phase_length(max_bits, bandwidth)
        if data.draw(st.booleans(), "framed"):
            # A well-formed phase, then cut short or padded with a frame.
            length = data.draw(st.integers(min_value=0, max_value=max_bits))
            value = data.draw(st.integers(min_value=0, max_value=(1 << length) - 1))
            frames = _frame_payload(Bits(value, length), max_bits, rounds, bandwidth)
            keep = data.draw(st.integers(min_value=0, max_value=rounds + 1))
            frames = (frames + [0])[:keep]
        else:
            # Random frames: oversize headers, and now and then a chunk
            # wider than the bandwidth.
            frames = data.draw(
                st.lists(
                    st.integers(min_value=0, max_value=(1 << (bandwidth + 1)) - 1),
                    max_size=rounds + 2,
                ),
                "frames",
            )
        assert _decode_outcome(
            _decode_frames, frames, bandwidth, max_bits
        ) == _decode_outcome(_bitreader_decode, frames, bandwidth, max_bits)

    def test_round_trips_a_framed_payload(self):
        payload = Bits(0b1011001, 7)
        rounds = phase_length(20, 3)
        frames = _frame_payload(payload, 20, rounds, 3)
        assert _decode_frames(frames, 3, 20) == payload

    def test_chunk_wider_than_bandwidth_rejected(self):
        with pytest.raises(ValueError, match="does not fit in 3 bits"):
            _decode_frames([1, 8], 3, 4)

    def test_truncated_stream_rejected(self):
        # Header 5 (3 bits at max_bits=5) promises 5 payload bits; one
        # 4-bit frame holds only 1 of them.
        with pytest.raises(DecodeError, match="read past end"):
            _decode_frames([0b1010], 4, 5)


class TestBroadcastPhase:
    @pytest.mark.parametrize("bandwidth", [1, 2, 3, 8, 64])
    def test_roundtrip_all_to_all(self, bandwidth):
        payload_bits = 20

        def program(ctx):
            payload = Bits.from_uint(ctx.node_id * 7 + 3, payload_bits)
            got = yield from transmit_broadcast(ctx, payload, payload_bits)
            return {s: p.to_uint() for s, p in got.items()}

        result = run_protocol(
            program, n=4, bandwidth=bandwidth, mode=Mode.BROADCAST
        )
        assert result.rounds == phase_length(payload_bits, bandwidth)
        for v, got in enumerate(result.outputs):
            assert got == {u: u * 7 + 3 for u in range(4) if u != v}

    def test_variable_lengths_with_common_bound(self):
        def program(ctx):
            payload = Bits.from_uint(ctx.node_id, ctx.node_id + 1)
            got = yield from transmit_broadcast(ctx, payload, max_bits=8)
            return {s: (len(p), p.to_uint()) for s, p in got.items()}

        result = run_protocol(program, n=4, bandwidth=3, mode=Mode.BROADCAST)
        assert result.outputs[0] == {1: (2, 1), 2: (3, 2), 3: (4, 3)}

    def test_silent_nodes_receive(self):
        def program(ctx):
            payload = (
                Bits.from_uint(42, 8) if ctx.node_id == 0 else None
            )
            got = yield from transmit_broadcast(ctx, payload, max_bits=8)
            return sorted(got)

        result = run_protocol(program, n=3, bandwidth=4, mode=Mode.BROADCAST)
        assert result.outputs[1] == [0] and result.outputs[2] == [0]
        assert result.outputs[0] == []

    def test_payload_over_bound_rejected(self):
        def program(ctx):
            yield from transmit_broadcast(ctx, Bits.zeros(9), max_bits=8)

        with pytest.raises(ValueError):
            run_protocol(program, n=2, bandwidth=4, mode=Mode.BROADCAST)

    def test_empty_payload_distinct_from_silence(self):
        def program(ctx):
            payload = Bits.empty() if ctx.node_id == 0 else None
            got = yield from transmit_broadcast(ctx, payload, max_bits=4)
            return sorted(got)

        result = run_protocol(program, n=3, bandwidth=4, mode=Mode.BROADCAST)
        assert result.outputs[1] == [0]  # empty message still arrives


class TestUnicastPhase:
    @pytest.mark.parametrize("bandwidth", [1, 4, 16])
    def test_ring_roundtrip(self, bandwidth):
        def program(ctx):
            dest = (ctx.node_id + 1) % ctx.n
            payload = Bits.from_uint(ctx.node_id + 100, 12)
            got = yield from transmit_unicast(ctx, {dest: payload}, max_bits=12)
            return {s: p.to_uint() for s, p in got.items()}

        result = run_protocol(program, n=5, bandwidth=bandwidth)
        for v, got in enumerate(result.outputs):
            assert got == {(v - 1) % 5: (v - 1) % 5 + 100}

    def test_fan_in(self):
        def program(ctx):
            if ctx.node_id != 0:
                payloads = {0: Bits.from_uint(ctx.node_id, 6)}
            else:
                payloads = {}
            got = yield from transmit_unicast(ctx, payloads, max_bits=6)
            return {s: p.to_uint() for s, p in got.items()}

        result = run_protocol(program, n=4, bandwidth=2)
        assert result.outputs[0] == {1: 1, 2: 2, 3: 3}
        assert result.outputs[1] == {}

    @given(
        st.integers(min_value=1, max_value=8),
        st.lists(
            st.integers(min_value=0, max_value=255), min_size=2, max_size=5
        ),
    )
    def test_property_roundtrip(self, bandwidth, values):
        n = len(values)

        def program(ctx):
            payloads = {
                v: Bits.from_uint(values[ctx.node_id], 8)
                for v in range(n)
                if v != ctx.node_id
            }
            got = yield from transmit_unicast(ctx, payloads, max_bits=8)
            return {s: p.to_uint() for s, p in got.items()}

        result = run_protocol(program, n=n, bandwidth=bandwidth)
        for v in range(n):
            expected = {u: values[u] for u in range(n) if u != v}
            assert result.outputs[v] == expected


class TestIdle:
    def test_idle_consumes_rounds(self):
        def program(ctx):
            yield from idle(4)
            return "done"

        result = run_protocol(program, n=2, bandwidth=1)
        assert result.rounds == 4
        assert result.outputs == ["done", "done"]
