"""Fixed-width outboxes and the int wire: semantics, validation,
accounting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.bits import Bits
from repro.core.errors import (
    BandwidthExceededError,
    ProtocolError,
    TopologyError,
)
from repro.core.mailbox import BoardInbox, UintInbox, coerce_fixed
from repro.core.network import Inbox, Mode, Outbox, inbox_uints, run_protocol


# A unicast or CONGEST round in which every non-silent sender yields a
# fixed-width outbox of one width crosses the wire as ints when no fault
# plan is active.  The cases below assert, through the ``int_rounds``
# fixture, which rounds did; ``bits_path_plan`` forces the same round
# onto the Bits path for comparison.


class TestDelivery:
    def test_all_to_all_uints(self, int_rounds):
        n, width = 10, 8

        def program(ctx):
            dests = list(ctx.neighbors)
            values = [(ctx.node_id * 10 + d) % 256 for d in dests]
            inbox = yield Outbox.fixed_width(dests, values, width)
            return dict(inbox_uints(inbox))

        result = run_protocol(program, n=n, bandwidth=width)
        assert int_rounds == [width]
        assert result.rounds == 1
        assert result.total_bits == n * (n - 1) * width
        assert result.max_round_bits == result.total_bits
        for v, got in enumerate(result.outputs):
            assert got == {u: (u * 10 + v) % 256 for u in range(n) if u != v}

    def test_inbox_api_matches_dict_inbox(self, int_rounds, bits_path_plan):
        def program(ctx):
            dests = list(ctx.neighbors)
            inbox = yield Outbox.fixed_width(
                dests, [10 * ctx.node_id + d for d in dests], 8
            )
            return {
                "senders": inbox.senders(),
                "items": [(s, p.to_str()) for s, p in inbox.items()],
                "len": len(inbox),
                "has0": 0 in inbox,
                "get0": None if inbox.get(0) is None else inbox.get(0).to_uint(),
                "get99": inbox.get(99),
            }

        result = run_protocol(program, n=10, bandwidth=8)
        assert int_rounds == [8]
        # The same round on the Bits path, into dict inboxes.
        assert run_protocol(
            program, n=10, bandwidth=8, fault_plan=bits_path_plan
        ).outputs == result.outputs
        assert int_rounds == [8]
        at0 = result.outputs[0]
        assert at0["senders"] == tuple(range(1, 10))
        assert at0["items"] == [(s, format(10 * s, "08b")) for s in range(1, 10)]
        assert at0["len"] == 9
        assert not at0["has0"]
        assert at0["get0"] is None and at0["get99"] is None
        at1 = result.outputs[1]
        assert at1["senders"] == (0, *range(2, 10))
        assert at1["get0"] == 1

    def test_numpy_array_inputs(self, int_rounds):
        def program(ctx):
            dests = np.array(list(ctx.neighbors), dtype=np.intp)
            values = np.full(dests.size, ctx.node_id, dtype=np.uint64)
            inbox = yield Outbox.fixed_width(dests, values, 7)
            return sorted(inbox.uint_items())

        result = run_protocol(program, n=10, bandwidth=7)
        assert int_rounds == [7]
        for v, got in enumerate(result.outputs):
            assert got == [(u, u) for u in range(10) if u != v]

    def test_empty_fixed_outbox_is_silent(self, int_rounds):
        def program(ctx):
            inbox = yield Outbox.fixed_width([], [], 4)
            return len(inbox)

        result = run_protocol(program, n=3, bandwidth=4)
        # An empty outbox still names its width, so the round is an int
        # round that carries no message.
        assert int_rounds == [4]
        assert result.total_bits == 0
        assert result.outputs == [0, 0, 0]

    def test_transcript_records_fixed_sends(self, int_rounds):
        n = 9

        def program(ctx):
            dests = list(ctx.neighbors)
            yield Outbox.fixed_width(dests, [(ctx.node_id + d) % 4 for d in dests], 2)

        result = run_protocol(program, n=n, bandwidth=2, record_transcript=True)
        assert int_rounds == [2]
        sends = result.transcript[0].sends
        assert sends == [
            (s, d, Bits.from_uint((s + d) % 4, 2))
            for s in range(n)
            for d in range(n)
            if d != s
        ]

    def test_congest_respects_topology(self, int_rounds):
        topo = [[1], [0, 2], [1]]

        def program(ctx):
            inbox = yield Outbox.fixed_width(
                list(ctx.neighbors), [1] * len(ctx.neighbors), 1
            )
            return sorted(inbox.senders())

        result = run_protocol(
            program, n=3, bandwidth=1, mode=Mode.CONGEST, topology=topo
        )
        assert int_rounds == [1]
        assert result.outputs == [[1], [0, 2], [1]]


class TestValidation:
    """Node 0 yields the outbox under test, to nine destinations where
    the check allows, while every other node yields a valid fixed-width
    outbox to all its neighbours: the round would cross the wire as
    ints (``test_valid_round_rides_the_lane``), so each rejection is
    checked on an int round, not on one the Bits path delivers."""

    def run_single(self, outbox_builder, width=8, **kwargs):
        def program(ctx):
            if ctx.node_id == 0:
                yield outbox_builder(ctx)
            else:
                dests = list(ctx.neighbors)
                yield Outbox.fixed_width(dests, [0] * len(dests), width)

        kwargs.setdefault("n", 10)
        kwargs.setdefault("bandwidth", 8)
        return run_protocol(program, **kwargs)

    def test_valid_round_rides_the_lane(self, int_rounds):
        result = self.run_single(lambda ctx: Outbox.fixed_width(range(1, 10), [1] * 9, 8))
        assert int_rounds == [8]
        assert result.total_bits == 10 * 9 * 8

    def test_width_over_bandwidth(self):
        with pytest.raises(BandwidthExceededError):
            self.run_single(lambda ctx: Outbox.fixed_width(range(1, 10), [0] * 9, 9))

    def test_value_too_wide(self):
        with pytest.raises(ProtocolError):
            self.run_single(
                lambda ctx: Outbox.fixed_width(range(1, 10), [0] * 8 + [256], 8)
            )

    def test_wide_value_too_wide(self):
        with pytest.raises(ProtocolError):
            self.run_single(
                lambda ctx: Outbox.fixed_width(range(1, 10), [0] * 8 + [1 << 100], 70),
                width=70,
                bandwidth=70,
            )

    def test_self_send_rejected(self):
        with pytest.raises(TopologyError):
            self.run_single(lambda ctx: Outbox.fixed_width(range(9), [1] * 9, 8))

    def test_out_of_range_rejected(self):
        with pytest.raises(TopologyError):
            self.run_single(
                lambda ctx: Outbox.fixed_width([*range(1, 9), 17], [1] * 9, 8)
            )

    def test_duplicate_destination_rejected(self):
        with pytest.raises(ProtocolError):
            self.run_single(
                lambda ctx: Outbox.fixed_width([*range(1, 9), 1], [2] * 9, 8)
            )

    def test_congest_non_neighbour_rejected(self, int_rounds):
        # The clique on 10 nodes without the edge {0, 9}.
        topo = [[u for u in range(10) if u != v and {u, v} != {0, 9}] for v in range(10)]
        kwargs = dict(mode=Mode.CONGEST, topology=topo)
        self.run_single(lambda ctx: Outbox.fixed_width(range(1, 9), [1] * 8, 8), **kwargs)
        assert int_rounds == [8]
        with pytest.raises(TopologyError):
            self.run_single(
                lambda ctx: Outbox.fixed_width(range(1, 10), [1] * 9, 8), **kwargs
            )

    @pytest.mark.parametrize("engine", ["legacy"])
    def test_congest_non_neighbour_rejected_in_bulk_outbox(self, engine):
        # 40 destinations, the last of them no neighbour of the sender:
        # a bulk outbox gets the same membership check as a small one.
        n = 45
        topo = [[] for _ in range(n)]
        for u in range(1, 40):
            topo[0].append(u)
            topo[u].append(0)
        with pytest.raises(TopologyError, match="non-neighbour 40"):
            self.run_single(
                lambda ctx: Outbox.fixed_width(range(1, 41), [1] * 40, 4),
                n=n,
                mode=Mode.CONGEST,
                topology=topo,
                engine=engine,
            )

    def test_rejected_in_broadcast_mode(self):
        with pytest.raises(ProtocolError):
            self.run_single(
                lambda ctx: Outbox.fixed_width(range(1, 10), [1] * 9, 4),
                mode=Mode.BROADCAST,
            )

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ProtocolError):
            Outbox.fixed_width([1, 2], [1], 4)

    def test_zero_width_rejected(self):
        with pytest.raises(ValueError):
            Outbox.fixed_width([1], [0], 0)

    def test_outbox_arrays_are_frozen_copies(self):
        # An outbox is validated when it is yielded and delivered after
        # the other nodes have run; aliasing a caller array or list that
        # is mutated in place meanwhile would smuggle unvalidated data
        # onto the wire — so the outbox must own immutable copies.
        dests = np.array([1, 2], dtype=np.intp)
        values = np.array([3, 4], dtype=np.uint64)
        listed = [3, 4]
        outbox = Outbox.fixed_width(dests, values, 4)
        from_list = Outbox.fixed_width([1, 2], listed, 4)
        values[:] = 999  # caller mutation must not reach the outbox
        listed[:] = [999, 999]
        assert outbox.values == (3, 4) and from_list.values == (3, 4)
        assert outbox.dests == (1, 2)
        assert all(type(x) is int for x in outbox.dests + outbox.values)
        with pytest.raises(TypeError):
            outbox.values[0] = 5
        with pytest.raises(TypeError):
            outbox.dests[0] = 0


class TestCoercion:
    def test_non_integral_floats_rejected(self):
        # Regression: these used to be silently truncated to dest 1 /
        # value 3 by the numpy dtype cast.
        with pytest.raises(ProtocolError):
            coerce_fixed([1.7], [3], 8)
        with pytest.raises(ProtocolError):
            coerce_fixed([1], [3.9], 8)
        with pytest.raises(ProtocolError):
            coerce_fixed([1.7], [3.9], 8)

    def test_integral_floats_rejected_too(self):
        # Type discipline, not value discipline: 2.0 == 2 but floats
        # have no place on the wire.
        with pytest.raises(ProtocolError):
            coerce_fixed([2.0], [3], 8)
        with pytest.raises(ProtocolError):
            coerce_fixed([1], [2.0], 8)

    def test_numpy_float_arrays_rejected(self):
        with pytest.raises(ProtocolError):
            coerce_fixed(np.array([1.5]), np.array([3]), 8)
        with pytest.raises(ProtocolError):
            coerce_fixed(np.array([1]), np.array([3.5]), 8)

    def test_wide_width_floats_rejected(self):
        # The object-dtype (width > 63) path used int(v), which also
        # truncates; it must reject non-integers the same way.
        with pytest.raises(ProtocolError):
            coerce_fixed([1], [3.9], 70)

    def test_integer_like_inputs_still_accepted(self):
        dests, values = coerce_fixed(
            np.array([1, 2], dtype=np.int32), [3, np.uint64(4)], 8
        )
        assert list(dests) == [1, 2]
        assert list(values) == [3, 4]

    def test_negative_values_rejected_at_construction(self):
        # astype(uint64) would silently wrap -1 to 2**64-1.
        with pytest.raises(ProtocolError):
            coerce_fixed([1], [-1], 8)
        with pytest.raises(ProtocolError):
            coerce_fixed([1], np.array([-1]), 8)
        with pytest.raises(ProtocolError):
            coerce_fixed([1], [-1], 70)

    def test_outbox_constructor_rejects_floats(self):
        with pytest.raises(ProtocolError):
            Outbox.fixed_width([1.7], [3.9], 8)


class TestBroadcastValidation:
    def run_single(self, outbox_builder, **kwargs):
        def program(ctx):
            if ctx.node_id == 0:
                yield outbox_builder(ctx)
            else:
                yield Outbox.silent()

        kwargs.setdefault("n", 3)
        kwargs.setdefault("bandwidth", 8)
        kwargs.setdefault("mode", Mode.BROADCAST)
        return run_protocol(program, **kwargs)

    def test_width_over_bandwidth(self):
        with pytest.raises(BandwidthExceededError):
            self.run_single(lambda ctx: Outbox.broadcast_uint(0, 9))

    def test_value_too_wide(self):
        with pytest.raises(ProtocolError):
            Outbox.broadcast_uint(256, 8)

    def test_negative_value_rejected(self):
        with pytest.raises(ProtocolError):
            Outbox.broadcast_uint(-1, 8)

    def test_non_integer_value_rejected(self):
        with pytest.raises(ProtocolError):
            Outbox.broadcast_uint(3.9, 8)

    def test_zero_width_rejected(self):
        with pytest.raises(ValueError):
            Outbox.broadcast_uint(0, 0)

    def test_rejected_outside_broadcast_mode(self):
        with pytest.raises(ProtocolError):
            self.run_single(
                lambda ctx: Outbox.broadcast_uint(1, 4), mode=Mode.UNICAST
            )
        with pytest.raises(ProtocolError):
            self.run_single(
                lambda ctx: Outbox.broadcast_uint(1, 4),
                mode=Mode.CONGEST,
                topology=[[1], [0], []],
            )


class TestSchedule:
    def test_outbox_map_and_uints_on_dict_inbox(self, int_rounds):
        def program(ctx):
            # Force the Bits path with one node's dict outbox, so
            # inbox_uints must decode an ordinary dict-backed Inbox too.
            if ctx.node_id == 0:
                inbox = yield Outbox.unicast({1: Bits.from_uint(9, 5)})
            else:
                inbox = yield Outbox.fixed_width_map({0: 20 + ctx.node_id}, 5)
            return sorted(inbox_uints(inbox))

        result = run_protocol(program, n=3, bandwidth=5)
        assert int_rounds == []
        assert result.outputs[0] == [(1, 21), (2, 22)]
        assert result.outputs[1] == [(0, 9)]

    def test_outbox_map_and_uints_on_lane_inbox(self, int_rounds):
        def program(ctx):
            inbox = yield Outbox.fixed_width_map(
                {d: 20 + ctx.node_id for d in ctx.neighbors}, 5
            )
            return sorted(inbox_uints(inbox))

        result = run_protocol(program, n=10, bandwidth=5)
        assert int_rounds == [5]
        assert result.outputs[0] == [(u, 20 + u) for u in range(1, 10)]


class TestInboxApi:
    def test_every_inbox_flavour_has_the_same_public_attributes(self):
        # A program sees whichever flavour the round took; an accessor
        # only some flavours have would work in one round and raise
        # AttributeError in another.
        def public(cls):
            return {name for name in dir(cls) if not name.startswith("_")}

        assert public(UintInbox) == public(Inbox)
        assert public(BoardInbox) == public(Inbox)

    def test_uint_inbox_reads_like_a_dict_inbox(self):
        # The same messages, as ints in a UintInbox and as Bits in an
        # Inbox; the int dict is filled out of sender order.
        ints = {7: 5, 2: 0, 4: 15}
        uint_inbox = UintInbox(ints, 4)
        inbox = Inbox({s: Bits(v, 4) for s, v in ints.items()})
        for probe in (uint_inbox, inbox):
            assert probe.senders() == (2, 4, 7)
            assert probe.uint_items() == [(2, 0), (4, 15), (7, 5)]
            assert len(probe) == 3
            assert 4 in probe and 3 not in probe
        assert uint_inbox.items() == inbox.items()
        assert uint_inbox.items() == ((2, Bits(0, 4)), (4, Bits(15, 4)), (7, Bits(5, 4)))
        for sender in (2, 4, 7, 3, -1, 99):
            assert uint_inbox.get(sender) == inbox.get(sender)
        # A caller may mutate the list it is handed.
        uint_inbox.uint_items().clear()
        assert inbox_uints(uint_inbox) == [(2, 0), (4, 15), (7, 5)]


class TestDuplicateDestinationAudit:
    """Duplicate destinations must raise ProtocolError on every path —
    never silent last-writer-wins."""

    def duplicate_program(self):
        def program(ctx):
            if ctx.node_id == 0:
                yield Outbox.fixed_width([1, 2, 1], [5, 6, 7], 4)
            else:
                yield Outbox.silent()
            return None

        return program

    def test_legacy_engine_rejects(self):
        with pytest.raises(ProtocolError, match="twice"):
            run_protocol(
                self.duplicate_program(), n=3, bandwidth=4, engine="legacy"
            )

    def test_fixed_width_map_from_dict_is_trusted(self):
        outbox = Outbox.fixed_width_map({1: 5, 2: 6}, 4)
        assert outbox.trusted_unique

    def test_fixed_width_map_copies_nonstandard_mappings(self):
        # A Mapping whose keys() breaks the uniqueness contract must not
        # smuggle a duplicate past the trusted-unique fast path.
        from collections.abc import Mapping

        class LyingMapping(Mapping):
            def __init__(self, pairs):
                self._pairs = pairs

            def __getitem__(self, key):
                for k, v in self._pairs:
                    if k == key:
                        return v
                raise KeyError(key)

            def __iter__(self):
                return (k for k, _ in self._pairs)

            def __len__(self):
                return len(self._pairs)

            def keys(self):
                return [k for k, _ in self._pairs]

            def values(self):
                return [v for _, v in self._pairs]

        outbox = Outbox.fixed_width_map(LyingMapping([(1, 5), (1, 6)]), 4)
        assert outbox.dests == (1,)  # deduplicated through dict()
