"""The single-pass trace rebuild against the per-trace reference loop.

:func:`reference_rebuild_all` is the straightforward decoder: for each
trace, walk its flat hop range by index, decode every sentinel into
per-trace columns and build the dataclass by keyword.
:meth:`TraceArrays.rebuild_all` decodes each hop column in one
comprehension, calls the factory positionally and slices each trace's
columns out of shared tuples; every trace it returns must be the
reference's, field for field and type for type (a ``1`` where ``True``
belongs, or a list where a column tuple belongs, would still compare
equal under ``==``).
"""

from __future__ import annotations

import math
import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columnar import NO_ADDRESS, NO_ROUTER, TraceArrays
from repro.measurement.traceroute import Traceroute

TRACE_FIELDS = ("source_id", "platform", "src_asn", "dst_address", "reached")
COLUMN_FIELDS = ("addresses", "rtts", "routers")


def reference_rebuild_all(arrays: TraceArrays, trace_factory):
    """Every trace, one at a time, by index into the flat columns."""
    traces = []
    for index in range(len(arrays)):
        start = arrays.trace_offsets[index]
        stop = arrays.trace_offsets[index + 1]
        addresses, rtts, routers = [], [], []
        for flat in range(start, stop):
            address = arrays.hop_address[flat]
            rtt = arrays.hop_rtt[flat]
            router = arrays.hop_router[flat]
            addresses.append(None if address == NO_ADDRESS else address)
            rtts.append(rtt if rtt == rtt else None)
            routers.append(None if router == NO_ROUTER else router)
        traces.append(
            trace_factory(
                source_id=arrays.source_id[index],
                platform=arrays.platform[index],
                src_asn=arrays.src_asn[index],
                dst_address=arrays.dst_address[index],
                addresses=tuple(addresses),
                rtts=tuple(rtts),
                routers=tuple(routers),
                reached=bool(arrays.reached[index]),
            )
        )
    return traces


def _trace(source_id, platform, src_asn, dst_address, hops, reached):
    """A Traceroute from ``(address, rtt, router)`` hop triples."""
    return Traceroute(
        source_id, platform, src_asn, dst_address,
        tuple(hop[0] for hop in hops),
        tuple(hop[1] for hop in hops),
        tuple(hop[2] for hop in hops),
        reached,
    )


def _same_value(actual, expected) -> bool:
    if type(actual) is not type(expected):
        return False
    if isinstance(expected, float):
        # Bitwise: keeps -0.0 apart from 0.0.
        return struct.pack("<d", actual) == struct.pack("<d", expected)
    return actual == expected


def assert_same_traces(actual: list, expected: list) -> None:
    assert type(actual) is list
    assert len(actual) == len(expected)
    for position, (mine, theirs) in enumerate(zip(actual, expected)):
        assert type(mine) is type(theirs), position
        for name in TRACE_FIELDS:
            assert _same_value(getattr(mine, name), getattr(theirs, name)), (
                position,
                name,
            )
        for name in COLUMN_FIELDS:
            got = getattr(mine, name)
            want = getattr(theirs, name)
            assert type(got) is tuple, (position, name)
            assert len(got) == len(want), (position, name)
            for hop, (value, expected) in enumerate(zip(got, want)):
                assert _same_value(value, expected), (position, name, hop)


def _check(traces: list[Traceroute]) -> None:
    arrays = TraceArrays.from_traces(traces)
    rebuilt = arrays.rebuild_all(Traceroute)
    assert_same_traces(rebuilt, reference_rebuild_all(arrays, Traceroute))
    # And both decode back to the traces that were flattened.
    assert_same_traces(rebuilt, traces)


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

_u32 = st.integers(min_value=0, max_value=0xFFFFFFFF)
_address = st.none() | st.integers(min_value=0, max_value=NO_ADDRESS - 1)
# NO_ROUTER itself is the sentinel, so a real id stays below it.
_router = st.none() | st.integers(min_value=0, max_value=NO_ROUTER - 1)
# Infinities and signed zeros are real samples, never the NaN sentinel.
_rtt = st.none() | st.floats(allow_nan=False)

_hop = st.tuples(_address, _rtt, _router)
_unresponsive_hop = st.tuples(st.none(), _rtt, _router)
_hops = st.lists(_hop, max_size=8) | st.lists(_unresponsive_hop, max_size=8)

_traces = st.builds(
    _trace,
    source_id=st.text(max_size=6),
    platform=st.sampled_from(("atlas", "lg", "archive", "")),
    src_asn=_u32,
    dst_address=_u32,
    hops=_hops,
    reached=st.booleans(),
)


class TestAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(_traces, max_size=12))
    def test_random_streams(self, traces):
        _check(traces)

    def test_empty_arrays(self):
        arrays = TraceArrays()
        assert arrays.rebuild_all(Traceroute) == []
        assert reference_rebuild_all(arrays, Traceroute) == []

    def test_zero_hop_traces(self):
        # Leading, middle and trailing empty hop ranges.
        _check([
            _trace("vp-a", "atlas", 1, 2, (), False),
            _trace("vp-b", "lg", 3, 4, ((5, 1.5, 6),), True),
            _trace("vp-c", "archive", 7, 8, (), True),
            _trace("vp-d", "archive", 9, 10, (), False),
        ])

    def test_every_hop_unresponsive(self):
        stars = ((None, None, None),) * 5
        _check([
            _trace("vp-a", "atlas", 1, 2, stars, False),
            _trace("vp-b", "atlas", 1, 3, stars[:1], False),
        ])

    def test_nan_rtt_and_no_router_sentinels(self):
        arrays = TraceArrays.from_traces([
            _trace(
                "vp-a",
                "atlas",
                1,
                2,
                (
                    (10, None, None),
                    (11, 0.0, 0),
                    (12, -0.0, NO_ROUTER - 1),
                    (13, math.inf, 5),
                ),
                True,
            )
        ])
        assert math.isnan(arrays.hop_rtt[0])
        assert arrays.hop_router[0] == NO_ROUTER
        (trace,) = arrays.rebuild_all(Traceroute)
        assert trace.rtts[0] is None
        assert trace.routers[0] is None
        assert_same_traces([trace], reference_rebuild_all(arrays, Traceroute))

    def test_last_trace_owns_the_tail(self):
        # The last trace's range ends at the terminal offset entry.
        tail = tuple((100 + ttl, float(ttl), ttl) for ttl in range(7))
        traces = [
            _trace("vp-a", "atlas", 1, 2, ((3, 0.5, 4),), True),
            _trace("vp-z", "lg", 5, 6, tail, True),
        ]
        arrays = TraceArrays.from_traces(traces)
        rebuilt = arrays.rebuild_all(Traceroute)
        assert rebuilt[-1] == traces[-1]
        _check(traces)
