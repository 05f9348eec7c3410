"""The single-pass trace rebuild against the per-trace reference loop.

:func:`reference_rebuild_all` is the straightforward decoder: for each
trace, walk its flat hop range by index, decode every sentinel and
build the dataclasses by keyword.  :meth:`TraceArrays.rebuild_all`
builds every hop in one comprehension over the hop columns, calls the
factories positionally and slices each trace's hops out of one shared
tuple; every trace it returns must be the reference's, field for field
and type for type (a ``1`` where ``True`` belongs, or a list where the
hop tuple belongs, would still compare equal under ``==``).
"""

from __future__ import annotations

import math
import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columnar import NO_ADDRESS, NO_ROUTER, TraceArrays
from repro.measurement.traceroute import TraceHop, Traceroute

TRACE_FIELDS = ("source_id", "platform", "src_asn", "dst_address", "reached")
HOP_FIELDS = ("ttl", "address", "rtt_ms", "router_id")


def reference_rebuild_all(arrays: TraceArrays, trace_factory, hop_factory):
    """Every trace, one at a time, by index into the flat columns."""
    traces = []
    for index in range(len(arrays)):
        start = arrays.trace_offsets[index]
        stop = arrays.trace_offsets[index + 1]
        hops = []
        for flat in range(start, stop):
            address = arrays.hop_address[flat]
            rtt = arrays.hop_rtt[flat]
            router = arrays.hop_router[flat]
            hops.append(
                hop_factory(
                    ttl=arrays.hop_ttl[flat],
                    address=None if address == NO_ADDRESS else address,
                    rtt_ms=rtt if rtt == rtt else None,
                    router_id=None if router == NO_ROUTER else router,
                )
            )
        traces.append(
            trace_factory(
                source_id=arrays.source_id[index],
                platform=arrays.platform[index],
                src_asn=arrays.src_asn[index],
                dst_address=arrays.dst_address[index],
                hops=tuple(hops),
                reached=bool(arrays.reached[index]),
            )
        )
    return traces


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
        assert type(mine.hops) is tuple, position
        assert len(mine.hops) == len(theirs.hops), position
        for hop, (got, want) in enumerate(zip(mine.hops, theirs.hops)):
            assert type(got) is type(want), (position, hop)
            for name in HOP_FIELDS:
                assert _same_value(getattr(got, name), getattr(want, name)), (
                    position,
                    hop,
                    name,
                )


def _check(traces: list[Traceroute]) -> None:
    arrays = TraceArrays.from_traces(traces)
    rebuilt = arrays.rebuild_all(Traceroute, TraceHop)
    assert_same_traces(
        rebuilt, reference_rebuild_all(arrays, Traceroute, TraceHop)
    )
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
_ttl = st.integers(min_value=0, max_value=0xFFFF)

_hop = st.builds(
    TraceHop, ttl=_ttl, address=_address, rtt_ms=_rtt, router_id=_router
)
_unresponsive_hop = st.builds(
    TraceHop, ttl=_ttl, address=st.none(), rtt_ms=_rtt, router_id=_router
)
_hops = st.lists(_hop, max_size=8) | st.lists(_unresponsive_hop, max_size=8)

_trace = st.builds(
    Traceroute,
    source_id=st.text(max_size=6),
    platform=st.sampled_from(("atlas", "lg", "archive", "")),
    src_asn=_u32,
    dst_address=_u32,
    hops=_hops.map(tuple),
    reached=st.booleans(),
)


class TestAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(_trace, max_size=12))
    def test_random_streams(self, traces):
        _check(traces)

    def test_empty_arrays(self):
        arrays = TraceArrays()
        assert arrays.rebuild_all(Traceroute, TraceHop) == []
        assert reference_rebuild_all(arrays, Traceroute, TraceHop) == []

    def test_zero_hop_traces(self):
        # Leading, middle and trailing empty hop ranges.
        _check([
            Traceroute("vp-a", "atlas", 1, 2, (), False),
            Traceroute("vp-b", "lg", 3, 4, (TraceHop(1, 5, 1.5, 6),), True),
            Traceroute("vp-c", "archive", 7, 8, (), True),
            Traceroute("vp-d", "archive", 9, 10, (), False),
        ])

    def test_every_hop_unresponsive(self):
        stars = tuple(TraceHop(ttl, None, None, None) for ttl in range(1, 6))
        _check([
            Traceroute("vp-a", "atlas", 1, 2, stars, False),
            Traceroute("vp-b", "atlas", 1, 3, stars[:1], False),
        ])

    def test_nan_rtt_and_no_router_sentinels(self):
        arrays = TraceArrays.from_traces([
            Traceroute(
                "vp-a",
                "atlas",
                1,
                2,
                (
                    TraceHop(1, 10, None, None),
                    TraceHop(2, 11, 0.0, 0),
                    TraceHop(3, 12, -0.0, NO_ROUTER - 1),
                    TraceHop(4, 13, math.inf, 5),
                ),
                True,
            )
        ])
        assert math.isnan(arrays.hop_rtt[0])
        assert arrays.hop_router[0] == NO_ROUTER
        (trace,) = arrays.rebuild_all(Traceroute, TraceHop)
        assert trace.hops[0].rtt_ms is None
        assert trace.hops[0].router_id is None
        assert_same_traces(
            [trace], reference_rebuild_all(arrays, Traceroute, TraceHop)
        )

    def test_last_trace_owns_the_tail(self):
        # The last trace's range ends at the terminal offset entry.
        tail = tuple(
            TraceHop(ttl, 100 + ttl, float(ttl), ttl) for ttl in range(7)
        )
        traces = [
            Traceroute("vp-a", "atlas", 1, 2, (TraceHop(1, 3, 0.5, 4),), True),
            Traceroute("vp-z", "lg", 5, 6, tail, True),
        ]
        arrays = TraceArrays.from_traces(traces)
        rebuilt = arrays.rebuild_all(Traceroute, TraceHop)
        assert rebuilt[-1].hops == tail
        _check(traces)
