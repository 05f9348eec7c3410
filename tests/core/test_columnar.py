"""Round-trip contracts of the columnar campaign-shard codec.

Campaign shard workers return their traces flattened into
:class:`repro.columnar.TraceArrays`; flatten → rebuild must preserve
every hop and trace field exactly, including the ``None`` sentinels.
"""

from __future__ import annotations

import pytest

from repro.columnar import NO_ADDRESS, TraceArrays
from repro.core.pipeline import PipelineConfig, build_environment
from repro.measurement.traceroute import (
    Traceroute,
    flatten_traces,
    rebuild_traces,
)


def _synthetic_traces() -> list[Traceroute]:
    """Hand-built traces covering every sentinel the codec encodes:
    unresponsive hops, missing RTTs, absent router ids, an empty hop
    tuple, and an unreached destination."""
    return [
        Traceroute(
            source_id="vp-a",
            platform="atlas",
            src_asn=64500,
            dst_address=0x0A000001,
            addresses=(0x0A000002, None, 0x0A000003, 0x0A000001),
            rtts=(1.25, None, None, 8.5),
            routers=(7, None, 9, None),
            reached=True,
        ),
        Traceroute(
            source_id="vp-b",
            platform="lg",
            src_asn=64501,
            dst_address=0x0B000001,
            addresses=(),
            rtts=(),
            routers=(),
            reached=False,
        ),
        Traceroute(
            source_id="vp-c",
            platform="archive",
            src_asn=64502,
            dst_address=0x0C000001,
            addresses=(None, 0xFFFFFFFE),
            rtts=(3.0, 0.0),
            routers=(None, 0),
            reached=False,
        ),
    ]


class TestArrayRoundTrip:
    """flatten → rebuild preserves every field exactly."""

    def test_synthetic_traces_round_trip(self):
        traces = _synthetic_traces()
        arrays = flatten_traces(traces)
        assert len(arrays) == len(traces)
        assert arrays.total_hops == sum(len(t.addresses) for t in traces)
        rebuilt = rebuild_traces(arrays)
        # Frozen dataclasses: == compares every column of every trace.
        assert rebuilt == traces

    def test_campaign_traces_round_trip(self):
        """The real campaign stream round-trips hop-for-hop."""
        env = build_environment(PipelineConfig.small(seed=0))
        corpus = env.run_campaign()
        arrays = flatten_traces(corpus.traces)
        assert rebuild_traces(arrays) == list(corpus.traces)

    def test_sentinel_collision_rejected(self):
        bad = Traceroute(
            source_id="vp-x",
            platform="atlas",
            src_asn=64500,
            dst_address=1,
            addresses=(NO_ADDRESS,),
            rtts=(1.0,),
            routers=(None,),
            reached=False,
        )
        with pytest.raises(ValueError, match="NO_ADDRESS"):
            flatten_traces([bad])

    def test_pickle_round_trip(self):
        import pickle

        arrays = flatten_traces(_synthetic_traces())
        clone = pickle.loads(pickle.dumps(arrays))
        assert clone == arrays
        assert rebuild_traces(clone) == _synthetic_traces()


class TestArrayIndexing:
    def test_trace_offsets(self):
        """Trace *i* owns flat hops ``offsets[i]:offsets[i+1]``; an
        empty trace owns an empty range."""
        arrays = flatten_traces(_synthetic_traces())
        assert list(arrays.trace_offsets) == [0, 4, 4, 6]

    def test_empty_arrays(self):
        arrays = TraceArrays()
        assert len(arrays) == 0
        assert arrays.total_hops == 0
        assert rebuild_traces(arrays) == []
