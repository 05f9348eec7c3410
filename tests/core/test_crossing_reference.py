"""Step 1's crossing tallies against the frozen-record merge they replace.

The reference below is the original bookkeeping, kept verbatim: every
repeated sighting of a crossing built a new frozen ``ObservedPeering``
(``reference_merge``), and an alias refresh re-merged every cached
per-trace record dict in trace order (``reference_rebuild``).  The
in-place tallies (``fold_crossings`` / ``CrossingTally.freeze``) and
the engine's one-pass rebuild must agree with it on keys, insertion
order, first-record fields, counts and minimum RTT step.  Both CFS
engines fold through the same code, so engine identity alone cannot
catch a fold bug; this test can.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cfs import ConstrainedFacilitySearch
from repro.core.classify import CrossingTally, PeeringClassifier, fold_crossings
from repro.core.pipeline import PipelineConfig, build_environment
from repro.core.types import ObservedPeering, PeeringKind


def reference_merge(
    observations: dict[tuple, ObservedPeering], observation: ObservedPeering
) -> None:
    """Fold one crossing record into ``observations`` (frozen records)."""
    key = observation.key()
    existing = observations.get(key)
    if existing is None:
        observations[key] = observation
        return
    steps = [
        step
        for step in (existing.min_rtt_step_ms, observation.min_rtt_step_ms)
        if step is not None
    ]
    observations[key] = ObservedPeering(
        kind=existing.kind,
        near_address=existing.near_address,
        near_asn=existing.near_asn,
        far_asn=existing.far_asn,
        far_address=existing.far_address,
        ixp_id=existing.ixp_id,
        ixp_address=existing.ixp_address,
        min_rtt_step_ms=min(steps) if steps else None,
        observations=existing.observations + observation.observations,
    )


def reference_trace_records(batch) -> dict[tuple, ObservedPeering] | None:
    """One trace's records as the per-trace dict the old cache held."""
    if batch is None:
        return None
    records: dict[tuple, ObservedPeering] = {}
    for _, record in batch:
        reference_merge(records, record)
    return records


def reference_rebuild(
    trace_records: list[dict[tuple, ObservedPeering] | None],
) -> dict[tuple, ObservedPeering]:
    """Merge per-trace record dicts back into one crossing dict."""
    rebuilt: dict[tuple, ObservedPeering] = {}
    for records in trace_records:
        if records is None:
            continue
        for record in records.values():
            reference_merge(rebuilt, record)
    return rebuilt


def frozen(tallies: dict[tuple, CrossingTally]) -> dict[tuple, ObservedPeering]:
    return {key: tally.freeze() for key, tally in tallies.items()}


def assert_same(
    got: dict[tuple, ObservedPeering], want: dict[tuple, ObservedPeering]
) -> None:
    """Same keys in the same order, and the same fields bit for bit
    (``repr`` tells ``-0.0`` from ``0.0``, which ``==`` does not)."""
    assert list(got) == list(want)
    assert [repr(record) for record in got.values()] == [
        repr(record) for record in want.values()
    ]


# A small key space, so keys repeat within and across traces.
_STEPS = st.one_of(
    st.none(),
    st.sampled_from([0.0, -0.0, 0.25, 0.5]),
    st.floats(min_value=-5.0, max_value=50.0, allow_nan=False),
)


@st.composite
def records(draw) -> ObservedPeering:
    kind = draw(st.sampled_from(PeeringKind))
    public = kind is PeeringKind.PUBLIC
    return ObservedPeering(
        kind=kind,
        near_address=draw(st.integers(1, 3)),
        near_asn=draw(st.integers(20, 22)),
        far_asn=draw(st.integers(10, 11)),
        far_address=draw(st.integers(100, 102)),
        ixp_id=draw(st.integers(1, 2)) if public else None,
        ixp_address=draw(st.integers(200, 202)) if public else None,
        min_rtt_step_ms=draw(_STEPS),
        observations=draw(st.integers(1, 3)),
    )


batches = st.one_of(
    st.none(),
    st.lists(records(), min_size=1, max_size=4).map(
        lambda found: [(record.key(), record) for record in found]
    ),
)


class TestFoldMatchesFrozenMerge:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(batches, max_size=12))
    def test_streaming_fold(self, trace_batches):
        tallies: dict[tuple, CrossingTally] = {}
        for batch in trace_batches:
            if batch is not None:
                fold_crossings(tallies, batch)
        want = reference_rebuild(
            [reference_trace_records(batch) for batch in trace_batches]
        )
        assert_same(frozen(tallies), want)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(batches, max_size=12))
    def test_single_sighting_reuses_its_record(self, trace_batches):
        sightings: dict[tuple, list[ObservedPeering]] = {}
        tallies: dict[tuple, CrossingTally] = {}
        for batch in trace_batches:
            if batch is None:
                continue
            fold_crossings(tallies, batch)
            for key, record in batch:
                sightings.setdefault(key, []).append(record)
        for key, seen in sightings.items():
            if len(seen) == 1:
                assert tallies[key].freeze() is seen[0]

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(batches, max_size=10),
        st.lists(st.tuples(st.integers(0, 9), batches), max_size=6),
        st.lists(batches, max_size=6),
    )
    def test_reparse_rebuild_then_fold(self, before, reparses, after):
        """Live folding, an alias refresh that re-parses some cached
        traces (dropping, changing and adding keys), the one-pass
        rebuild, then more live folding: the result equals a full
        re-merge of the final per-trace cache in trace order."""
        cache = list(before)
        tallies: dict[tuple, CrossingTally] = {}
        for batch in cache:
            if batch is not None:
                fold_crossings(tallies, batch)
        for index, batch in reparses:
            if index < len(cache):
                cache[index] = batch
        tallies = ConstrainedFacilitySearch._rebuild_observations(cache)
        assert_same(
            frozen(tallies),
            reference_rebuild([reference_trace_records(b) for b in cache]),
        )
        for batch in after:
            cache.append(batch)
            if batch is not None:
                fold_crossings(tallies, batch)
        assert_same(
            frozen(tallies),
            reference_rebuild([reference_trace_records(b) for b in cache]),
        )


class TestFreeze:
    def _record(self, step, observations=1):
        return ObservedPeering(
            kind=PeeringKind.PRIVATE,
            near_address=1,
            near_asn=10,
            far_asn=20,
            far_address=2,
            min_rtt_step_ms=step,
            observations=observations,
        )

    def test_unchanged_tally_returns_the_same_record(self):
        tally = CrossingTally(self._record(None))
        tally.add(self._record(0.5, observations=2))
        first = tally.freeze()
        assert first is tally.freeze()
        assert (first.observations, first.min_rtt_step_ms) == (3, 0.5)

    def test_repeat_after_freeze_builds_a_new_record(self):
        tally = CrossingTally(self._record(0.5))
        before = tally.freeze()
        tally.add(self._record(0.25))
        after = tally.freeze()
        assert after is not before
        assert (before.observations, before.min_rtt_step_ms) == (1, 0.5)
        assert (after.observations, after.min_rtt_step_ms) == (2, 0.25)


@pytest.fixture(scope="module")
def small_corpus_batches():
    """Step 1 over the seed-0 small world's initial campaign, under the
    raw (unrepaired) IP-to-ASN mapping."""
    env = build_environment(PipelineConfig.small(seed=0))
    corpus = env.run_campaign()
    mapping = {
        address: env.cymru.lookup(address)
        for trace in corpus.traces
        for address in trace.responsive_addresses()
    }
    classifier = PeeringClassifier(env.facility_db)
    return classifier.parse(corpus.traces, mapping)


class TestParsedCorpus:
    def test_batch_keys_are_record_keys(self, small_corpus_batches):
        found = [pair for batch in small_corpus_batches if batch for pair in batch]
        assert len(found) > 1000
        assert all(key == record.key() for key, record in found)

    def test_corpus_fold_matches_frozen_merge(self, small_corpus_batches):
        tallies: dict[tuple, CrossingTally] = {}
        for batch in small_corpus_batches:
            if batch is not None:
                fold_crossings(tallies, batch)
        want = reference_rebuild(
            [reference_trace_records(batch) for batch in small_corpus_batches]
        )
        assert_same(frozen(tallies), want)
        assert sum(tally.observations > 1 for tally in tallies.values()) > 100
