"""Property tests: the shard-metrics merge is associative and
commutative, so any grouping of worker snapshots yields one result."""

from __future__ import annotations

from random import Random

from repro.obs import Instrumentation, MetricsSnapshot

COUNTER_NAMES = (
    "campaign.probe_sent",
    "campaign.probe_failed",
    "cfs.traces_parsed",
    "exec.campaign.shards",
)
STAGE_NAMES = ("campaign", "extract", "search")


def _random_snapshot(rng: Random) -> MetricsSnapshot:
    counters = {
        name: rng.randrange(0, 1_000_000)
        for name in COUNTER_NAMES
        if rng.random() < 0.8
    }
    stage_ns = {
        name: rng.randrange(0, 10**12)
        for name in STAGE_NAMES
        if rng.random() < 0.8
    }
    stage_calls = {name: rng.randrange(1, 50) for name in stage_ns}
    return MetricsSnapshot(
        counters=counters, stage_ns=stage_ns, stage_calls=stage_calls
    )


def _canonical(snapshot: MetricsSnapshot):
    return (
        dict(sorted(snapshot.counters.items())),
        dict(sorted(snapshot.stage_ns.items())),
        dict(sorted(snapshot.stage_calls.items())),
    )


class TestMergeAlgebra:
    def test_commutative_over_permutations(self):
        rng = Random(1234)
        for trial in range(25):
            snapshots = [_random_snapshot(rng) for _ in range(rng.randrange(2, 7))]
            reference = _canonical(MetricsSnapshot.merge_all(snapshots))
            for _ in range(5):
                shuffled = snapshots[:]
                rng.shuffle(shuffled)
                merged = MetricsSnapshot.merge_all(shuffled)
                assert _canonical(merged) == reference, trial

    def test_associative_over_groupings(self):
        rng = Random(99)
        for trial in range(25):
            snapshots = [_random_snapshot(rng) for _ in range(6)]
            flat = MetricsSnapshot.merge_all(snapshots)
            split = rng.randrange(1, 6)
            left = MetricsSnapshot.merge_all(snapshots[:split])
            right = MetricsSnapshot.merge_all(snapshots[split:])
            regrouped = MetricsSnapshot.merge_all([left, right])
            assert _canonical(regrouped) == _canonical(flat), trial

    def test_empty_merge_is_identity(self):
        empty = MetricsSnapshot.merge_all([])
        assert _canonical(empty) == ({}, {}, {})
        one = _random_snapshot(Random(7))
        assert _canonical(MetricsSnapshot.merge_all([one, empty])) == _canonical(one)

    def test_absorb_matches_merge(self):
        rng = Random(4242)
        snapshots = [_random_snapshot(rng) for _ in range(4)]
        instrumentation = Instrumentation()
        for snapshot in snapshots:
            instrumentation.absorb(snapshot)
        assert _canonical(instrumentation.snapshot()) == _canonical(
            MetricsSnapshot.merge_all(snapshots)
        )

    def test_counters_are_exact_integers(self):
        big = MetricsSnapshot(counters={"n": 2**62}, stage_ns={}, stage_calls={})
        merged = MetricsSnapshot.merge_all([big, big, big])
        assert merged.counters["n"] == 3 * 2**62  # no float rounding
