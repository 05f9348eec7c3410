"""RTT model tests: propagation, jitter, the metro-local bound."""

from __future__ import annotations

from random import Random

import pytest

from repro.measurement.rtt import RttConfig, RttModel
from repro.topology.geo import GeoLocation

LONDON = GeoLocation(51.5074, -0.1278)
FRANKFURT = GeoLocation(50.1109, 8.6821)
TOKYO = GeoLocation(35.6762, 139.6503)


class TestPathRtt:
    def test_monotone_with_path_extension(self):
        model = RttModel(seed=1)
        short = model.path_rtt_ms([LONDON, FRANKFURT])
        longer = model.path_rtt_ms([LONDON, FRANKFURT, TOKYO])
        assert longer > short

    def test_zero_hop_path(self):
        model = RttModel(seed=1)
        assert model.path_rtt_ms([LONDON]) == pytest.approx(
            model.config.access_ms
        )

    def test_incremental_matches_batch(self):
        model = RttModel(seed=1)
        locations = [LONDON, FRANKFURT, TOKYO]
        one_way = model.config.access_ms / 2.0
        for here, there in zip(locations, locations[1:]):
            one_way += model.step_one_way_ms(here, there)
        assert 2.0 * one_way == pytest.approx(model.path_rtt_ms(locations))

    def test_transcontinental_magnitude(self):
        model = RttModel(seed=1)
        rtt = model.path_rtt_ms([LONDON, TOKYO])
        assert 80 < rtt < 250  # ~9,500 km of inflated fiber, both ways


class TestSampling:
    def test_sample_at_least_base(self):
        model = RttModel(seed=2)
        base = model.path_rtt_ms([LONDON, FRANKFURT])
        for _ in range(50):
            assert model.sample_rtt_ms([LONDON, FRANKFURT]) >= base

    def test_min_of_samples_approaches_base(self):
        config = RttConfig(congestion_prob=0.5)
        model = RttModel(config, seed=3)
        base = model.path_rtt_ms([LONDON, FRANKFURT])
        best = min(model.sample_rtt_ms([LONDON, FRANKFURT]) for _ in range(100))
        assert best <= base + config.jitter_ms

    def test_congestion_spikes_occur(self):
        config = RttConfig(congestion_prob=1.0, congestion_ms=100.0, jitter_ms=0.0)
        model = RttModel(config, seed=4)
        base = model.path_rtt_ms([LONDON, FRANKFURT])
        samples = [model.sample_rtt_ms([LONDON, FRANKFURT]) for _ in range(20)]
        assert max(samples) > base + 1.0


class TestMinSampleKernel:
    @pytest.mark.parametrize("samples", [1, 2, 3, 5])
    def test_bit_identical_to_min_of_samples(self, samples):
        # High congestion odds so spikes land on every position.
        model = RttModel(RttConfig(congestion_prob=0.4), seed=1)
        for seed in range(200):
            one_way = 0.5 + seed * 0.731
            reference_rng, kernel_rng = Random(seed), Random(seed)
            expected = min(
                model.sample_from_one_way(one_way, rng=reference_rng)
                for _ in range(samples)
            )
            observed = model.min_sample_ms(one_way, kernel_rng, samples)
            assert repr(observed) == repr(expected)
            # Same draws consumed: the streams stay in lockstep.
            assert kernel_rng.random() == reference_rng.random()

    def test_rejects_zero_samples(self):
        with pytest.raises(ValueError):
            RttModel(seed=1).min_sample_ms(1.0, Random(0), 0)


class TestMetroLocalBound:
    def test_bound_separates_local_from_remote(self):
        model = RttModel(seed=5)
        bound = model.metro_local_bound_ms()
        # Same metro (a few km): far below the bound.
        nearby = GeoLocation(51.52, -0.10)
        local_step = 2 * model.step_one_way_ms(LONDON, nearby)
        assert local_step < bound
        # Frankfurt is not in the London metro: far above the bound.
        remote_step = 2 * model.step_one_way_ms(LONDON, FRANKFURT)
        assert remote_step > bound
