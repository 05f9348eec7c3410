"""Section 3.2 measurement-cost experiment tests."""

from __future__ import annotations

import pytest

from repro.experiments import run_measurement_cost


class TestMeasurementCost:
    def test_lg_cost_dwarfs_atlas(self, small_env):
        cost = run_measurement_cost(small_env)
        # Rate-limited looking glasses are far costlier per target than
        # the concurrent Atlas campaign (the Section 3.2 asymmetry).
        assert cost.lg_wait_minutes > cost.atlas_minutes
        assert cost.lg_to_atlas_cost_ratio > 1.0

    def test_every_vantage_point_probed(self, small_env):
        cost = run_measurement_cost(small_env, seed=1)
        assert cost.atlas_traces == len(small_env.platforms.atlas.vantage_points)
        assert cost.lg_traces == len(
            small_env.platforms.looking_glasses.vantage_points
        )

    def test_unknown_target_rejected(self, small_env):
        with pytest.raises(ValueError):
            run_measurement_cost(small_env, target_asn=42)

    def test_format(self, small_env):
        cost = run_measurement_cost(small_env)
        text = cost.format()
        assert "ripe-atlas" in text and "looking-glass" in text


class TestConnectivityStats:
    def test_fractions_valid(self, small_env):
        from repro.experiments import run_as_connectivity_stats

        stats = run_as_connectivity_stats(small_env)
        assert stats.ases > 0
        assert 0.0 <= stats.multi_ixp_fraction <= 1.0
        assert 0.0 <= stats.multi_facility_fraction <= 1.0

    def test_paper_shape(self, small_env):
        """§3.1.1: majorities of ASes span multiple facilities, and many
        reach multiple exchanges."""
        from repro.experiments import run_as_connectivity_stats

        stats = run_as_connectivity_stats(small_env)
        assert stats.multi_facility_fraction > 0.4
        assert stats.multi_ixp_fraction > 0.2

    def test_format(self, small_env):
        from repro.experiments import run_as_connectivity_stats

        assert "IXP" in run_as_connectivity_stats(small_env).format()


class TestAliasCensus:
    def test_census_counts_consistent(self, small_run):
        from repro.experiments import run_alias_census

        env, corpus, _ = small_run
        census = run_alias_census(env, corpus)
        assert census.interfaces_probed > 100
        assert census.alias_sets > 0
        assert census.aliased_addresses >= 2 * census.alias_sets
        assert census.conflicting_sets <= census.alias_sets
        assert census.conflicting_addresses >= census.conflicting_sets

    def test_conflicts_exist(self, small_run):
        """§4.1: shared /31s guarantee conflicting alias sets."""
        from repro.experiments import run_alias_census

        env, corpus, _ = small_run
        census = run_alias_census(env, corpus)
        assert census.conflicting_sets > 0

    def test_format(self, small_run):
        from repro.experiments import run_alias_census

        env, corpus, _ = small_run
        assert "alias" in run_alias_census(env, corpus).format()
