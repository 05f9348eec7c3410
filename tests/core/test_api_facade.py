"""The stable ``repro.api`` facade and config construction/validation."""

from __future__ import annotations

import pytest

import repro
from repro import api
from repro.core.cfs import CfsConfig, FOLLOWUP_STRATEGIES
from repro.core.pipeline import PipelineConfig, PipelineResult
from repro.topology.builder import TopologyConfig


class TestCfsConfigValidation:
    def test_defaults_valid(self):
        config = CfsConfig()
        assert config.followup_strategy in FOLLOWUP_STRATEGIES

    def test_unknown_strategy_rejected_at_construction(self):
        with pytest.raises(ValueError, match="nearest-first"):
            CfsConfig(followup_strategy="nearest-first")

    @pytest.mark.parametrize(
        "overrides",
        [
            {"max_iterations": 0},
            {"followup_budget": -1},
            {"alias_refresh_fraction": -0.5},
        ],
    )
    def test_out_of_range_knobs_rejected(self, overrides):
        with pytest.raises(ValueError):
            CfsConfig(**overrides)

    def test_replace_overrides_and_keeps_the_rest(self):
        base = CfsConfig(max_iterations=7)
        variant = base.replace(use_followups=False)
        assert variant.use_followups is False
        assert variant.max_iterations == 7
        assert base.use_followups is True  # original untouched

    def test_replace_revalidates(self):
        with pytest.raises(ValueError):
            CfsConfig().replace(followup_strategy="bogus")


class TestPipelineConfigScales:
    def test_large_uses_large_topology(self):
        config = PipelineConfig.large(seed=4)
        assert config.seed == 4
        large = TopologyConfig.large(seed=5)
        assert config.topology == large

    @pytest.mark.parametrize("scale", PipelineConfig.SCALES)
    def test_for_scale_routes_to_classmethods(self, scale):
        config = PipelineConfig.for_scale(scale, seed=9)
        expected = getattr(PipelineConfig, scale if scale != "default" else "default")(seed=9)
        assert config == expected

    def test_for_scale_rejects_unknown(self):
        with pytest.raises(ValueError, match="galactic"):
            PipelineConfig.for_scale("galactic")


class TestApiFacade:
    def test_reexported_from_package_root(self):
        assert repro.run_pipeline is api.run_pipeline
        assert repro.build_environment is api.build_environment
        assert repro.build_topology is api.build_topology

    def test_config_and_keywords_are_exclusive(self):
        with pytest.raises(ValueError):
            api.run_pipeline(config=PipelineConfig.small(seed=0), seed=1)
        with pytest.raises(ValueError):
            api.build_environment(
                config=PipelineConfig.small(seed=0), scale="small"
            )
        with pytest.raises(ValueError):
            api.build_topology(config=TopologyConfig.small(seed=0), seed=1)

    def test_build_topology_matches_pipeline_topology(self):
        direct = api.build_topology(seed=6, scale="small")
        env = api.build_environment(seed=6, scale="small")
        assert direct.summary() == env.topology.summary()

    def test_build_environment_positional_config_rejected(self):
        config = PipelineConfig.small(seed=6)
        with pytest.raises(TypeError, match="positional"):
            api.build_environment(config)

    def test_positional_and_keyword_config_together_rejected(self):
        config = PipelineConfig.small(seed=6)
        with pytest.raises(TypeError, match="positional"):
            api.run_pipeline(config, config=config)

    def test_serving_surface_reexported(self):
        assert api.open_snapshot is repro.api.open_snapshot
        assert callable(api.serve_map)
        assert callable(api.query)
        # Lazy re-exports resolve and cache.
        assert api.MapSnapshot is api.MapSnapshot
        assert api.ServiceHandle.__name__ == "ServiceHandle"

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no attribute"):
            api.not_a_symbol

    def test_run_pipeline_by_seed_and_scale(self):
        result = api.run_pipeline(seed=5, scale="small")
        assert isinstance(result, PipelineResult)
        assert result.cfs_result.peering_interfaces_seen > 0
        # The facade threads one instrumented run end to end.
        assert result.cfs_result.metrics is not None
        assert result.cfs_result.metrics.counter("cfs.iterations") == (
            result.cfs_result.iterations_run
        )
