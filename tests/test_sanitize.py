"""reprosan runtime sanitizer: gating, tripwires, provenance, and the
sanitized pipeline/soak paths.

The deliberate violations here are the runtime half of the
static/runtime pairing — the same patterns appear as reprolint flow
fixtures in ``tests/devtools/test_rules_flow.py`` and must be caught
both ways.
"""

from __future__ import annotations

import dataclasses
from random import Random

import pytest

from repro import sanitize
from repro.checkpoint import config_fingerprint
from repro.core.pipeline import PipelineConfig, run_pipeline
from repro.exec import substream
from repro.obs import Instrumentation, MemorySink
from repro.sanitize import (
    SanitizerViolation,
    TripwireMapping,
    armed,
    assert_rng,
    tag_rng,
)
from repro.serve.health import ServiceHealth
from repro.serve.snapshot import build_snapshot


@pytest.fixture(autouse=True)
def _isolated_sanitizer():
    """Every test starts and ends in environment-driven, clean state."""
    sanitize.reset()
    yield
    sanitize.reset()


# ----------------------------------------------------------------------
# Gating and recording
# ----------------------------------------------------------------------


class TestGating:
    def test_disabled_by_default(self):
        assert not sanitize.enabled()

    def test_env_flag_enables(self, monkeypatch):
        monkeypatch.setenv(sanitize.ENV_FLAG, "1")
        assert sanitize.enabled()
        monkeypatch.setenv(sanitize.ENV_FLAG, "0")
        assert not sanitize.enabled()

    def test_force_overrides_env(self, monkeypatch):
        monkeypatch.setenv(sanitize.ENV_FLAG, "1")
        sanitize.disable()
        assert not sanitize.enabled()
        sanitize.enable()
        assert sanitize.enabled()

    def test_armed_scope_restores_prior_state(self):
        assert not sanitize.enabled()
        with armed():
            assert sanitize.enabled()
        assert not sanitize.enabled()

    def test_record_violation_appends_raises_and_emits(self):
        sink = MemorySink()
        obs = Instrumentation(sink, strict=True)
        sanitize.attach_observer(obs)
        with pytest.raises(SanitizerViolation, match="kindname: detail"):
            sanitize.record_violation("kindname", "detail")
        assert sanitize.violations() == (
            {"kind": "kindname", "detail": "detail"},
        )
        (event,) = sink.by_name("sanitizer.violation")
        assert event.payload["kind"] == "kindname"
        assert obs.counter("sanitizer.violation") == 1

    def test_violation_is_an_assertion(self):
        # Supervisors contain operational failures but never
        # assertions, so a trip always fails loud (R008's carve-out).
        assert issubclass(SanitizerViolation, AssertionError)


# ----------------------------------------------------------------------
# RNG provenance
# ----------------------------------------------------------------------


class TestRngProvenance:
    def test_substream_is_born_tagged(self):
        rng = substream("trace", 0, "vp", 7)
        assert sanitize.rng_provenance(rng) == "trace:0:vp:7"

    def test_tagging_does_not_change_draws(self):
        tagged = tag_rng(Random(5), "x", 5)
        assert tagged.random() == Random(5).random()

    def test_assert_rng_passes_tagged_stream(self):
        with armed():
            rng = substream("ok", 1)
            assert assert_rng(rng, "site") is rng

    def test_assert_rng_trips_on_ambient_stream(self):
        # Runtime half of R001: an RNG that did not come from
        # substream()/tag_rng() reaching a draw chokepoint.
        with armed():
            with pytest.raises(SanitizerViolation, match="rng.untagged"):
                assert_rng(Random(), "test.site")

    def test_assert_rng_trips_when_armed_by_environment(self, monkeypatch):
        monkeypatch.setenv(sanitize.ENV_FLAG, "1")
        assert_rng(substream("ok", 1), "site")
        with pytest.raises(SanitizerViolation, match="rng.untagged"):
            assert_rng(Random(), "test.site")

    def test_assert_rng_is_silent_when_disarmed(self):
        assert_rng(Random(), "test.site")
        assert sanitize.violations() == ()


# ----------------------------------------------------------------------
# Write tripwires
# ----------------------------------------------------------------------


class TestTripwireMapping:
    def test_reads_delegate(self):
        wrapped = TripwireMapping({"a": 1, "b": 2}, "test")
        assert wrapped["a"] == 1
        assert sorted(wrapped) == ["a", "b"]
        assert len(wrapped) == 2
        assert "b" in wrapped
        assert dict(wrapped) == {"a": 1, "b": 2}

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda m: m.__setitem__("x", 1),
            lambda m: m.__delitem__("a"),
            lambda m: m.clear(),
            lambda m: m.pop("a"),
            lambda m: m.popitem(),
            lambda m: m.setdefault("x", 1),
            lambda m: m.update({"x": 1}),
        ],
    )
    def test_every_mutator_trips(self, mutate):
        wrapped = TripwireMapping({"a": 1}, "test")
        with pytest.raises(SanitizerViolation, match="snapshot.write"):
            mutate(wrapped)
        assert wrapped["a"] == 1  # the underlying data is untouched

    def test_snapshot_indices_are_tripwired_when_armed(self, small_run):
        _, corpus, result = small_run
        with armed():
            snapshot = build_snapshot(
                result,
                epoch=1,
                final=True,
                seed=3,
                config_fingerprint="cfg",
                traces_ingested=len(corpus),
            )
            # Runtime half of R005: in-place mutation of a
            # published index.
            with pytest.raises(SanitizerViolation, match="snapshot.stats"):
                snapshot.stats["interfaces"] = 0
        violation = sanitize.violations()[-1]
        assert violation["kind"] == "snapshot.write"


class TestHealthGuard:
    def test_documented_mutators_pass_while_armed(self):
        with armed():
            health = ServiceHealth()
            health.record_failure(reason="probe failed")
            health.record_quarantine(2)
            health.record_rollback("epoch-3")
            health.subscribe(lambda old, new, reason: None)
        assert health.state in ("degraded", "stale")
        assert sanitize.violations() == ()

    def test_direct_state_write_trips(self):
        # Runtime half of R005: poking health state from outside
        # the documented mutation points.
        health = ServiceHealth()
        with armed():
            with pytest.raises(SanitizerViolation, match="health.write"):
                health._state = "degraded"
        assert sanitize.violations()[0]["kind"] == "health.write"

    def test_direct_write_passes_when_disarmed(self):
        health = ServiceHealth()
        health._state = "degraded"  # ungoverned, but sanitizer is off
        assert health.state == "degraded"


# ----------------------------------------------------------------------
# The sanitized pipeline and soak paths
# ----------------------------------------------------------------------


class TestSanitizedRuns:
    def test_sanitize_is_a_transient_config_field(self):
        base = PipelineConfig.small(seed=0)
        flipped = dataclasses.replace(base, sanitize=True)
        assert config_fingerprint(base) == config_fingerprint(flipped)

    def test_pipeline_clean_and_byte_identical_under_sanitizer(self):
        plain = run_pipeline(PipelineConfig.small(seed=0))
        sink = MemorySink()
        sanitized = run_pipeline(
            dataclasses.replace(PipelineConfig.small(seed=0), sanitize=True),
            instrumentation=Instrumentation(sink),
        )
        assert sanitize.violations() == ()
        assert sink.by_name("sanitizer.violation") == []
        assert not sanitize.enabled()  # the armed scope was restored

        def fingerprint(run):
            return build_snapshot(
                run.cfs_result,
                epoch=0,
                final=True,
                seed=0,
                config_fingerprint="cfg",
                traces_ingested=len(run.corpus),
            ).fingerprint

        assert fingerprint(sanitized) == fingerprint(plain)

    def test_soak_smoke_sanitized_zero_violations(self):
        from repro.serve.soak import run_soak

        report = run_soak(
            seed=8,
            scale="small",
            epochs=3,
            threads=2,
            verify_identity=False,
            sanitize=True,
        )
        assert report.sanitized
        assert report.sanitizer_violations == 0
        assert report.queries > 0
        assert report.ok
        assert report.as_dict()["sanitizer_violations"] == 0
        assert not sanitize.enabled()
