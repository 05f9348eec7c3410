"""Behavioural tests for ``supervised_map``: crashes, hangs, quarantine.

The worker functions are module-level (the fork path references them
from children) and *pid-guarded*: they only misbehave when running in a
forked child, so the parent's serial and quarantine paths always
compute the real result.  Marker files under a per-test directory make
"fail once, then succeed" workers, which is exactly the shape a
retry-on-rebuilt-pool supervisor must recover from.
"""

from __future__ import annotations

import os

import pytest

from repro.exec import (
    ExecFaultSpec,
    FALLBACK_REASONS,
    ShardExecutionError,
    SupervisorConfig,
    fork_available,
    supervised_map,
)
from repro.exec import supervise as supervise_module

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="platform cannot fork worker processes"
)


def _double(context, payload):
    return payload * 2


def _crash_in_child(context, payload):
    # context carries the parent pid: children die, the parent computes.
    if os.getpid() != context:
        os._exit(113)
    return payload * 2


def _crash_once(context, payload):
    value, marker_dir = payload
    marker = os.path.join(marker_dir, f"crashed-{value}")
    if os.getpid() != context["parent"] and not os.path.exists(marker):
        with open(marker, "w", encoding="utf-8"):
            pass
        os._exit(113)
    return value * 2


def _hang_once(context, payload):
    value, marker_dir = payload
    marker = os.path.join(marker_dir, f"hung-{value}")
    if (
        value % 2 == 0
        and os.getpid() != context["parent"]
        and not os.path.exists(marker)
    ):
        with open(marker, "w", encoding="utf-8"):
            pass
        import time

        time.sleep(60.0)
    return value * 2


def _boom(context, payload):
    if payload == 2:
        raise ValueError("payload two is cursed")
    return payload


class TestConfigValidation:
    def test_rejects_bad_knobs(self):
        with pytest.raises(ValueError, match="shard_timeout_s"):
            SupervisorConfig(shard_timeout_s=0)
        with pytest.raises(ValueError, match="max_retries"):
            SupervisorConfig(max_retries=-1)
        with pytest.raises(ValueError, match="max_pool_rebuilds"):
            SupervisorConfig(max_pool_rebuilds=-1)
        with pytest.raises(ValueError, match="crash"):
            ExecFaultSpec(crash=1.5)
        with pytest.raises(ValueError, match="hang_s"):
            ExecFaultSpec(hang_s=0)
        assert ExecFaultSpec().is_zero
        assert not ExecFaultSpec(crash=0.1).is_zero

    def test_fallback_vocabulary_is_closed(self):
        assert FALLBACK_REASONS == (
            "too_few_payloads",
            "no_fork",
            "pool_unavailable",
        )


class TestSerialPaths:
    def test_workers_one_matches_plain_map(self):
        result = supervised_map(_double, [1, 2, 3], workers=1)
        assert result == [2, 4, 6]

    def test_too_few_payloads_reports_fallback(self):
        reasons = []
        result = supervised_map(
            _double, [7], workers=4, fallback=reasons.append
        )
        assert result == [14]
        assert reasons == ["too_few_payloads"]
        assert all(reason in FALLBACK_REASONS for reason in reasons)


@needs_fork
class TestCrashRecovery:
    def test_worker_exit_mid_shard_is_retried_then_succeeds(self, tmp_path):
        payloads = [(value, str(tmp_path)) for value in range(6)]
        incidents = []
        result = supervised_map(
            _crash_once,
            payloads,
            workers=3,
            context={"parent": os.getpid()},
            config=SupervisorConfig(max_retries=2),
            observer=lambda kind, index, reason: incidents.append(kind),
        )
        assert result == [value * 2 for value in range(6)]
        assert "retry" in incidents
        assert "rebuild" in incidents

    def test_persistent_crasher_is_quarantined_to_serial(self):
        incidents = []
        result = supervised_map(
            _crash_in_child,
            list(range(5)),
            workers=2,
            context=os.getpid(),
            config=SupervisorConfig(max_retries=1),
            observer=lambda kind, index, reason: incidents.append(
                (kind, reason)
            ),
        )
        assert result == [value * 2 for value in range(5)]
        kinds = [kind for kind, _ in incidents]
        assert "quarantine" in kinds
        assert all(
            reason == "crash" for kind, reason in incidents if kind != "rebuild"
        )

    def test_matches_serial_output_byte_for_byte(self):
        supervised = supervised_map(
            _crash_in_child,
            list(range(8)),
            workers=4,
            context=os.getpid(),
            config=SupervisorConfig(max_retries=0),
        )
        serial = [_crash_in_child(os.getpid(), value) for value in range(8)]
        assert supervised == serial


@needs_fork
class TestHangRecovery:
    def test_shard_exceeding_deadline_is_killed_and_retried(self, tmp_path):
        payloads = [(value, str(tmp_path)) for value in range(4)]
        incidents = []
        result = supervised_map(
            _hang_once,
            payloads,
            workers=2,
            context={"parent": os.getpid()},
            config=SupervisorConfig(shard_timeout_s=0.5, max_retries=3),
            observer=lambda kind, index, reason: incidents.append(
                (kind, reason)
            ),
        )
        assert result == [value * 2 for value in range(4)]
        assert ("retry", "hang") in incidents or (
            "quarantine",
            "hang",
        ) in incidents


@needs_fork
class TestPoolRebuildFailure:
    def test_failed_rebuild_falls_back_to_serial(self, monkeypatch):
        real_new_pool = supervise_module._new_pool
        built = []

        def flaky_new_pool(workers, payload_count):
            if built:
                raise OSError("no more pools")
            built.append(True)
            return real_new_pool(workers, payload_count)

        monkeypatch.setattr(supervise_module, "_new_pool", flaky_new_pool)
        reasons = []
        result = supervised_map(
            _crash_in_child,
            list(range(6)),
            workers=2,
            context=os.getpid(),
            config=SupervisorConfig(max_retries=5),
            fallback=reasons.append,
        )
        assert result == [value * 2 for value in range(6)]
        assert reasons == ["pool_unavailable"]

    def test_exhausted_rebuild_budget_falls_back_to_serial(self):
        reasons = []
        result = supervised_map(
            _crash_in_child,
            list(range(6)),
            workers=2,
            context=os.getpid(),
            config=SupervisorConfig(max_retries=10, max_pool_rebuilds=1),
            fallback=reasons.append,
        )
        assert result == [value * 2 for value in range(6)]
        assert reasons == ["pool_unavailable"]

    def test_initial_pool_failure_falls_back_to_serial(self, monkeypatch):
        def no_pool(workers, payload_count):
            raise OSError("pools are off today")

        monkeypatch.setattr(supervise_module, "_new_pool", no_pool)
        reasons = []
        result = supervised_map(
            _double, list(range(4)), workers=2, fallback=reasons.append
        )
        assert result == [0, 2, 4, 6]
        assert reasons == ["pool_unavailable"]


@needs_fork
class TestSeededFaults:
    def test_injected_crashes_preserve_output_identity(self):
        faults = ExecFaultSpec(crash=0.4, seed=7)
        supervised = supervised_map(
            _double,
            list(range(16)),
            workers=4,
            config=SupervisorConfig(max_retries=2),
            faults=faults,
        )
        assert supervised == [value * 2 for value in range(16)]

    def test_injected_hangs_preserve_output_identity(self):
        faults = ExecFaultSpec(hang=0.3, hang_s=30.0, seed=5)
        supervised = supervised_map(
            _double,
            list(range(8)),
            workers=4,
            config=SupervisorConfig(shard_timeout_s=0.5, max_retries=3),
            faults=faults,
        )
        assert supervised == [value * 2 for value in range(8)]


class TestGenuineExceptions:
    def test_fn_exception_names_index_and_shard(self):
        with pytest.raises(ShardExecutionError, match="index 2.*block #2"):
            supervised_map(
                _boom,
                list(range(4)),
                workers=1,
                describe=lambda payload: f"block #{payload}",
            )

    @needs_fork
    def test_fn_exception_in_worker_is_wrapped_not_retried(self):
        incidents = []
        with pytest.raises(ShardExecutionError) as excinfo:
            supervised_map(
                _boom,
                list(range(4)),
                workers=2,
                observer=lambda kind, index, reason: incidents.append(kind),
            )
        assert excinfo.value.index == 2
        assert isinstance(excinfo.value.__cause__, ValueError)
        assert incidents == []


class TestRetryAccounting:
    """Retries are charged per shard *attempt*, not per pool incident.

    A dead worker fails every in-flight future (``BrokenProcessPool``
    cannot say which shard was on the dead child), and the supervisor
    used to charge each of them a retry — one crash amplified into a
    retry per in-flight shard and a cascade of rebuilds (the benchmark
    once recorded ``shard_retries: 16, pool_rebuilds: 8`` for a single
    killed worker).  With seeded faults the culprit is predictable from
    the ``(seed, index, attempt)`` draw, so only it is charged.
    """

    # seed 10 with 6 payloads at crash=0.5: exactly shard 2 draws a
    # crash at attempt 0, and its attempt-1 re-roll is clean.
    ONE_CRASH = ExecFaultSpec(crash=0.5, seed=10)

    def test_draw_prediction_matches_scenario(self):
        draws = [
            supervise_module._draw_faults(self.ONE_CRASH, index, 0)
            for index in range(6)
        ]
        assert draws == [False, False, True, False, False, False]
        assert not supervise_module._draw_faults(self.ONE_CRASH, 2, 1)

    @needs_fork
    def test_one_crash_charges_one_retry(self):
        incidents = []
        results = supervised_map(
            _double,
            list(range(6)),
            workers=2,
            config=SupervisorConfig(max_retries=2),
            faults=self.ONE_CRASH,
            observer=lambda kind, index, reason: incidents.append(
                (kind, index, reason)
            ),
        )
        assert results == [value * 2 for value in range(6)]
        retries = [entry for entry in incidents if entry[0] == "retry"]
        rebuilds = [entry for entry in incidents if entry[0] == "rebuild"]
        quarantines = [
            entry for entry in incidents if entry[0] == "quarantine"
        ]
        assert retries == [("retry", 2, "crash")]
        assert len(rebuilds) == 1
        assert quarantines == []

    @needs_fork
    def test_bystanders_keep_their_attempt_budget(self):
        """Shards killed alongside the culprit still get their full
        retry budget later: max_retries=0 quarantines only the culprit,
        never the bystanders that happened to share the pool."""
        incidents = []
        results = supervised_map(
            _double,
            list(range(6)),
            workers=2,
            config=SupervisorConfig(max_retries=0),
            faults=self.ONE_CRASH,
            observer=lambda kind, index, reason: incidents.append(
                (kind, index)
            ),
        )
        assert results == [value * 2 for value in range(6)]
        assert ("quarantine", 2) in incidents
        assert not any(
            kind == "quarantine" and index != 2 for kind, index in incidents
        )
