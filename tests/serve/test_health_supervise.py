"""The self-healing service: health machine, supervised ingest,
publish rollback, retention, and resume hardening.

The scripted-injector tests pin each recovery path one at a time (retry
then succeed, retry-exhaust then quarantine, corrupt publish then
rollback); the seeded end-to-end test runs the real moderate-intensity
fault plan and checks the acceptance contract — the service stays
answerable throughout and the final fingerprint still equals the
fault-free stream's.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.api import serve_map
from repro.core import PipelineConfig
from repro.faults import EpochIngestFault, FaultInjector, FaultPlan
from repro.measurement.campaign import TraceCorpus
from repro.obs import Instrumentation, MemorySink
from repro.serve import (
    MapService,
    ServiceHealth,
    ServicePolicy,
    open_snapshot,
)
from repro.serve.health import HealthPolicy, snapshot_data_health
from repro.serve.ingest import StreamingCfs
from repro.serve.service import STREAM_EPOCH_PREFIX, STREAM_STAGE

#: Matches the shared ``small_stream_handle`` fixture (seed 3, 3 epochs),
#: whose final fingerprint is the clean baseline the fault runs must hit.
SEED = 3
EPOCHS = 3

RESUME_SEED = 11


class ScriptedInjector(FaultInjector):
    """Fails exactly the scripted (epoch, attempt) / (stage, attempt)
    pairs — no randomness, so each recovery path is pinned in isolation.

    The non-zero plan rates only mark the plan as serve-perturbing
    (disabling the mid-stream checkpoint, as any real service-fault
    plan would); the overridden hooks ignore them.
    """

    def __init__(self, *, epoch_failures=(), corrupt_publishes=()):
        super().__init__(FaultPlan(epoch_fail=1.0, snapshot_corrupt=1.0), seed=0)
        self.epoch_failures = set(epoch_failures)
        self.corrupt_publishes = set(corrupt_publishes)

    def check_epoch(self, epoch: int, attempt: int) -> None:
        if (epoch, attempt) in self.epoch_failures:
            raise EpochIngestFault(
                f"scripted failure of epoch {epoch} attempt {attempt}"
            )

    def corrupt_snapshot_payload(self, payload, *, stage, attempt):
        if (stage, attempt) in self.corrupt_publishes:
            torn = dict(payload)
            torn["fingerprint"] = "torn"
            return torn
        return payload


def make_service(
    *,
    injector=None,
    policy=None,
    checkpoint_dir=None,
    sink=None,
    notices=None,
):
    config = PipelineConfig.small(seed=SEED)
    if checkpoint_dir is not None:
        config = dataclasses.replace(config, checkpoint_dir=str(checkpoint_dir))
    service = MapService(
        config,
        instrumentation=Instrumentation(sink) if sink is not None else None,
        policy=policy,
        progress=notices.append if notices is not None else None,
    )
    if injector is not None:
        service.environment.fault_injector = injector
    return service


def published_epochs(handle):
    return [(s.epoch, s.final) for s in handle.snapshots]


# ----------------------------------------------------------------------
# The health state machine
# ----------------------------------------------------------------------


class TestServiceHealth:
    def test_failure_then_two_publishes_is_the_two_step_recovery(
        self, small_snapshot
    ):
        health = ServiceHealth()
        assert health.state == "ok"
        health.record_failure(reason="epoch 0 attempt 0 failed")
        assert health.state == "degraded"
        assert health.consecutive_failures == 1
        health.record_publish(small_snapshot)
        assert health.state == "recovering"
        assert health.consecutive_failures == 0
        health.record_publish(small_snapshot)
        assert health.state == "ok"
        assert [edge[:2] for edge in health.transitions] == [
            ("ok", "degraded"),
            ("degraded", "recovering"),
            ("recovering", "ok"),
        ]

    def test_falling_stale_after_enough_missed_epochs(self):
        health = ServiceHealth(policy=HealthPolicy(stale_after=2))
        health.record_quarantine(1)
        assert health.state == "degraded"
        assert health.epochs_behind == 1
        health.record_rollback("snapshot-epoch-2")
        assert health.state == "stale"
        assert health.epochs_behind == 2
        assert health.quarantined_epochs == (1,)
        assert health.rollbacks == 1

    def test_transition_rejects_unknown_states(self):
        health = ServiceHealth()
        with pytest.raises(ValueError, match="unknown health state"):
            health.transition("on-fire", reason="test")
        # Same-state transitions are silent no-ops, not recorded edges.
        health.transition("ok", reason="noop")
        assert health.transitions == ()

    def test_subscribers_see_every_edge(self):
        health = ServiceHealth()
        seen = []
        health.subscribe(lambda old, new, reason: seen.append((old, new)))
        health.record_failure(reason="boom")
        assert seen == [("ok", "degraded")]

    def test_report_carries_version_and_data_aggregates(self, small_snapshot):
        health = ServiceHealth()
        bare = health.report(None)
        assert bare["state"] == "ok"
        assert "fingerprint" not in bare
        assert bare["data"] == {
            "interfaces": 0,
            "ok_fraction": None,
            "mean_confidence": None,
        }
        document = health.report(small_snapshot)
        assert document["fingerprint"] == small_snapshot.fingerprint
        data = document["data"]
        assert data["interfaces"] == len(small_snapshot.interfaces)
        assert 0.0 <= data["ok_fraction"] <= 1.0
        assert data["mean_confidence"] > 0

    def test_data_health_aggregate_matches_hand_count(self, small_snapshot):
        data = snapshot_data_health(small_snapshot)
        healthy = sum(
            1
            for entry in small_snapshot.interfaces.values()
            if entry.data_health == "ok"
        )
        assert data["ok_fraction"] == round(
            healthy / len(small_snapshot.interfaces), 6
        )


# ----------------------------------------------------------------------
# Supervised ingest: retry, quarantine, drain
# ----------------------------------------------------------------------


class TestSupervisedIngest:
    def test_epoch_retry_then_succeed_is_invisible_in_the_map(
        self, small_stream_handle
    ):
        sink = MemorySink()
        service = make_service(
            injector=ScriptedInjector(epoch_failures={(1, 0)}),
            policy=ServicePolicy(max_epoch_retries=1),
            sink=sink,
        )
        handle = service.run_stream(epochs=EPOCHS)
        assert service.supervisor.retries == 1
        assert service.supervisor.quarantined == []
        assert (
            handle.final.fingerprint
            == small_stream_handle.final.fingerprint
        )
        # Every epoch still published, in order.
        assert published_epochs(handle) == [
            (0, False), (1, False), (2, False), (3, True),
        ]
        (retry,) = sink.by_name("serve.epoch.retry")
        assert retry.payload["epoch"] == 1
        assert service.health.state == "ok"  # recovered fully

    def test_retry_exhaustion_quarantines_and_keeps_serving(
        self, small_stream_handle
    ):
        sink = MemorySink()
        during = []

        class ProbeOnQuarantine(list):
            """Queries the live engine the moment quarantine is announced."""

            service = None

            def append(self, message):
                super().append(message)
                if (
                    self.service is not None
                    and "serving last good snapshot" in message
                ):
                    during.append(self.service.engine.execute("info"))

        notices = ProbeOnQuarantine()
        service = make_service(
            injector=ScriptedInjector(epoch_failures={(1, 0), (1, 1)}),
            policy=ServicePolicy(max_epoch_retries=1),
            sink=sink,
            notices=notices,
        )
        notices.service = service
        handle = service.run_stream(epochs=EPOCHS)

        # The quarantine moment: the service still answered, from the
        # last good (epoch 0) snapshot, without an error.
        (answer,) = during
        assert "error" not in answer
        assert answer["epoch"] == 0
        assert service.supervisor.quarantined == [1]
        assert service.supervisor.drains == 1
        assert service.health.quarantined_epochs == (1,)
        # Epoch 1 has no interim snapshot; the drain still feeds its
        # traces to the final pass, so the map converges identically.
        assert published_epochs(handle) == [(0, False), (2, False), (3, True)]
        assert (
            handle.final.fingerprint
            == small_stream_handle.final.fingerprint
        )
        (quarantine,) = sink.by_name("serve.epoch.quarantine")
        assert quarantine.payload == {"epoch": 1, "attempts": 2}
        # Recovery is the observable two-step: degraded -> recovering -> ok.
        edges = [edge[:2] for edge in service.health.transitions]
        assert ("degraded", "recovering") in edges
        assert edges[-1] == ("recovering", "ok")
        assert service.health.state == "ok"

    def test_corrupt_publish_rolls_back_to_last_good_stage(
        self, small_stream_handle, tmp_path
    ):
        sink = MemorySink()
        stage = "snapshot-epoch-1"
        service = make_service(
            injector=ScriptedInjector(
                corrupt_publishes={(stage, 0), (stage, 1)}
            ),
            policy=ServicePolicy(max_publish_retries=1),
            checkpoint_dir=tmp_path,
            sink=sink,
        )
        handle = service.run_stream(epochs=EPOCHS)
        assert service.supervisor.rollbacks == 1
        assert service.supervisor.publish_retries == 1
        # The corrupt stage was dropped; its neighbours survived.
        assert service.store.stage_digest(stage) is None
        assert service.store.stage_digest("snapshot-epoch-0") is not None
        assert service.store.stage_digest("snapshot-final") is not None
        assert published_epochs(handle) == [(0, False), (2, False), (3, True)]
        assert (
            handle.final.fingerprint
            == small_stream_handle.final.fingerprint
        )
        (rollback,) = sink.by_name("serve.snapshot.rollback")
        assert rollback.payload["stage"] == stage
        assert rollback.payload["fallback"] == "snapshot-epoch-0"
        # The durable directory's best snapshot is the (good) final.
        assert (
            open_snapshot(str(tmp_path)).fingerprint
            == handle.final.fingerprint
        )

    def test_corrupt_publish_once_is_retried_and_kept(self, tmp_path):
        stage = "snapshot-epoch-1"
        service = make_service(
            injector=ScriptedInjector(corrupt_publishes={(stage, 0)}),
            policy=ServicePolicy(max_publish_retries=1),
            checkpoint_dir=tmp_path,
        )
        handle = service.run_stream(epochs=EPOCHS)
        assert service.supervisor.publish_retries == 1
        assert service.supervisor.rollbacks == 0
        assert service.store.stage_digest(stage) is not None
        assert published_epochs(handle) == [
            (0, False), (1, False), (2, False), (3, True),
        ]

    def test_retention_ring_bounds_durable_epoch_stages(self, tmp_path):
        service = make_service(
            policy=ServicePolicy(snapshot_retention=2),
            checkpoint_dir=tmp_path,
        )
        service.run_stream(epochs=4)
        assert service.store.stage_digest("snapshot-epoch-0") is None
        assert service.store.stage_digest("snapshot-epoch-1") is None
        assert service.store.stage_digest("snapshot-epoch-2") is not None
        assert service.store.stage_digest("snapshot-epoch-3") is not None
        # The final stage never rotates out.
        assert service.store.stage_digest("snapshot-final") is not None


# ----------------------------------------------------------------------
# The real fault plan, end to end
# ----------------------------------------------------------------------


class TestSeededServiceFaults:
    def test_moderate_service_faults_heal_to_the_clean_fingerprint(
        self, tmp_path
    ):
        seed, epochs = 8, 8
        sink = MemorySink()
        faulty = MapService(
            dataclasses.replace(
                PipelineConfig.small(seed=seed),
                faults=FaultPlan(epoch_fail=0.30, snapshot_corrupt=0.30),
                checkpoint_dir=str(tmp_path),
            ),
            instrumentation=Instrumentation(sink),
            policy=ServicePolicy(max_epoch_retries=1, max_publish_retries=1),
        )
        handle = faulty.run_stream(epochs=epochs)
        supervisor = faulty.supervisor
        # This seed deterministically exercises both recovery paths
        # (the soak harness and BENCH_soak.json pin the same profile).
        assert len(supervisor.quarantined) >= 1
        assert supervisor.rollbacks >= 1
        assert sink.by_name("serve.epoch.quarantine")
        assert sink.by_name("serve.snapshot.rollback")
        assert sink.by_name("serve.health.transition")

        clean = MapService(PipelineConfig.small(seed=seed)).run_stream(
            epochs=epochs
        )
        assert handle.final.fingerprint == clean.final.fingerprint

        document = handle.health()
        assert document["state"] in ("ok", "recovering")
        assert document["quarantined_epochs"] == list(supervisor.quarantined)
        assert document["rollbacks"] == supervisor.rollbacks
        json.dumps(document)  # the health verb's answer is JSON-clean

    def test_soak_smoke_zero_query_errors_under_faults(self):
        from repro.serve.soak import run_soak

        report = run_soak(
            seed=8, scale="small", epochs=4, threads=2, verify_identity=False
        )
        assert report.queries > 0
        assert report.query_errors == 0
        assert report.availability == 1.0
        assert report.identical is None  # identity gate skipped
        assert sum(report.staleness.values()) == report.queries
        json.dumps(report.as_dict())


# ----------------------------------------------------------------------
# Resume hardening: every malformed stream-index and epoch-stage branch
# ----------------------------------------------------------------------

#: The paused fixture stream's last epoch stage (epoch 0 before it is
#: sound, so a refusal here shows nothing was restored early).
EPOCH_STAGE = f"{STREAM_EPOCH_PREFIX}1"


def _bool_epoch(index, store):
    index["epoch"] = True


def _zero_epoch(index, store):
    index["epoch"] = 0


def _string_epoch(index, store):
    index["epoch"] = str(index["epoch"])


def _missing_epoch(index, store):
    del index["epoch"]


def _boundaries_not_list(index, store):
    index["boundaries"] = {"0": index["boundaries"][0]}


def _boundaries_wrong_length(index, store):
    index["boundaries"] = index["boundaries"] + [index["boundaries"][-1]]


def _boundaries_bool(index, store):
    index["boundaries"][0] = True


def _boundaries_negative(index, store):
    index["boundaries"][0] = -1


def _boundaries_decreasing(index, store):
    index["boundaries"].reverse()


def _plan_mismatch(index, store):
    index["task_sizes"] = [1, 2, 3]


def _rewrite_epoch_stage(index, store, payload):
    """Replace the epoch stage and re-list it, so the index trusts it."""
    store.write_stage(EPOCH_STAGE, payload)
    index["epoch_digests"][-1] = store.stage_digest(EPOCH_STAGE)


def _epoch_stage_undecodable(index, store):
    _rewrite_epoch_stage(index, store, {"bogus": 1})


def _epoch_stage_missing(index, store):
    store.drop_stage(EPOCH_STAGE)


def _epoch_count_mismatch(index, store):
    stage = store.load_stage(EPOCH_STAGE)
    stage["traces"].pop()
    _rewrite_epoch_stage(index, store, stage)


def _epoch_digest_mismatch(index, store):
    # A decodable, self-consistent stage the index does not list.
    stage = store.load_stage(EPOCH_STAGE)
    stage["traces"].pop()
    store.write_stage(EPOCH_STAGE, stage)


def _parent_layout(index, store):
    # The whole-corpus layout: the corpus inline, no digest list.
    index["campaign"] = store.load_stage(EPOCH_STAGE)
    del index["epoch_digests"]


_TAMPER_CASES = [
    pytest.param(_bool_epoch, "unknown layout", id="bool-epoch"),
    pytest.param(_zero_epoch, "unknown layout", id="zero-epoch"),
    pytest.param(_string_epoch, "unknown layout", id="string-epoch"),
    pytest.param(_missing_epoch, "unknown layout", id="missing-epoch"),
    pytest.param(
        _boundaries_not_list, "unknown layout", id="boundaries-not-list"
    ),
    pytest.param(
        _boundaries_wrong_length, "unknown layout", id="boundaries-length"
    ),
    pytest.param(_boundaries_bool, "unknown layout", id="boundaries-bool"),
    pytest.param(
        _boundaries_negative, "unknown layout", id="boundaries-negative"
    ),
    pytest.param(
        _boundaries_decreasing, "unknown layout", id="boundaries-decreasing"
    ),
    pytest.param(_plan_mismatch, "planned differently", id="plan-mismatch"),
    pytest.param(
        _epoch_stage_undecodable, "undecodable", id="epoch-stage-undecodable"
    ),
    pytest.param(
        _epoch_stage_missing, "missing or differs", id="epoch-stage-missing"
    ),
    pytest.param(
        _epoch_count_mismatch,
        "disagree with its corpus",
        id="epoch-count-mismatch",
    ),
    pytest.param(
        _epoch_digest_mismatch, "missing or differs", id="epoch-digest-mismatch"
    ),
    pytest.param(_parent_layout, "unknown layout", id="parent-layout"),
]


@pytest.fixture(scope="module")
def paused_checkpoint_dir(tmp_path_factory):
    checkpoint_dir = str(tmp_path_factory.mktemp("resume") / "ckpt")
    paused = serve_map(
        seed=RESUME_SEED, scale="small", epochs=EPOCHS,
        checkpoint_dir=checkpoint_dir, stop_after_epoch=1,
    )
    assert paused.final is None
    return checkpoint_dir


@pytest.fixture(scope="module")
def resume_probe(paused_checkpoint_dir):
    """One resume-configured service plus its pristine stream stages.

    Shared across the tamper cases: each restores the pristine epoch
    stage, writes a mutated index (and maybe epoch stage) and calls
    ``_try_resume`` directly, asserting the malformed state is refused
    (never decoded into a half-restored stream).
    """
    notices: list[str] = []
    config = dataclasses.replace(
        PipelineConfig.small(seed=RESUME_SEED),
        checkpoint_dir=paused_checkpoint_dir,
        resume=True,
    )
    service = MapService(config, progress=notices.append)
    pristine = service.store.load_stage(STREAM_STAGE)
    assert isinstance(pristine, dict)
    pristine_epoch = service.store.load_stage(EPOCH_STAGE)
    assert isinstance(pristine_epoch, dict)
    return service, notices, pristine, pristine_epoch


def _accounting(service):
    environment = service.environment
    return (
        environment.engine.issue_baseline(),
        environment.platforms.looking_glasses.query_state(),
    )


class TestResumeHardening:
    @pytest.mark.parametrize("tamper, fragment", _TAMPER_CASES)
    def test_malformed_stream_stage_degrades_to_fresh(
        self, resume_probe, tamper, fragment
    ):
        service, notices, pristine, pristine_epoch = resume_probe
        store = service.store
        store.write_stage(EPOCH_STAGE, pristine_epoch)
        index = json.loads(json.dumps(pristine))  # deep copy
        tamper(index, store)
        store.write_stage(STREAM_STAGE, index)
        before = _accounting(service)
        corpus = TraceCorpus()
        result = service._try_resume(
            list(pristine["task_sizes"]),
            StreamingCfs(service.environment),
            corpus,
        )
        assert result == (0, None, [])
        assert fragment in notices[-1]
        # Refused before anything was restored.
        assert len(corpus) == 0
        assert _accounting(service) == before

    def test_non_dict_stream_stage_degrades_to_fresh(self, resume_probe):
        service, notices, pristine, _pristine_epoch = resume_probe
        service.store.write_stage(STREAM_STAGE, ["not", "a", "dict"])
        result = service._try_resume(
            list(pristine["task_sizes"]),
            StreamingCfs(service.environment),
            TraceCorpus(),
        )
        assert result == (0, None, [])
        assert "unknown layout" in notices[-1]

    def test_pristine_stage_still_resumes(self, resume_probe):
        service, _notices, pristine, pristine_epoch = resume_probe
        service.store.write_stage(EPOCH_STAGE, pristine_epoch)
        service.store.write_stage(STREAM_STAGE, pristine)
        corpus = TraceCorpus()
        epochs_done, snapshot, boundaries = service._try_resume(
            list(pristine["task_sizes"]),
            StreamingCfs(service.environment),
            corpus,
        )
        assert epochs_done == 2
        assert snapshot is not None and snapshot.epoch == 1
        assert boundaries == pristine["boundaries"]
        assert len(corpus) == boundaries[-1]

    def test_shorter_fresh_stream_drops_stale_epoch_stages(self, tmp_path):
        checkpoint_dir = str(tmp_path / "ckpt")
        longer = serve_map(
            seed=RESUME_SEED, scale="small", epochs=4,
            checkpoint_dir=checkpoint_dir, stop_after_epoch=3,
        )
        assert longer.service.store.has_stage(f"{STREAM_EPOCH_PREFIX}3")
        sink = MemorySink()
        shorter = serve_map(
            seed=RESUME_SEED, scale="small", epochs=2,
            checkpoint_dir=checkpoint_dir, stop_after_epoch=1,
            instrumentation=Instrumentation(sink),
        )
        store = shorter.service.store
        for epoch in (2, 3):
            assert not store.has_stage(f"{STREAM_EPOCH_PREFIX}{epoch}")
        index = store.load_stage(STREAM_STAGE)
        assert index["epoch"] == 2
        assert index["epoch_digests"] == [
            store.stage_digest(f"{STREAM_EPOCH_PREFIX}{epoch}")
            for epoch in range(2)
        ]
        # A resume of the shorter stream reads exactly its own stages.
        sink.clear()
        resumed = serve_map(
            seed=RESUME_SEED, scale="small", epochs=2,
            checkpoint_dir=checkpoint_dir, resume=True,
            instrumentation=Instrumentation(sink),
        )
        assert resumed.resumed is True
        loaded = {
            event.payload["stage"]
            for event in sink.by_name("checkpoint.load")
            if event.payload["stage"].startswith(STREAM_STAGE)
        }
        assert loaded == {
            STREAM_STAGE,
            f"{STREAM_EPOCH_PREFIX}0",
            f"{STREAM_EPOCH_PREFIX}1",
        }

    def test_campaign_initial_reports_restored_traces(self, tmp_path):
        checkpoint_dir = str(tmp_path / "ckpt")
        serve_map(
            seed=RESUME_SEED, scale="small", epochs=EPOCHS,
            checkpoint_dir=checkpoint_dir, stop_after_epoch=0,
        )
        sink = MemorySink()
        resumed = serve_map(
            seed=RESUME_SEED, scale="small", epochs=EPOCHS,
            checkpoint_dir=checkpoint_dir, resume=True,
            instrumentation=Instrumentation(sink),
        )
        assert resumed.resumed is True
        (initial,) = sink.by_name("campaign.initial")
        restored = initial.payload["restored"]
        assert restored > 0
        # Replayed-forward probes plus the restored prefix reconcile
        # with what the final snapshot says it ingested.
        assert (
            initial.payload["traces"] + restored
            >= resumed.final.traces_ingested
        )

        fresh_sink = MemorySink()
        fresh = serve_map(
            seed=RESUME_SEED, scale="small", epochs=EPOCHS,
            instrumentation=Instrumentation(fresh_sink),
        )
        (fresh_initial,) = fresh_sink.by_name("campaign.initial")
        assert fresh_initial.payload["restored"] == 0
        assert fresh.final.fingerprint == resumed.final.fingerprint
