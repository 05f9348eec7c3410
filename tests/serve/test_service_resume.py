"""Mid-stream crash/resume: a service restored from its checkpoint
re-publishes byte-identical snapshots and converges to the same map."""

from __future__ import annotations

import dataclasses

from repro.api import serve_map
from repro.checkpoint import canonical_json, encode_campaign_stage
from repro.core import PipelineConfig, build_environment
from repro.measurement.campaign import TraceCorpus
from repro.obs import Instrumentation, MemorySink
from repro.serve import MapService
from repro.serve.ingest import StreamingCfs
from repro.serve.service import STREAM_EPOCH_PREFIX, STREAM_STAGE

SEED = 11
EPOCHS = 3


def fingerprints(handle):
    return [(s.epoch, s.final, s.fingerprint) for s in handle.snapshots]


def accounting(service):
    """The engine issue ledger and looking-glass query ledger."""
    environment = service.environment
    return (
        environment.engine.issue_baseline(),
        environment.platforms.looking_glasses.query_state(),
    )


class TestResume:
    def test_resumed_stream_republishes_identically(self, tmp_path):
        baseline = serve_map(
            seed=SEED, scale="small", epochs=4,
            checkpoint_dir=str(tmp_path / "baseline"),
        )
        assert baseline.final is not None
        for pause in range(3):
            checkpoint_dir = str(tmp_path / f"paused-{pause}")
            paused = serve_map(
                seed=SEED, scale="small", epochs=4,
                checkpoint_dir=checkpoint_dir, stop_after_epoch=pause,
            )
            assert paused.final is None
            assert fingerprints(paused) == fingerprints(baseline)[: pause + 1]
            # The paused run is the uninterrupted run up to ``pause``.
            expected = accounting(paused.service)

            # Restoring alone reproduces the engines' ledgers exactly.
            probe = MapService(
                dataclasses.replace(
                    PipelineConfig.small(seed=SEED),
                    checkpoint_dir=checkpoint_dir,
                    resume=True,
                )
            )
            index = probe.store.load_stage(STREAM_STAGE)
            epochs_done, _snapshot, _boundaries = probe._try_resume(
                list(index["task_sizes"]),
                StreamingCfs(probe.environment),
                TraceCorpus(),
            )
            assert epochs_done == pause + 1
            assert accounting(probe) == expected

            resumed = serve_map(
                seed=SEED, scale="small", epochs=4,
                checkpoint_dir=checkpoint_dir, resume=True,
            )
            assert resumed.resumed is True
            assert resumed.final is not None
            # The handle re-publishes the last pre-pause snapshot and
            # then continues: the remaining epochs plus the final
            # convergence pass.
            assert fingerprints(resumed) == fingerprints(baseline)[pause:]
            assert resumed.final.fingerprint == baseline.final.fingerprint

    def test_stream_checkpoint_bytes_are_linear(self, tmp_path):
        # Every epoch writes its own arrivals once, plus a small index:
        # the stream stages together cost about one encoding of the
        # corpus, not one per epoch.
        sink = MemorySink()
        paused = serve_map(
            seed=SEED, scale="small", epochs=8,
            checkpoint_dir=str(tmp_path / "store"), stop_after_epoch=7,
            instrumentation=Instrumentation(sink),
        )
        assert len(paused.snapshots) == 8
        written = sum(
            event.payload["bytes"]
            for event in sink.by_name("checkpoint.write")
            if event.payload["stage"].startswith(STREAM_STAGE)
        )
        environment = build_environment(PipelineConfig.small(seed=SEED))
        corpus = environment.run_campaign()
        one_corpus = len(
            canonical_json(
                encode_campaign_stage(
                    corpus.traces,
                    environment.engine.issue_baseline(),
                    environment.platforms.looking_glasses.query_state(),
                )
            )
        )
        assert written <= 1.3 * one_corpus, (written, one_corpus)

    def test_published_snapshots_carry_store_watermarks(self, tmp_path):
        handle = serve_map(
            seed=SEED, scale="small", epochs=2,
            checkpoint_dir=str(tmp_path / "store"),
        )
        store = handle.service.store
        assert store is not None
        for stage in ("snapshot-epoch-0", "snapshot-epoch-1", "snapshot-final"):
            digest = store.stage_digest(stage)
            assert isinstance(digest, str) and len(digest) == 64
        assert store.stage_digest(STREAM_STAGE) is not None
        index = store.load_stage(STREAM_STAGE)
        assert index["epoch_digests"] == [
            store.stage_digest(f"{STREAM_EPOCH_PREFIX}{epoch}")
            for epoch in range(2)
        ]

    def test_mismatched_epoch_plan_degrades_to_fresh_start(self, tmp_path):
        checkpoint_dir = str(tmp_path / "mismatch")
        paused = serve_map(
            seed=SEED, scale="small", epochs=4,
            checkpoint_dir=checkpoint_dir, stop_after_epoch=0,
        )
        assert paused.final is None
        notices: list[str] = []
        # Different epoch count -> different slice sizes: the stored
        # stream state no longer lines up and must not be decoded.
        config = dataclasses.replace(
            PipelineConfig.small(seed=SEED),
            checkpoint_dir=checkpoint_dir,
            resume=True,
        )
        service = MapService(config, progress=notices.append)
        handle = service.run_stream(EPOCHS)
        assert handle.resumed is False
        assert handle.final is not None
        fresh = serve_map(seed=SEED, scale="small", epochs=EPOCHS)
        assert handle.final.fingerprint == fresh.final.fingerprint
        assert any("starting fresh" in notice for notice in notices)
