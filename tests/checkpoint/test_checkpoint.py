"""Unit tests for the checkpoint substrate: atomic writes, the store's
verify-before-trust loading, and the corruption-degrades-to-recompute
contract (no failure mode may raise out of a resume)."""

from __future__ import annotations

import json
import os

import pytest

from repro.checkpoint import (
    CheckpointStore,
    atomic_write_bytes,
    atomic_write_json,
    canonical_json,
    config_fingerprint,
    decode_campaign_stage,
    encode_campaign_stage,
    sha256_hex,
)
from repro.checkpoint.store import MANIFEST_NAME, MANIFEST_SCHEMA
from repro.core.pipeline import PipelineConfig
from repro.measurement.traceroute import Traceroute
from repro.obs import Instrumentation


class TestAtomicWrites:
    def test_write_replaces_and_leaves_no_temp_files(self, tmp_path):
        target = tmp_path / "stage.json"
        atomic_write_bytes(target, b"first")
        atomic_write_bytes(target, b"second")
        assert target.read_bytes() == b"second"
        assert os.listdir(tmp_path) == ["stage.json"]

    def test_json_write_returns_content_checksum(self, tmp_path):
        target = tmp_path / "doc.json"
        digest = atomic_write_json(target, {"b": 2, "a": 1})
        data = target.read_bytes()
        assert data == b'{"a":1,"b":2}\n'
        assert digest == sha256_hex(data)

    def test_canonical_json_is_value_deterministic(self):
        assert canonical_json({"z": [1, 2], "a": None}) == canonical_json(
            dict([("a", None), ("z", [1, 2])])
        )


class TestConfigFingerprint:
    def test_transient_fields_do_not_change_the_fingerprint(self):
        base = PipelineConfig.for_scale("small", seed=3)
        import dataclasses

        varied = dataclasses.replace(
            base,
            workers=8,
            shard_timeout_s=2.0,
            max_shard_retries=5,
            checkpoint_dir="/somewhere",
            resume=True,
        )
        assert config_fingerprint(base) == config_fingerprint(varied)

    def test_output_affecting_fields_change_the_fingerprint(self):
        a = PipelineConfig.for_scale("small", seed=3)
        b = PipelineConfig.for_scale("small", seed=4)
        c = PipelineConfig.for_scale("default", seed=3)
        assert len({config_fingerprint(x) for x in (a, b, c)}) == 3


class TestStoreRoundtrip:
    def test_write_then_load_returns_the_payload(self, tmp_path):
        obs = Instrumentation()
        store = CheckpointStore(tmp_path, "fp", instrumentation=obs)
        payload = {"traces": [[1, 2], [3, 4]], "note": "x"}
        store.write_stage("campaign", payload)
        assert store.has_stage("campaign")
        reloaded = CheckpointStore(tmp_path, "fp", instrumentation=obs)
        assert reloaded.load_stage("campaign") == payload
        snapshot = obs.snapshot()
        assert snapshot.counters["checkpoint.write"] == 1
        assert snapshot.counters["checkpoint.load"] == 1

    def test_absent_stage_loads_as_none(self, tmp_path):
        store = CheckpointStore(tmp_path, "fp")
        assert not store.has_stage("campaign")
        assert store.load_stage("campaign") is None
        assert store.warnings == []

    def test_invalidate_discards_every_stage(self, tmp_path):
        store = CheckpointStore(tmp_path, "fp")
        store.write_stage("topology", {"n": 1})
        store.invalidate("topology changed")
        assert not store.has_stage("topology")
        assert any("topology changed" in w for w in store.warnings)
        reloaded = CheckpointStore(tmp_path, "fp")
        assert reloaded.load_stage("topology") is None


class TestCampaignStageCodec:
    TRACES = [
        Traceroute(
            "vp", "atlas", 1, 9, (5, None, 9), (1.5, None, 3.0), (7, 8, 9), True
        ),
        Traceroute("vp", "lg", 2, 4, (), (), (), False),
    ]

    def test_hop_rows_round_trip(self):
        issues = (2, {("vp", 9): 1, ("vp", 4): 1})
        queries = ({2: 1}, 0.5)
        payload = json.loads(
            canonical_json(encode_campaign_stage(self.TRACES, issues, queries))
        )
        assert payload["traces"][0][5] == [
            [1, 5, 1.5, 7], [2, None, None, 8], [3, 9, 3.0, 9]
        ]
        assert decode_campaign_stage(payload) == (self.TRACES, issues, queries)

    def test_rows_out_of_ttl_order_rejected(self):
        payload = encode_campaign_stage(self.TRACES, (0, {}), ({}, 0.0))
        payload["traces"][0][5].reverse()
        with pytest.raises(ValueError, match="TTLs"):
            decode_campaign_stage(payload)


class TestCorruptionDegradesToRecompute:
    def _store_with_stage(self, tmp_path):
        store = CheckpointStore(tmp_path, "fp")
        store.write_stage("cfs", {"interfaces": list(range(10))})
        return store

    def test_flipped_bytes_fail_checksum_and_load_none(self, tmp_path):
        self._store_with_stage(tmp_path)
        stage = tmp_path / "stage-cfs.json"
        stage.write_bytes(stage.read_bytes()[:-3] + b"!!\n")
        obs = Instrumentation()
        store = CheckpointStore(tmp_path, "fp", instrumentation=obs)
        assert store.load_stage("cfs") is None
        assert any("checksum" in w for w in store.warnings)
        assert obs.snapshot().counters["checkpoint.corrupt"] == 1
        # The bad entry is dropped from the manifest: a fresh store
        # no longer lists the stage at all.
        assert not CheckpointStore(tmp_path, "fp").has_stage("cfs")

    def test_missing_stage_file_loads_none(self, tmp_path):
        self._store_with_stage(tmp_path)
        (tmp_path / "stage-cfs.json").unlink()
        store = CheckpointStore(tmp_path, "fp")
        assert store.load_stage("cfs") is None
        assert any("unreadable" in w for w in store.warnings)

    def test_checksum_matching_garbage_layout_loads_none(self, tmp_path):
        store = self._store_with_stage(tmp_path)
        # Rewrite both the stage file and its manifest entry so the
        # checksum passes but the layout is wrong.
        data = canonical_json({"schema": "bogus/9", "stage": "cfs"})
        atomic_write_bytes(tmp_path / "stage-cfs.json", data)
        manifest = json.loads((tmp_path / MANIFEST_NAME).read_text())
        manifest["stages"]["cfs"]["sha256"] = sha256_hex(data)
        manifest["stages"]["cfs"]["bytes"] = len(data)
        atomic_write_json(tmp_path / MANIFEST_NAME, manifest)
        store = CheckpointStore(tmp_path, "fp")
        assert store.load_stage("cfs") is None
        assert any("unknown layout" in w for w in store.warnings)

    def test_unparseable_manifest_starts_fresh(self, tmp_path):
        self._store_with_stage(tmp_path)
        (tmp_path / MANIFEST_NAME).write_text("{not json", encoding="utf-8")
        store = CheckpointStore(tmp_path, "fp")
        assert not store.has_stage("cfs")
        assert any("unreadable manifest" in w for w in store.warnings)

    def test_unknown_manifest_schema_starts_fresh(self, tmp_path):
        self._store_with_stage(tmp_path)
        manifest = json.loads((tmp_path / MANIFEST_NAME).read_text())
        manifest["schema"] = "repro/checkpoint-manifest/99"
        (tmp_path / MANIFEST_NAME).write_text(json.dumps(manifest))
        store = CheckpointStore(tmp_path, "fp")
        assert not store.has_stage("cfs")
        assert any("unknown schema" in w for w in store.warnings)

    def test_fingerprint_mismatch_discards_the_manifest(self, tmp_path):
        self._store_with_stage(tmp_path)
        store = CheckpointStore(tmp_path, "other-config")
        assert not store.has_stage("cfs")
        assert any("different configuration" in w for w in store.warnings)

    def test_no_corruption_mode_raises(self, tmp_path):
        """The blanket contract: every mutilation loads as None."""
        mutilations = [
            lambda p: (p / "stage-cfs.json").write_bytes(b""),
            lambda p: (p / "stage-cfs.json").write_bytes(b"\x00" * 64),
            lambda p: (p / MANIFEST_NAME).write_text("[]"),
            lambda p: (p / MANIFEST_NAME).write_text(
                json.dumps({"schema": MANIFEST_SCHEMA, "fingerprint": "fp"})
            ),
        ]
        for mutilate in mutilations:
            for item in tmp_path.iterdir():
                item.unlink()
            self._store_with_stage(tmp_path)
            mutilate(tmp_path)
            store = CheckpointStore(tmp_path, "fp")
            assert store.load_stage("cfs") is None
            assert store.warnings, "corruption must be reported"


class TestWarnCallback:
    def test_warn_callback_receives_degradations(self, tmp_path):
        store = CheckpointStore(tmp_path, "fp")
        store.write_stage("cfs", {"x": 1})
        stage = tmp_path / "stage-cfs.json"
        stage.write_bytes(b"garbage")
        seen: list[str] = []
        store = CheckpointStore(tmp_path, "fp", warn=seen.append)
        assert store.load_stage("cfs") is None
        assert seen and "cfs" in seen[0]
