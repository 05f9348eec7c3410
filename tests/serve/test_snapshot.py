"""MapSnapshot: immutability, fingerprinting, and the payload codec."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.checkpoint import config_fingerprint
from repro.serve import (
    QueryEngine,
    build_snapshot,
    open_snapshot,
    snapshot_from_payload,
    snapshot_payload,
)


class TestBuildSnapshot:
    def test_indexes_cover_the_result(self, small_run, small_snapshot):
        _, _, result = small_run
        assert set(small_snapshot.interfaces) == set(result.interfaces)
        assert len(small_snapshot.links) == len(result.links)
        assert small_snapshot.stats["interfaces"] == len(result.interfaces)
        assert small_snapshot.stats["links"] == len(result.links)

    def test_aspair_index_groups_every_link(self, small_snapshot):
        regrouped = sum(
            len(links) for links in small_snapshot.links_by_aspair.values()
        )
        assert regrouped == len(small_snapshot.links)
        for (low, high), links in small_snapshot.links_by_aspair.items():
            assert low <= high
            for link in links:
                assert {low, high} == {link.near_asn, link.far_asn} or (
                    low == high == link.near_asn
                )

    def test_facility_tenants_sorted_and_consistent(self, small_snapshot):
        for facility, tenants in small_snapshot.facility_tenants.items():
            assert list(tenants) == sorted(tenants)
            assert len(set(tenants)) == len(tenants)

    def test_rebuild_reproduces_fingerprint(self, small_run, small_snapshot):
        env, corpus, result = small_run
        again = build_snapshot(
            result,
            epoch=1,
            final=True,
            seed=env.config.seed,
            config_fingerprint=config_fingerprint(env.config),
            traces_ingested=len(corpus),
        )
        assert again.fingerprint == small_snapshot.fingerprint

    def test_fingerprint_excludes_ingest_metadata(self, small_run, small_snapshot):
        env, _, result = small_run
        relabelled = build_snapshot(
            result,
            epoch=7,
            final=False,
            seed=env.config.seed,
            config_fingerprint=config_fingerprint(env.config),
            traces_ingested=0,
        )
        assert relabelled.fingerprint == small_snapshot.fingerprint


class TestImmutability:
    def test_dataclass_fields_frozen(self, small_snapshot):
        with pytest.raises(dataclasses.FrozenInstanceError):
            small_snapshot.epoch = 99

    def test_mappings_reject_writes(self, small_snapshot):
        address = next(iter(small_snapshot.interfaces))
        with pytest.raises(TypeError):
            small_snapshot.interfaces[address] = None
        with pytest.raises(TypeError):
            small_snapshot.facility_tenants[0] = ()

    def test_entries_frozen(self, small_snapshot):
        entry = next(iter(small_snapshot.interfaces.values()))
        with pytest.raises(dataclasses.FrozenInstanceError):
            entry.facility = 0


class TestPayloadCodec:
    def test_round_trip_is_lossless(self, small_snapshot):
        payload = snapshot_payload(small_snapshot)
        restored = snapshot_from_payload(
            json.loads(json.dumps(payload))  # through real JSON
        )
        assert restored.fingerprint == small_snapshot.fingerprint
        assert restored.epoch == small_snapshot.epoch
        assert restored.final is small_snapshot.final
        assert dict(restored.interfaces) == dict(small_snapshot.interfaces)
        assert restored.links == small_snapshot.links
        assert dict(restored.facility_tenants) == dict(
            small_snapshot.facility_tenants
        )

    def test_answer_memo_is_not_content(self, small_snapshot):
        """Equality, the fingerprint and the payload ignore rendered
        answers, and a decoded or derived snapshot starts with none."""
        warm, cold = (dataclasses.replace(small_snapshot) for _ in range(2))
        engine = QueryEngine()
        engine.swap(warm)
        for address in list(warm.interfaces)[:20]:
            engine.execute_line(f"iface {address}")
        engine.execute_line("info")
        assert len(warm.answers) == 21 and len(cold.answers) == 0
        assert warm == cold == small_snapshot
        assert snapshot_payload(warm) == snapshot_payload(cold)
        restored = snapshot_from_payload(snapshot_payload(warm))
        assert restored.fingerprint == warm.fingerprint
        assert len(restored.answers) == 0

    def test_tampered_content_rejected(self, small_snapshot):
        payload = json.loads(json.dumps(snapshot_payload(small_snapshot)))
        payload["content"]["interfaces"].pop()
        with pytest.raises(ValueError, match="fingerprint"):
            snapshot_from_payload(payload)

    def test_wrong_schema_rejected(self, small_snapshot):
        payload = snapshot_payload(small_snapshot)
        payload = {**payload, "schema": "repro/other/1"}
        with pytest.raises(ValueError, match="schema"):
            snapshot_from_payload(payload)


class TestOpenSnapshot:
    def test_opens_a_payload_file(self, tmp_path, small_snapshot):
        target = tmp_path / "snap.json"
        target.write_text(
            json.dumps(snapshot_payload(small_snapshot)), encoding="utf-8"
        )
        opened = open_snapshot(target)
        assert opened.fingerprint == small_snapshot.fingerprint

    def test_rejects_garbage_file(self, tmp_path):
        target = tmp_path / "snap.json"
        target.write_text("{not json", encoding="utf-8")
        with pytest.raises(ValueError, match="not valid JSON"):
            open_snapshot(target)

    def test_rejects_directory_without_manifest(self, tmp_path):
        with pytest.raises(ValueError, match="manifest"):
            open_snapshot(tmp_path)
