"""Versioned checkpoint store: one manifest, one file per stage.

Layout of a checkpoint directory::

    manifest.json        # schema, config fingerprint, stage index
    stage-topology.json  # per-stage payloads, one file each
    stage-campaign.json
    ...

The manifest carries a sha256 checksum and byte count for every stage
file; :meth:`CheckpointStore.load_stage` re-hashes the file before
trusting it.  **Corruption never crashes a resume** — a missing file, a
checksum mismatch, undecodable JSON, an unknown schema, or a manifest
written for a different configuration all degrade to "stage absent":
the pipeline recomputes that stage (deterministically, so the result is
byte-identical to what the checkpoint held) and overwrites the bad
file.  Every degradation is reported through the ``warn`` callback and
the ``checkpoint.corrupt`` event.

Writes go through :mod:`repro.checkpoint.atomic` exclusively (reprolint
rule R007), and the manifest is rewritten after each stage write, so
the on-disk state is consistent after any prefix of the run.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Any, Callable

from ..obs import Instrumentation
from .atomic import (
    atomic_write_bytes,
    atomic_write_json,
    canonical_json,
    sha256_hex,
)

__all__ = ["CheckpointStore", "config_fingerprint"]

MANIFEST_SCHEMA = "repro/checkpoint-manifest/1"
STAGE_SCHEMA = "repro/checkpoint-stage/1"
MANIFEST_NAME = "manifest.json"

#: ``PipelineConfig`` fields that do not affect pipeline output.  The
#: fingerprint ignores them so a run checkpointed at ``workers=1`` can
#: resume at ``workers=4`` (the executor's byte-identity guarantee) and
#: supervision knobs can change between attempts.
TRANSIENT_CONFIG_FIELDS = (
    "workers",
    "checkpoint_dir",
    "resume",
    "shard_timeout_s",
    "max_shard_retries",
    "sanitize",
)


def config_fingerprint(config: Any) -> str:
    """Digest of every output-affecting field of a ``PipelineConfig``.

    Two configs with equal fingerprints produce byte-identical
    pipelines, so a checkpoint written under one is valid under the
    other.  Transient fields (worker count, supervision and checkpoint
    knobs) are excluded; everything else — topology, seed, campaign,
    CFS, dataset and fault knobs — participates.
    """
    document = dataclasses.asdict(config)
    for name in TRANSIENT_CONFIG_FIELDS:
        document.pop(name, None)
    return sha256_hex(canonical_json(_jsonable(document)))


def _jsonable(value: Any) -> Any:
    """Recursively coerce a config tree into JSON-encodable values."""
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


class CheckpointStore:
    """Reads and writes one run's checkpoint directory."""

    def __init__(
        self,
        root: str | Path,
        fingerprint: str,
        instrumentation: Instrumentation | None = None,
        warn: Callable[[str], None] | None = None,
    ) -> None:
        """Args:
            root: checkpoint directory (created if missing).
            fingerprint: the run's :func:`config_fingerprint`; a
                manifest written under a different fingerprint is
                discarded with a warning.
            instrumentation: sink for ``checkpoint.*`` events/counters.
            warn: callback for human-readable degradation notices
                (``None`` keeps them only on :attr:`warnings`).
        """
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.fingerprint = fingerprint
        self._obs = instrumentation or Instrumentation()
        self._warn_cb = warn
        #: Every degradation notice raised by this store, in order.
        self.warnings: list[str] = []
        self._stages: dict[str, dict[str, Any]] = self._load_manifest()

    # ------------------------------------------------------------------

    def _warn(self, message: str) -> None:
        self.warnings.append(message)
        if self._warn_cb is not None:
            self._warn_cb(message)

    def _corrupt(self, stage: str, message: str) -> None:
        self._obs.count("checkpoint.corrupt")
        self._obs.emit("checkpoint.corrupt", stage=stage, detail=message)
        self._warn(f"checkpoint: {message}; will recompute")

    def _load_manifest(self) -> dict[str, dict[str, Any]]:
        path = self.root / MANIFEST_NAME
        if not path.exists():
            return {}
        try:
            document = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as error:
            self._corrupt("manifest", f"unreadable manifest {path}: {error}")
            return {}
        if not isinstance(document, dict) or document.get("schema") != MANIFEST_SCHEMA:
            self._corrupt(
                "manifest",
                f"manifest {path} has unknown schema "
                f"{document.get('schema') if isinstance(document, dict) else None!r}",
            )
            return {}
        if document.get("fingerprint") != self.fingerprint:
            self._corrupt(
                "manifest",
                f"manifest {path} was written for a different configuration",
            )
            return {}
        stages = document.get("stages")
        if not isinstance(stages, dict):
            self._corrupt("manifest", f"manifest {path} has no stage index")
            return {}
        return {str(name): dict(entry) for name, entry in stages.items()}

    def _write_manifest(self) -> None:
        atomic_write_json(
            self.root / MANIFEST_NAME,
            {
                "schema": MANIFEST_SCHEMA,
                "fingerprint": self.fingerprint,
                "stages": self._stages,
            },
        )

    # ------------------------------------------------------------------

    def has_stage(self, name: str) -> bool:
        """Whether the manifest lists ``name`` (content not yet verified)."""
        return name in self._stages

    def stage_names(self) -> list[str]:
        """Every stage the manifest lists, in manifest order."""
        return list(self._stages)

    def stage_digest(self, name: str) -> str | None:
        """The manifest's sha256 for ``name`` (``None`` when absent).

        The map service publishes this digest as each snapshot's
        *watermark*: equal digests mean byte-identical durable payloads,
        so two service runs (or a resume) can be compared without
        re-reading the stage files.
        """
        entry = self._stages.get(name)
        if entry is None:
            return None
        digest = entry.get("sha256")
        return str(digest) if digest is not None else None

    def write_stage(self, name: str, payload: Any) -> None:
        """Durably persist one stage payload and index it in the manifest."""
        file_name = f"stage-{name}.json"
        data = canonical_json(
            {"schema": STAGE_SCHEMA, "stage": name, "payload": payload}
        )
        atomic_write_bytes(self.root / file_name, data)
        self._stages[name] = {
            "file": file_name,
            "sha256": sha256_hex(data),
            "bytes": len(data),
        }
        self._write_manifest()
        self._obs.count("checkpoint.write")
        self._obs.emit("checkpoint.write", stage=name, bytes=len(data))

    def load_stage(self, name: str) -> Any | None:
        """One stage's payload, or ``None`` when absent or corrupt.

        The file is re-hashed against the manifest checksum before any
        byte of it is trusted; every failure mode degrades to ``None``
        (recompute), never an exception.
        """
        entry = self._stages.get(name)
        if entry is None:
            return None
        path = self.root / str(entry.get("file", f"stage-{name}.json"))
        try:
            data = path.read_bytes()
        except OSError as error:
            self._drop_stage(name, f"stage {name!r} unreadable: {error}")
            return None
        if sha256_hex(data) != entry.get("sha256"):
            self._drop_stage(
                name, f"stage {name!r} failed checksum verification"
            )
            return None
        try:
            document = json.loads(data.decode("utf-8"))
        except ValueError as error:
            self._drop_stage(name, f"stage {name!r} is not valid JSON: {error}")
            return None
        if (
            not isinstance(document, dict)
            or document.get("schema") != STAGE_SCHEMA
            or document.get("stage") != name
        ):
            self._drop_stage(name, f"stage {name!r} has an unknown layout")
            return None
        self._obs.count("checkpoint.load")
        self._obs.emit("checkpoint.load", stage=name, bytes=len(data))
        return document.get("payload")

    def _drop_stage(self, name: str, message: str) -> None:
        self._corrupt(name, message)
        self._stages.pop(name, None)
        self._write_manifest()

    def drop_stage(self, name: str) -> bool:
        """Intentionally retire one stage (manifest entry and file).

        Unlike the corruption path this emits no ``checkpoint.corrupt``
        event — the caller chose to delete the stage (a retention ring
        rotating out an old snapshot, a publish rolling back a torn
        write), nothing degraded.  Returns whether the stage existed.
        """
        entry = self._stages.pop(name, None)
        if entry is None:
            return False
        path = self.root / str(entry.get("file", f"stage-{name}.json"))
        try:
            path.unlink(missing_ok=True)
        except OSError:
            pass
        self._write_manifest()
        return True

    def invalidate(self, reason: str) -> None:
        """Discard every stage (e.g. the topology no longer matches)."""
        if self._stages:
            self._warn(f"checkpoint: {reason}; discarding all stages")
        self._stages = {}
        self._write_manifest()
