"""Crash-safe checkpoint/resume for the pipeline.

Three layers, smallest first:

* :mod:`repro.checkpoint.atomic` — durable write-temp-fsync-rename
  file replacement (the only way checkpoint bytes reach disk; reprolint
  rule R007 enforces it);
* :mod:`repro.checkpoint.store` — :class:`CheckpointStore`, a versioned
  manifest plus checksummed per-stage files, where every corruption
  mode degrades to "recompute with a warning", never a crash;
* :mod:`repro.checkpoint.stages` — exact round-trip codecs between
  pipeline state (trace corpus + measurement accounting, alias sets,
  CFS result) and JSON-safe stage payloads.

``run_pipeline(..., checkpoint_dir=...)`` writes stages as they
complete; ``resume=True`` loads every intact stage and recomputes the
rest, producing output byte-identical to an uninterrupted run (the
tier-1 gate in ``tests/core/test_resume.py``).
"""

from .atomic import (
    atomic_write_bytes,
    atomic_write_json,
    canonical_json,
    sha256_hex,
)
from .stages import (
    decode_alias_stage,
    decode_campaign_stage,
    decode_cfs_stage,
    encode_alias_stage,
    encode_campaign_stage,
    encode_cfs_stage,
    encode_topology_stage,
)
from .store import CheckpointStore, config_fingerprint

__all__ = [
    "CheckpointStore",
    "atomic_write_bytes",
    "atomic_write_json",
    "canonical_json",
    "config_fingerprint",
    "decode_alias_stage",
    "decode_campaign_stage",
    "decode_cfs_stage",
    "encode_alias_stage",
    "encode_campaign_stage",
    "encode_cfs_stage",
    "encode_topology_stage",
    "sha256_hex",
]
