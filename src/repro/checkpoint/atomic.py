"""Atomic, durable file writes for checkpoint data.

Every byte the checkpoint subsystem persists goes through
:func:`atomic_write_bytes` (reprolint rule R007 enforces this): the
payload is written to a same-directory temporary file, flushed and
fsynced, then renamed over the destination, and finally the directory
entry itself is fsynced.  A crash at any instant leaves either the old
complete file or the new complete file — never a truncated mix — which
is the property the resume path's checksum verification builds on.

The temporary name embeds the writer's PID, so two processes racing on
one checkpoint directory cannot clobber each other's in-flight temp
file (last rename still wins, atomically).
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any

__all__ = [
    "atomic_write_bytes",
    "atomic_write_json",
    "canonical_json",
    "sha256_hex",
]


def sha256_hex(data: bytes) -> str:
    """Content checksum used by the manifest."""
    return hashlib.sha256(data).hexdigest()


def canonical_json(document: Any) -> bytes:
    """One canonical byte rendering of a JSON document.

    Sorted keys and a fixed separator style make the bytes — and hence
    the checksum — a pure function of the document's value.
    """
    return (
        json.dumps(document, sort_keys=True, separators=(",", ":")) + "\n"
    ).encode("utf-8")


def atomic_write_bytes(path: Path, data: bytes) -> None:
    """Durably replace ``path`` with ``data`` (write-temp-fsync-rename)."""
    path = Path(path)
    temp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    descriptor = os.open(
        temp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644
    )
    try:
        os.write(descriptor, data)
        os.fsync(descriptor)
    finally:
        os.close(descriptor)
    os.replace(temp, path)
    # The rename itself must survive a crash: fsync the directory entry.
    directory = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(directory)
    finally:
        os.close(directory)


def atomic_write_json(path: Path, document: Any) -> str:
    """Durably write ``document`` as canonical JSON; return its sha256."""
    data = canonical_json(document)
    atomic_write_bytes(path, data)
    return sha256_hex(data)
