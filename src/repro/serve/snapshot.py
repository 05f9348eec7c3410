"""Versioned, immutable map snapshots with precomputed query indices.

A :class:`MapSnapshot` is the unit the always-on service publishes: one
frozen view of the inferred interconnection map at the end of an epoch.
Snapshots carry every query index precomputed as a plain dict —
interface→facility, AS-pair→links, facility→tenants — so the read path
is an O(1) lookup, never a rescan (the traIXroute lesson: precompute
once at publish time, serve forever).

Immutability is layered:

* every entry is a frozen dataclass with tuple-valued collections;
* every index is wrapped in :class:`types.MappingProxyType`;
* reprolint rule R005 statically bans mutation of snapshot objects
  anywhere under ``repro/serve``.

The **fingerprint** is the sha256 of the canonical-JSON *content*
(interfaces, links, tenants, map stats) and deliberately excludes epoch
numbers, ingest counters and metrics: two snapshots describing the same
map fingerprint identically, which is what lets the stream-vs-batch
equivalence test compare a streamed final snapshot against a one-shot
batch run, and what makes successive published fingerprints a cheap
outage-detection diff.  The checkpoint-store manifest checksum over the
full payload (fingerprint *plus* epoch metadata) is the publication
**watermark**.

Each snapshot also carries an :class:`AnswerMemo`: the wire text of the
answers the query engine has already rendered from it, and the
templates its not-found answers are filled from.  The memo is derived
text, not content — it is filled lazily on the read path, is excluded
from equality, the fingerprint and the payload codec, and lives and
dies with its snapshot.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType
from typing import Any, Mapping

from ..checkpoint.atomic import canonical_json, sha256_hex
from ..core.types import CfsResult
from ..inference.disruption import SnapshotDiff, diff_maps
from ..sanitize import (
    TripwireMapping,
    enabled as sanitizer_enabled,
    mutation_point,
)

__all__ = [
    "SNAPSHOT_SCHEMA",
    "AnswerMemo",
    "InterfaceEntry",
    "LinkEntry",
    "MapSnapshot",
    "SnapshotDiff",
    "build_snapshot",
    "diff_snapshots",
    "open_snapshot",
    "snapshot_from_payload",
    "snapshot_payload",
]

SNAPSHOT_SCHEMA = "repro/map-snapshot/1"


@dataclass(frozen=True, slots=True)
class InterfaceEntry:
    """One peering interface's published inference."""

    address: int
    owner_asn: int
    status: str
    inferred_type: str
    facility: int | None
    confidence: float
    data_health: str
    candidates: tuple[int, ...]


@dataclass(frozen=True, slots=True)
class LinkEntry:
    """One published interconnection inference."""

    kind: str
    inferred_type: str
    near_address: int
    near_asn: int
    near_facility: int | None
    far_asn: int
    far_facility: int | None
    ixp_id: int | None
    ixp_address: int | None
    far_address: int | None
    confidence: float


class AnswerMemo:
    """Wire text of the answers already rendered from one snapshot.

    Keyed by the canonical line of the normalised query (``iface
    <dotted>``, ``link <low> <high>``, ``tenants <id>``, ``info``; see
    :mod:`repro.serve.query`); holds at most one entry per indexed
    entity plus ``info``, because only found lookups are stored, and
    ``len`` counts those entries.  Beside them it keeps one template per
    lookup verb: the not-found answer split around the field that echoes
    the query's argument.  :meth:`store` and :meth:`store_template` are
    the write sites.  Two threads that miss on the same key both render
    it and store the same text, so the race costs a render, never a
    wrong answer.
    """

    # __weakref__ lets a test prove the memo dies with its snapshot.
    __slots__ = ("_texts", "_templates", "_write_depth", "__weakref__")

    def __init__(self) -> None:
        self._texts: dict[str, str] = {}
        self._templates: dict[str, tuple[str, str]] = {}
        self._write_depth = 0

    def __len__(self) -> int:
        return len(self._texts)

    def get(self, key: str) -> str | None:
        """The stored text for ``key``, or ``None`` before its first ask."""
        return self._texts.get(key)

    @mutation_point
    def store(self, key: str, text: str) -> None:
        """Record the rendered answer to ``key``."""
        self._texts[key] = text

    def template(self, verb: str) -> tuple[str, str] | None:
        """``verb``'s not-found template, or ``None`` before its first miss."""
        return self._templates.get(verb)

    @mutation_point
    def store_template(self, verb: str, head: str, tail: str) -> None:
        """Record ``verb``'s not-found answer as the text around its
        argument's JSON."""
        self._templates[verb] = (head, tail)


@dataclass(frozen=True, slots=True)
class MapSnapshot:
    """One immutable, fingerprinted version of the inferred map.

    Query handlers receive this object and must treat it as read-only;
    the service swaps whole snapshots copy-on-write, never edits one in
    place (reprolint R005 enforces the read side statically).
    """

    #: 0-based index of the epoch this snapshot was published after
    #: (the final snapshot carries the epoch count).
    epoch: int
    #: Whether this is the post-stream convergence snapshot (the one
    #: byte-identical to a one-shot batch run).
    final: bool
    #: Master seed of the run that produced the map.
    seed: int
    #: :func:`repro.checkpoint.config_fingerprint` of the pipeline
    #: config (ties a snapshot to the run that may resume it).
    config_fingerprint: str
    #: Traces folded in when the snapshot was built.
    traces_ingested: int
    #: sha256 over the canonical-JSON map content (not the metadata).
    fingerprint: str
    #: address -> :class:`InterfaceEntry` for every tracked interface.
    interfaces: Mapping[int, InterfaceEntry]
    #: Every published link, in finalisation order (the fingerprinted
    #: order — the AS-pair index below groups these same entries).
    links: tuple[LinkEntry, ...]
    #: address -> facility for resolved interfaces only (the hot path).
    interface_facility: Mapping[int, int]
    #: (low ASN, high ASN) -> every inferred link between the pair.
    links_by_aspair: Mapping[tuple[int, int], tuple[LinkEntry, ...]]
    #: facility -> sorted ASNs with an inferred presence there.
    facility_tenants: Mapping[int, tuple[int, ...]]
    #: Headline counts of the published map.
    stats: Mapping[str, int]
    #: Rendered answers, filled by the query engine.  Not content: a
    #: fresh, empty memo per instance, outside equality and the codec.
    answers: AnswerMemo = field(
        default_factory=AnswerMemo, init=False, compare=False, repr=False
    )


def diff_snapshots(before: MapSnapshot, after: MapSnapshot) -> SnapshotDiff:
    """Structured diff between two published snapshots.

    Thin adapter over :func:`repro.inference.disruption.diff_maps`
    (the algorithm lives below this layer so detectors need no serve
    import): link endpoints gained/lost per facility plus tenant
    moves, composable across epochs.  Equal fingerprints short-circuit
    to a shared empty diff — the common quiet-epoch case allocates
    nothing.
    """
    return diff_maps(before, after)


def _interface_content(entry: InterfaceEntry) -> list[Any]:
    return [
        entry.address,
        entry.owner_asn,
        entry.status,
        entry.inferred_type,
        entry.facility,
        entry.confidence,
        entry.data_health,
        list(entry.candidates),
    ]


def _link_content(entry: LinkEntry) -> list[Any]:
    return [
        entry.kind,
        entry.inferred_type,
        entry.near_address,
        entry.near_asn,
        entry.near_facility,
        entry.far_asn,
        entry.far_facility,
        entry.ixp_id,
        entry.ixp_address,
        entry.far_address,
        entry.confidence,
    ]


def _content_document(
    interfaces: list[InterfaceEntry],
    links: list[LinkEntry],
    tenants: dict[int, tuple[int, ...]],
) -> dict[str, Any]:
    """The fingerprinted map content (no epoch/ingest metadata)."""
    resolved = sum(1 for entry in interfaces if entry.facility is not None)
    return {
        "interfaces": [_interface_content(entry) for entry in interfaces],
        "links": [_link_content(entry) for entry in links],
        "tenants": [
            [facility, list(tenants[facility])] for facility in sorted(tenants)
        ],
        "stats": {
            "interfaces": len(interfaces),
            "resolved": resolved,
            "links": len(links),
            "facilities": len(tenants),
        },
    }


def _index(data: dict, label: str) -> Mapping:
    """Freeze one query index for publication.

    Normally a zero-copy ``MappingProxyType``; under the sanitizer a
    :class:`TripwireMapping` instead, so an in-place write to a
    published index is recorded as a ``sanitizer.violation`` naming the
    index rather than surfacing as an anonymous ``TypeError``.
    """
    if sanitizer_enabled():
        return TripwireMapping(data, f"snapshot.{label}")
    return MappingProxyType(data)


def _assemble(
    interfaces: list[InterfaceEntry],
    links: list[LinkEntry],
    tenants: dict[int, tuple[int, ...]],
    *,
    epoch: int,
    final: bool,
    seed: int,
    config_fingerprint: str,
    traces_ingested: int,
) -> MapSnapshot:
    """Freeze entries and indices into one :class:`MapSnapshot`."""
    content = _content_document(interfaces, links, tenants)
    by_pair: dict[tuple[int, int], list[LinkEntry]] = {}
    for link in links:
        pair = (
            min(link.near_asn, link.far_asn),
            max(link.near_asn, link.far_asn),
        )
        by_pair.setdefault(pair, []).append(link)
    return MapSnapshot(
        epoch=epoch,
        final=final,
        seed=seed,
        config_fingerprint=config_fingerprint,
        traces_ingested=traces_ingested,
        fingerprint=sha256_hex(canonical_json(content)),
        interfaces=_index(
            {entry.address: entry for entry in interfaces}, "interfaces"
        ),
        links=tuple(links),
        interface_facility=_index(
            {
                entry.address: entry.facility
                for entry in interfaces
                if entry.facility is not None
            },
            "interface_facility",
        ),
        links_by_aspair=_index(
            {pair: tuple(group) for pair, group in by_pair.items()},
            "links_by_aspair",
        ),
        facility_tenants=_index(dict(tenants), "facility_tenants"),
        stats=_index(dict(content["stats"]), "stats"),
    )


def build_snapshot(
    result: CfsResult,
    *,
    epoch: int,
    final: bool,
    seed: int,
    config_fingerprint: str,
    traces_ingested: int,
) -> MapSnapshot:
    """Precompute every query index from one CFS result and freeze it.

    Interfaces are indexed in address order, links in finalisation
    order, and facility tenancy is derived from both pinned interface
    ends — all deterministic, so rebuilding a snapshot from the same
    result reproduces the same fingerprint.
    """
    interfaces = [
        InterfaceEntry(
            address=state.address,
            owner_asn=state.owner_asn,
            status=state.status.value,
            inferred_type=state.inferred_type.value,
            facility=state.resolved_facility,
            confidence=state.confidence,
            data_health=state.data_health,
            candidates=tuple(sorted(state.candidates or ())),
        )
        for _, state in sorted(result.interfaces.items())
    ]
    links = [
        LinkEntry(
            kind=link.kind.value,
            inferred_type=link.inferred_type.value,
            near_address=link.near_address,
            near_asn=link.near_asn,
            near_facility=link.near_facility,
            far_asn=link.far_asn,
            far_facility=link.far_facility,
            ixp_id=link.ixp_id,
            ixp_address=link.ixp_address,
            far_address=link.far_address,
            confidence=link.confidence,
        )
        for link in result.links
    ]
    tenant_sets: dict[int, set[int]] = {}
    for entry in interfaces:
        if entry.facility is not None:
            tenant_sets.setdefault(entry.facility, set()).add(entry.owner_asn)
    for link in links:
        if link.near_facility is not None:
            tenant_sets.setdefault(link.near_facility, set()).add(
                link.near_asn
            )
        if link.far_facility is not None:
            tenant_sets.setdefault(link.far_facility, set()).add(link.far_asn)
    tenants = {
        facility: tuple(sorted(asns))
        for facility, asns in tenant_sets.items()
    }
    return _assemble(
        interfaces,
        links,
        tenants,
        epoch=epoch,
        final=final,
        seed=seed,
        config_fingerprint=config_fingerprint,
        traces_ingested=traces_ingested,
    )


# ----------------------------------------------------------------------
# Payload codec (checkpoint stages and ``--json`` exports)
# ----------------------------------------------------------------------


def snapshot_payload(snapshot: MapSnapshot) -> dict[str, Any]:
    """The JSON-safe publication document for one snapshot."""
    interfaces = [
        snapshot.interfaces[address] for address in sorted(snapshot.interfaces)
    ]
    links = list(snapshot.links)
    tenants = {
        facility: snapshot.facility_tenants[facility]
        for facility in sorted(snapshot.facility_tenants)
    }
    return {
        "schema": SNAPSHOT_SCHEMA,
        "epoch": snapshot.epoch,
        "final": snapshot.final,
        "seed": snapshot.seed,
        "config_fingerprint": snapshot.config_fingerprint,
        "traces_ingested": snapshot.traces_ingested,
        "fingerprint": snapshot.fingerprint,
        "content": _content_document(interfaces, links, tenants),
    }


def snapshot_from_payload(payload: dict[str, Any]) -> MapSnapshot:
    """Rebuild a snapshot from its publication document.

    The content fingerprint is recomputed and verified against the
    recorded one, so a tampered or truncated document fails loudly
    here rather than serving a wrong map.
    """
    if payload.get("schema") != SNAPSHOT_SCHEMA:
        raise ValueError(
            f"not a map snapshot document (schema="
            f"{payload.get('schema')!r}, expected {SNAPSHOT_SCHEMA!r})"
        )
    content = payload["content"]
    interfaces = [
        InterfaceEntry(
            address=address,
            owner_asn=owner_asn,
            status=status,
            inferred_type=inferred_type,
            facility=facility,
            confidence=confidence,
            data_health=data_health,
            candidates=tuple(candidates),
        )
        for (
            address,
            owner_asn,
            status,
            inferred_type,
            facility,
            confidence,
            data_health,
            candidates,
        ) in content["interfaces"]
    ]
    links = [
        LinkEntry(
            kind=kind,
            inferred_type=inferred_type,
            near_address=near_address,
            near_asn=near_asn,
            near_facility=near_facility,
            far_asn=far_asn,
            far_facility=far_facility,
            ixp_id=ixp_id,
            ixp_address=ixp_address,
            far_address=far_address,
            confidence=confidence,
        )
        for (
            kind,
            inferred_type,
            near_address,
            near_asn,
            near_facility,
            far_asn,
            far_facility,
            ixp_id,
            ixp_address,
            far_address,
            confidence,
        ) in content["links"]
    ]
    tenants = {
        facility: tuple(asns) for facility, asns in content["tenants"]
    }
    snapshot = _assemble(
        interfaces,
        links,
        tenants,
        epoch=int(payload["epoch"]),
        final=bool(payload["final"]),
        seed=int(payload["seed"]),
        config_fingerprint=str(payload["config_fingerprint"]),
        traces_ingested=int(payload["traces_ingested"]),
    )
    recorded = payload.get("fingerprint")
    if snapshot.fingerprint != recorded:
        raise ValueError(
            f"snapshot content does not match its recorded fingerprint "
            f"(computed {snapshot.fingerprint[:12]}..., recorded "
            f"{str(recorded)[:12]}...)"
        )
    return snapshot


def open_snapshot(path: str | Path) -> MapSnapshot:
    """Load a published snapshot from a file or a service directory.

    A file path must hold one snapshot publication document (as written
    by ``repro serve --json``).  A directory is treated as the service's
    snapshot store: the manifest is consulted read-only (nothing is
    rewritten or invalidated), each candidate stage is checksum-verified
    against it, and the final snapshot — or, before the stream finished,
    the highest-epoch interim one — is returned.  Raises
    :class:`ValueError` when no intact snapshot exists.
    """
    root = Path(path)
    if root.is_dir():
        return _open_from_store(root)
    try:
        payload = json.loads(root.read_text(encoding="utf-8"))
    except OSError as error:
        raise ValueError(f"cannot read snapshot {root}: {error}") from None
    except json.JSONDecodeError as error:
        raise ValueError(f"snapshot {root} is not valid JSON: {error}") from None
    if not isinstance(payload, dict):
        raise ValueError(f"snapshot {root} is not a JSON object")
    return snapshot_from_payload(payload)


def _open_from_store(root: Path) -> MapSnapshot:
    """Best intact published snapshot under a checkpoint directory."""
    manifest_path = root / "manifest.json"
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except OSError:
        raise ValueError(f"{root} holds no snapshot manifest") from None
    except json.JSONDecodeError as error:
        raise ValueError(
            f"manifest {manifest_path} is not valid JSON: {error}"
        ) from None
    stages = manifest.get("stages") if isinstance(manifest, dict) else None
    if not isinstance(stages, dict):
        raise ValueError(f"manifest {manifest_path} has no stage index")

    def rank(name: str) -> tuple[int, int] | None:
        if name == "snapshot-final":
            return (1, 0)
        prefix = "snapshot-epoch-"
        if name.startswith(prefix) and name[len(prefix):].isdigit():
            return (0, int(name[len(prefix):]))
        return None

    candidates = sorted(
        (entry for name in stages if (entry := rank(name)) is not None),
        reverse=True,
    )
    errors: list[str] = []
    for is_final, epoch in candidates:
        name = (
            "snapshot-final" if is_final else f"snapshot-epoch-{epoch}"
        )
        entry = stages[name]
        stage_path = root / str(entry.get("file", f"stage-{name}.json"))
        try:
            data = stage_path.read_bytes()
        except OSError as error:
            errors.append(f"{name}: unreadable ({error})")
            continue
        if sha256_hex(data) != entry.get("sha256"):
            errors.append(f"{name}: checksum mismatch")
            continue
        document = json.loads(data.decode("utf-8"))
        payload = document.get("payload")
        if not isinstance(payload, dict):
            errors.append(f"{name}: no payload")
            continue
        return snapshot_from_payload(payload)
    detail = f" ({'; '.join(errors)})" if errors else ""
    raise ValueError(f"{root} holds no intact published snapshot{detail}")
