"""Stage payload codecs: pipeline state ⇄ JSON-safe documents.

Each pipeline stage has an ``encode_*``/``decode_*`` pair whose round
trip is exact — every field that influences downstream computation
(including the measurement engines' issue accounting, whose counters
feed per-trace RNG substream keys) survives the trip bit-for-bit, which
is what makes a resumed run byte-identical to an uninterrupted one.
Floats ride on JSON's shortest-repr round trip, integers and strings
are exact by construction, sets are serialised as sorted lists and
rebuilt as sets, and enums travel by value.

The codecs are deliberately dumb: no versioned migrations, no partial
decodes.  A payload an old reader cannot understand fails loudly in the
decoder, and the caller (``run_pipeline``) treats any decode error like
a corrupt stage — warn and recompute.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Sequence

from ..alias.midar import AliasSets
from ..core.types import (
    CfsResult,
    InferredType,
    InterfaceState,
    InterfaceStatus,
    IterationStats,
    LinkInference,
    PeeringKind,
)
from ..measurement.traceroute import Traceroute
from ..obs import MetricsSnapshot

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..topology.topology import Topology

__all__ = [
    "decode_alias_stage",
    "decode_campaign_stage",
    "decode_cfs_stage",
    "encode_alias_stage",
    "encode_campaign_stage",
    "encode_cfs_stage",
    "encode_topology_stage",
]


# ----------------------------------------------------------------------
# Topology (verification only — topology is rebuilt from config)
# ----------------------------------------------------------------------


def encode_topology_stage(topology: "Topology") -> dict[str, Any]:
    """The generated Internet's headline sizes.

    The topology itself is rebuilt deterministically from the config on
    every run; the stage exists to *verify* that the rebuilt one matches
    the checkpointed one before any later stage is trusted.
    """
    return {"summary": dict(topology.summary())}


# ----------------------------------------------------------------------
# Campaign corpus + measurement accounting
# ----------------------------------------------------------------------

#: ``TracerouteEngine.issue_baseline`` shape: (traces issued,
#: per-(source, destination) issue counts).
IssueState = tuple[int, dict[tuple[str, int], int]]
#: ``LookingGlassPlatform.query_state`` shape: (per-ASN query counts,
#: simulated rate-limit wait).
QueryState = tuple[dict[int, int], float]


def encode_campaign_stage(
    traces: Sequence[Traceroute],
    issues: IssueState,
    queries: QueryState,
) -> dict[str, Any]:
    """Traces plus the measurement accounting that travels with them.

    The engine's issue accounting and the looking-glass query ledger
    must travel with the traces: ``seq`` numbers derived from them key
    the per-trace RNG substreams of every *later* probe (CFS
    follow-ups), so a resume that skipped them would draw different
    noise than the uninterrupted run.

    One codec serves two stages: the pipeline's ``campaign`` stage
    (the whole corpus with the engine's total issue counts) and the
    service's per-epoch stream stages (one epoch's arrivals with the
    issue counts that epoch added).
    """
    traces_issued, issue_counts = issues
    queries_per_lg, simulated_wait_s = queries
    return {
        "traces": [
            [
                trace.source_id,
                trace.platform,
                trace.src_asn,
                trace.dst_address,
                trace.reached,
                # One [ttl, address, rtt, router] row per hop.
                [
                    list(row)
                    for row in zip(
                        range(1, len(trace.addresses) + 1),
                        trace.addresses,
                        trace.rtts,
                        trace.routers,
                    )
                ],
            ]
            for trace in traces
        ],
        "engine": {
            "traces_issued": traces_issued,
            "issue_counts": [
                [source_id, dst_address, count]
                for (source_id, dst_address), count in sorted(
                    issue_counts.items()
                )
            ],
        },
        "looking_glass": {
            "queries": [
                [asn, count] for asn, count in sorted(queries_per_lg.items())
            ],
            "simulated_wait_s": simulated_wait_s,
        },
    }


def decode_campaign_stage(
    payload: dict[str, Any],
) -> tuple[list[Traceroute], IssueState, QueryState]:
    """Rebuild ``(traces, issues, queries)`` without touching any engine.

    Decoding is pure, so a caller can validate every payload it needs
    before it restores (or absorbs) a single counter.  A hop's TTL is
    its position in the trace, so rows whose TTLs do not count up from
    1 are rejected.
    """
    traces = []
    for source_id, platform, src_asn, dst_address, reached, hops in (
        payload["traces"]
    ):
        ttls, addresses, rtts, routers = zip(*hops) if hops else ((),) * 4
        if ttls != tuple(range(1, len(hops) + 1)):
            raise ValueError(f"trace to {dst_address}: TTLs do not count 1..n")
        traces.append(
            Traceroute(
                source_id, platform, src_asn, dst_address,
                addresses, rtts, routers, reached,
            )
        )
    engine_state = payload["engine"]
    issues = (
        int(engine_state["traces_issued"]),
        {
            (source_id, dst_address): count
            for source_id, dst_address, count in engine_state["issue_counts"]
        },
    )
    lg_state = payload["looking_glass"]
    queries = (
        {asn: count for asn, count in lg_state["queries"]},
        float(lg_state["simulated_wait_s"]),
    )
    return traces, issues, queries


# ----------------------------------------------------------------------
# Alias sets
# ----------------------------------------------------------------------


def encode_alias_stage(alias_sets: AliasSets | None) -> dict[str, Any]:
    """Resolved alias groups (addresses as sorted lists)."""
    groups = [] if alias_sets is None else alias_sets.sets
    return {"groups": [sorted(group) for group in groups]}


def decode_alias_stage(payload: dict[str, Any]) -> AliasSets:
    """Rebuild :class:`AliasSets` from checkpointed groups."""
    return AliasSets.from_groups(
        [set(group) for group in payload["groups"]]
    )


# ----------------------------------------------------------------------
# CFS result
# ----------------------------------------------------------------------


def encode_cfs_stage(result: CfsResult) -> dict[str, Any]:
    """The final search state: interfaces, links, history, metrics.

    Interface dict order and link/history list order are preserved
    verbatim — downstream consumers (export, scoring) may iterate them,
    and a resumed run must render identical bytes.
    """
    metrics = result.metrics
    return {
        "interfaces": [
            {
                "address": state.address,
                "owner_asn": state.owner_asn,
                "candidates": (
                    None
                    if state.candidates is None
                    else sorted(state.candidates)
                ),
                "status": state.status.value,
                "inferred_type": state.inferred_type.value,
                "remote": state.remote,
                "conflicts": state.conflicts,
                "constrained_by_ixps": sorted(state.constrained_by_ixps),
                "data_health": state.data_health,
            }
            for state in result.interfaces.values()
        ],
        "links": [
            {
                "kind": link.kind.value,
                "inferred_type": link.inferred_type.value,
                "near_address": link.near_address,
                "near_asn": link.near_asn,
                "near_facility": link.near_facility,
                "far_asn": link.far_asn,
                "far_facility": link.far_facility,
                "ixp_id": link.ixp_id,
                "ixp_address": link.ixp_address,
                "far_address": link.far_address,
                "confidence": link.confidence,
            }
            for link in result.links
        ],
        "history": [
            {
                "iteration": stats.iteration,
                "total_interfaces": stats.total_interfaces,
                "resolved": stats.resolved,
                "unresolved_local": stats.unresolved_local,
                "unresolved_remote": stats.unresolved_remote,
                "missing_data": stats.missing_data,
                "followups_issued": stats.followups_issued,
                "observations_total": stats.observations_total,
                "observations_applied": stats.observations_applied,
                "traces_parsed": stats.traces_parsed,
            }
            for stats in result.history
        ],
        "iterations_run": result.iterations_run,
        "followup_traces": result.followup_traces,
        "peering_interfaces_seen": result.peering_interfaces_seen,
        "metrics": (
            None
            if metrics is None
            else {
                "counters": dict(metrics.counters),
                "stage_ns": dict(metrics.stage_ns),
                "stage_calls": dict(metrics.stage_calls),
            }
        ),
    }


def decode_cfs_stage(
    payload: dict[str, Any], alias_sets: AliasSets | None = None
) -> CfsResult:
    """Rebuild a :class:`CfsResult` from a checkpointed payload."""
    interfaces: dict[int, InterfaceState] = {}
    for entry in payload["interfaces"]:
        state = InterfaceState(
            address=entry["address"],
            owner_asn=entry["owner_asn"],
            candidates=(
                None
                if entry["candidates"] is None
                else set(entry["candidates"])
            ),
            status=InterfaceStatus(entry["status"]),
            inferred_type=InferredType(entry["inferred_type"]),
            remote=entry["remote"],
            conflicts=entry["conflicts"],
            constrained_by_ixps=set(entry["constrained_by_ixps"]),
            data_health=entry["data_health"],
        )
        interfaces[state.address] = state
    links = [
        LinkInference(
            kind=PeeringKind(entry["kind"]),
            inferred_type=InferredType(entry["inferred_type"]),
            near_address=entry["near_address"],
            near_asn=entry["near_asn"],
            near_facility=entry["near_facility"],
            far_asn=entry["far_asn"],
            far_facility=entry["far_facility"],
            ixp_id=entry["ixp_id"],
            ixp_address=entry["ixp_address"],
            far_address=entry["far_address"],
            confidence=entry["confidence"],
        )
        for entry in payload["links"]
    ]
    history = [
        IterationStats(
            iteration=entry["iteration"],
            total_interfaces=entry["total_interfaces"],
            resolved=entry["resolved"],
            unresolved_local=entry["unresolved_local"],
            unresolved_remote=entry["unresolved_remote"],
            missing_data=entry["missing_data"],
            followups_issued=entry["followups_issued"],
            observations_total=entry["observations_total"],
            observations_applied=entry["observations_applied"],
            traces_parsed=entry["traces_parsed"],
        )
        for entry in payload["history"]
    ]
    raw_metrics = payload["metrics"]
    metrics = (
        None
        if raw_metrics is None
        else MetricsSnapshot(
            counters=dict(raw_metrics["counters"]),
            stage_ns=dict(raw_metrics["stage_ns"]),
            stage_calls=dict(raw_metrics["stage_calls"]),
        )
    )
    return CfsResult(
        interfaces=interfaces,
        links=links,
        history=history,
        iterations_run=payload["iterations_run"],
        followup_traces=payload["followup_traces"],
        peering_interfaces_seen=payload["peering_interfaces_seen"],
        metrics=metrics,
        alias_sets=alias_sets,
    )
