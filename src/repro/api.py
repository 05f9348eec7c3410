"""Stable high-level entry points — the supported public API.

Downstream code (examples, benchmarks, notebooks) comes through this
module and nothing else: these names are kept stable across refactors
of the internal packages, and every symbol the bundled examples and
benchmarks use is re-exported here (lazily, via PEP 562, so importing
``repro.api`` stays cheap).

Batch entry points accept configuration as **keywords only**::

    from repro.api import run_pipeline

    result = run_pipeline(seed=7, scale="small")
    print(result.cfs_result.resolved_fraction())

The serving surface mirrors the batch one:

* :func:`serve_map` runs the always-on map service — streamed epoch
  ingest, one published snapshot per epoch — and returns a typed
  :class:`ServiceHandle`;
* :func:`open_snapshot` loads a previously published snapshot from a
  file or checkpoint directory, verifying its fingerprint;
* :func:`query` answers one line-protocol query against a snapshot.

Passing both a config and seed/scale keywords is rejected — the config
already fixes the seed and scale.
"""

from __future__ import annotations

from dataclasses import replace as _dataclass_replace
from typing import Any

from .core.pipeline import (
    Environment,
    PipelineConfig,
    PipelineResult,
    build_environment as _build_environment,
    run_pipeline as _run_pipeline,
)
from .faults.plan import FaultPlan
from .obs import Instrumentation
from .topology.builder import TopologyConfig, build_topology as _build_topology
from .topology.topology import Topology

__all__ = [
    "Environment",
    "FaultPlan",
    "Instrumentation",
    "MapSnapshot",
    "PipelineConfig",
    "PipelineResult",
    "ServiceHandle",
    "build_environment",
    "build_topology",
    "open_snapshot",
    "query",
    "run_pipeline",
    "serve_map",
]

#: Lazy re-exports (PEP 562): the supported way for downstream code to
#: reach substrate and experiment symbols without deep imports.  Each
#: entry maps a public name to its home ``(module, attribute)``; the
#: import happens on first attribute access.
_REEXPORTS: dict[str, tuple[str, str]] = {
    # -- serving surface ----------------------------------------------
    "MapService": ("repro.serve", "MapService"),
    "MapSnapshot": ("repro.serve", "MapSnapshot"),
    "QueryEngine": ("repro.serve", "QueryEngine"),
    "ServiceHandle": ("repro.serve", "ServiceHandle"),
    "ServiceHealth": ("repro.serve", "ServiceHealth"),
    "ServicePolicy": ("repro.serve", "ServicePolicy"),
    "SoakReport": ("repro.serve.soak", "SoakReport"),
    "build_snapshot": ("repro.serve", "build_snapshot"),
    "query_snapshot": ("repro.serve", "query_snapshot"),
    "run_soak": ("repro.serve.soak", "run_soak"),
    "config_fingerprint": ("repro.checkpoint", "config_fingerprint"),
    # -- temporal churn + disruption detection -------------------------
    "ChurnConfig": ("repro.topology.churn", "ChurnConfig"),
    "ChurnEvent": ("repro.topology.churn", "ChurnEvent"),
    "ChurnPlan": ("repro.topology.churn", "ChurnPlan"),
    "apply_events": ("repro.topology.churn", "apply_events"),
    "plan_churn": ("repro.topology.churn", "plan_churn"),
    "DisruptionDetector": ("repro.inference", "DisruptionDetector"),
    "DisruptionPolicy": ("repro.inference", "DisruptionPolicy"),
    "DisruptionReport": ("repro.inference", "DisruptionReport"),
    "SnapshotDiff": ("repro.inference", "SnapshotDiff"),
    "diff_snapshots": ("repro.serve", "diff_snapshots"),
    "OutageReport": ("repro.serve.outage", "OutageReport"),
    "run_outage": ("repro.serve.outage", "run_outage"),
    # -- experiments ---------------------------------------------------
    "run_ablation": ("repro.experiments", "run_ablation"),
    "run_alias_census": ("repro.experiments", "run_alias_census"),
    "run_as_connectivity_stats": ("repro.experiments", "run_as_connectivity_stats"),
    "run_coverage_growth": ("repro.experiments", "run_coverage_growth"),
    "run_fig2": ("repro.experiments", "run_fig2"),
    "run_fig3": ("repro.experiments", "run_fig3"),
    "run_fig7": ("repro.experiments", "run_fig7"),
    "run_fig8": ("repro.experiments", "run_fig8"),
    "run_fig9": ("repro.experiments", "run_fig9"),
    "run_fig10": ("repro.experiments", "run_fig10"),
    "run_measurement_cost": ("repro.experiments", "run_measurement_cost"),
    "run_multirole_census": ("repro.experiments", "run_multirole_census"),
    "run_proximity_validation": ("repro.experiments", "run_proximity_validation"),
    "run_table1": ("repro.experiments", "run_table1"),
    "role_contrast": ("repro.experiments.fig10", "role_contrast"),
    "clone_corpus": ("repro.experiments.context", "clone_corpus"),
    "experiment_environment": ("repro.experiments.context", "experiment_environment"),
    "experiment_run": ("repro.experiments.context", "experiment_run"),
    # -- chaos / validation / analysis / export ------------------------
    "comparable_export": ("repro.faults.chaos", "comparable_export"),
    "run_chaos": ("repro.faults.chaos", "run_chaos"),
    "score_interfaces": ("repro.validation", "score_interfaces"),
    "CriticalityIndex": ("repro.analysis", "CriticalityIndex"),
    "export_result": ("repro.export", "export_result"),
    "run_lint": ("repro.devtools.cli", "main"),
    # -- measurement substrates ----------------------------------------
    "IpidResponder": ("repro.measurement.ipid", "IpidResponder"),
    "MidarResolver": ("repro.alias.midar", "MidarResolver"),
    "TracerouteEngine": ("repro.measurement.traceroute", "TracerouteEngine"),
    # -- topology and core vocabulary ----------------------------------
    "ASRole": ("repro.topology", "ASRole"),
    "RouteComputer": ("repro.topology", "RouteComputer"),
    "LongestPrefixMatcher": ("repro.topology.addressing", "LongestPrefixMatcher"),
    "MAX_IPV4": ("repro.topology.addressing", "MAX_IPV4"),
    "Prefix": ("repro.topology.addressing", "Prefix"),
    "int_to_ip": ("repro.topology.addressing", "int_to_ip"),
    "ip_to_int": ("repro.topology.addressing", "ip_to_int"),
    "InterfaceStatus": ("repro.core.types", "InterfaceStatus"),
    "PeeringKind": ("repro.core.types", "PeeringKind"),
}


def __getattr__(name: str) -> Any:
    entry = _REEXPORTS.get(name)
    if entry is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module_name, attribute = entry
    import importlib

    value = getattr(importlib.import_module(module_name), attribute)
    globals()[name] = value  # cache: next access skips __getattr__
    return value


def __dir__() -> list[str]:
    return sorted(set(__all__) | set(_REEXPORTS) | set(globals()))


def _resolve_config(
    config: PipelineConfig | None, seed: int | None, scale: str | None
) -> PipelineConfig:
    if config is not None:
        if seed is not None or scale is not None:
            raise ValueError(
                "pass either config= or seed=/scale=, not both: the config "
                "already fixes the seed and scale"
            )
        return config
    return PipelineConfig.for_scale(scale or "small", seed=seed or 0)


def run_pipeline(
    *,
    config: PipelineConfig | None = None,
    seed: int | None = None,
    scale: str | None = None,
    instrumentation: Instrumentation | None = None,
    faults: FaultPlan | None = None,
    workers: int | None = None,
    checkpoint_dir: str | None = None,
    resume: bool = False,
    shard_timeout: float | None = None,
    progress=None,
) -> PipelineResult:
    """Build an environment, run the campaign, run CFS.

    ``instrumentation`` (optional) collects counters, stage timings and
    events across the campaign and the CFS loop; the frozen snapshot
    lands on ``result.cfs_result.metrics`` either way.

    ``faults`` (optional) installs a fault-injection plan on top of the
    resolved config; a zero plan produces byte-identical output to no
    plan at all.

    ``workers`` (optional) overrides the resolved config's process-pool
    width; any width produces byte-identical results, so parallelism is
    purely a wall-clock knob.

    ``checkpoint_dir`` (optional) durably checkpoints each completed
    stage there; ``resume=True`` additionally loads every intact stage
    instead of recomputing it (corrupt stages degrade to recompute with
    a warning).  A resumed run's output is byte-identical to an
    uninterrupted one.  ``shard_timeout`` (seconds) sets the executor
    supervisor's per-shard progress deadline, and ``progress`` receives
    human-readable stage/checkpoint notices.
    """
    resolved = _resolve_config(config, seed, scale)
    if faults is not None:
        resolved = _dataclass_replace(resolved, faults=faults)
    if workers is not None:
        resolved = _dataclass_replace(resolved, workers=workers)
    if checkpoint_dir is not None or resume:
        resolved = _dataclass_replace(
            resolved, checkpoint_dir=checkpoint_dir, resume=resume
        )
    if shard_timeout is not None:
        resolved = _dataclass_replace(resolved, shard_timeout_s=shard_timeout)
    return _run_pipeline(
        resolved, instrumentation=instrumentation, progress=progress
    )


def build_environment(
    *,
    config: PipelineConfig | None = None,
    seed: int | None = None,
    scale: str | None = None,
    faults: FaultPlan | None = None,
    workers: int | None = None,
    shard_timeout: float | None = None,
) -> Environment:
    """Wire the full measurement stack without running anything.

    ``faults`` installs a fault-injection plan, ``workers`` sets the
    process-pool width, and ``shard_timeout`` the supervisor's
    per-shard deadline, on top of the resolved config (see
    :func:`run_pipeline`).
    """
    resolved = _resolve_config(config, seed, scale)
    if faults is not None:
        resolved = _dataclass_replace(resolved, faults=faults)
    if workers is not None:
        resolved = _dataclass_replace(resolved, workers=workers)
    if shard_timeout is not None:
        resolved = _dataclass_replace(resolved, shard_timeout_s=shard_timeout)
    return _build_environment(resolved)


def build_topology(
    *,
    config: TopologyConfig | None = None,
    seed: int | None = None,
    scale: str | None = None,
) -> Topology:
    """Generate one ground-truth Internet.

    With ``seed=``/``scale=``, the topology is the same one
    :func:`run_pipeline` would study at that seed and scale (the
    pipeline derives its topology seed from the master seed).
    """
    if config is None:
        config = _resolve_config(None, seed, scale).topology
    elif seed is not None or scale is not None:
        raise ValueError(
            "pass either config= or seed=/scale=, not both: the config "
            "already fixes the seed and scale"
        )
    return _build_topology(config)


# ---------------------------------------------------------------------
# Serving surface
# ---------------------------------------------------------------------


def serve_map(
    *,
    config: PipelineConfig | None = None,
    seed: int | None = None,
    scale: str | None = None,
    epochs: int = 4,
    stop_after_epoch: int | None = None,
    instrumentation: Instrumentation | None = None,
    faults: FaultPlan | None = None,
    checkpoint_dir: str | None = None,
    resume: bool = False,
    policy: Any = None,
    progress=None,
) -> "ServiceHandle":
    """Run the always-on map service over a streamed campaign.

    The campaign plan executes in ``epochs`` contiguous slices; after
    each, an interim snapshot is published (durably, when
    ``checkpoint_dir`` is set) and swapped into the read path.  The
    returned :class:`ServiceHandle` exposes the published history, the
    final converged snapshot — fingerprint-identical to
    :func:`run_pipeline`'s map for the same config — and a live
    ``query()``.

    ``stop_after_epoch=k`` pauses after epoch ``k`` (``final`` stays
    ``None``); a later call with ``resume=True`` and the same
    ``checkpoint_dir`` restores mid-stream state and continues.

    ``policy`` (a :class:`~repro.serve.ServicePolicy`) tunes the
    supervisor: epoch retry budget, publish retry budget, snapshot
    retention, and the staleness threshold behind the ``health`` verb.
    """
    from .serve import MapService

    resolved = _resolve_config(config, seed, scale)
    if faults is not None:
        resolved = _dataclass_replace(resolved, faults=faults)
    if checkpoint_dir is not None or resume:
        resolved = _dataclass_replace(
            resolved, checkpoint_dir=checkpoint_dir, resume=resume
        )
    service = MapService(
        resolved,
        instrumentation=instrumentation,
        policy=policy,
        progress=progress,
    )
    return service.run_stream(epochs, stop_after_epoch=stop_after_epoch)


def open_snapshot(path: str) -> "MapSnapshot":
    """Load a published :class:`MapSnapshot` from a file or directory.

    ``path`` may be one snapshot stage file or a checkpoint directory
    (the final snapshot is preferred, else the highest epoch).  The
    snapshot's content fingerprint is re-verified on load; tampered or
    truncated payloads raise :class:`ValueError`.
    """
    from .serve import open_snapshot as _open

    return _open(path)


def query(snapshot: "MapSnapshot", line: str) -> dict[str, Any]:
    """Answer one line-protocol query against ``snapshot``.

    See :mod:`repro.serve.query` for the protocol (``iface <addr>``,
    ``link <asn> <asn>``, ``tenants <facility>``, ``info``, ``help``).
    """
    from .serve import query_snapshot

    return query_snapshot(snapshot, line)
