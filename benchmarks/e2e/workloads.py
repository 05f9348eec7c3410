"""The benchmark's four workloads: reps, metrics, and correctness checks.

Every workload maps the same pinned world — the ``small`` scale at
pipeline seed 0, and on ``churn`` the churn plan of seed
:data:`CHURN_SEED` — and the run's ``--seed`` draws only what clients
send: the query mix and its keys.  The world is pinned because the
amount of work it implies swings by ±20% from one seed to the next at
this scale, which would swamp every regression bound, and so that the
map-quality ratios are exact on every workload; the small scale keeps a
rep short enough that a run's statistics rest on several reps.

One rep builds a fresh environment (the IP-ID responder is stateful,
so two maps never share one), maps it, then answers a closed-loop
query mix against what it published.  The driver is one client in one
process that sends its next query when the last one returns.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import random
import resource
import shutil
import statistics
import tempfile
import time
from array import array
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import repro.serve.snapshot as snapshots
from repro.api import (
    ChurnConfig,
    Instrumentation,
    MapService,
    PipelineConfig,
    QueryEngine,
    build_environment,
    config_fingerprint,
    int_to_ip,
    plan_churn,
    query_snapshot,
)
from repro.validation import AccuracyReport

from measure import percentile
from tracing import Tracer, summarize

__all__ = ["END_TO_END", "PER_LAYER", "WORKLOADS", "Outcome", "run_workload"]

SCALE = "small"
WORLD_SEED = 0
#: Seed of ``churn``'s plan: two facility power losses, two ASes leaving
#: and one entering over six epochs.
CHURN_SEED = 2
#: Set-up builds timed before the first rep; every rep adds two more
#: (one spare, one its own), spread over the run.
SETUP_SAMPLES = 3
#: The query engine moves to the next published snapshot this often.
SWAP_EVERY = 1000
#: Query latency is summarised per chunk of whole passes over the
#: publish history, at least this many queries long (so a chunk's p99
#: has 50 samples beyond it).
CHUNK_MIN = 5000
#: Every this-many non-health answers are recomputed and compared.
CHECK_EVERY = 1000
#: Queries per traced rep: enough for per-call self times, few enough
#: to keep the span dump small.
TRACED_QUERIES = 5000
SMOKE_QUERIES = 20_000

#: Counters that must repeat exactly across reps, traced or not.
DETERMINISTIC_COUNTERS = (
    "campaign.initial_traces",
    "campaign.followup_traces",
    "cfs.observations_applied",
    "classify.traces_parsed",
    "ingest.observations_applied",
)

#: Query mix of a live service: (kind, share).
LIVE_MIX = (
    ("iface-hit", 0.35),
    ("iface-miss", 0.10),
    ("link", 0.25),
    ("tenants", 0.15),
    ("health", 0.10),
    ("info", 0.05),
)
#: A batch map has no live service behind it, so the share of the
#: ``health`` verb goes to interface hits.
BATCH_MIX = (
    ("iface-hit", 0.45),
    ("iface-miss", 0.10),
    ("link", 0.25),
    ("tenants", 0.15),
    ("info", 0.05),
)


@dataclass(frozen=True)
class Workload:
    """One named workload: how it maps the world and how it is queried."""

    name: str
    why: str
    #: ``batch`` (campaign then CFS), ``stream`` (the classic epoch
    #: stream, durable) or ``churn`` (the temporal stream).
    kind: str
    #: Seconds one rep and its spare set-up take at the seed commit,
    #: with ~10% headroom for a busy host; a run of ``seconds`` makes
    #: ``seconds // rep_s`` reps (see :func:`run_workload`).
    rep_s: float
    workers: int = 1
    epochs: int = 0
    smoke_epochs: int = 0
    #: Query chunks (see :func:`chunk_size`) per rep.
    query_chunks: int = 4

    @property
    def mix(self) -> tuple[tuple[str, float], ...]:
        return BATCH_MIX if self.kind == "batch" else LIVE_MIX


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "batch",
            "the paper's Section-5 study, serial: campaign, MIDAR and the CFS "
            "loop do the work; the pool and the service sit idle",
            kind="batch",
            rep_s=2.1,
        ),
        Workload(
            "parallel",
            "batch on a 2-worker fork pool, the only workload where exec works; "
            "batch is its bypass twin",
            kind="batch",
            rep_s=2.1,
            workers=2,
        ),
        Workload(
            "stream",
            "8-epoch durable map service then a read-heavy query mix: fold, "
            "snapshot, publish+verify, stream checkpoint, read path",
            kind="stream",
            rep_s=3.5,
            epochs=8,
            smoke_epochs=4,
        ),
        Workload(
            "churn",
            "6-epoch churned stream: campaign re-run and a fresh fold per epoch, "
            "snapshot diffs and the disruption detector; no CFS loop",
            kind="churn",
            rep_s=4.3,
            epochs=6,
            smoke_epochs=3,
            query_chunks=3,
        ),
    )
}

#: name -> (unit, better) of the end-to-end metrics, reported on every
#: workload with tracing off.
END_TO_END: dict[str, tuple[str, str]] = {
    "setup_s": ("s", "lower"),
    "map_s": ("s", "lower"),
    "query_p50_us": ("us", "lower"),
    "query_qps": ("1/s", "higher"),
    "resolved_frac": ("ratio", "higher"),
    "facility_acc": ("ratio", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}

#: name -> (unit, better) of the per-layer metrics, from traced reps.
#: ``_s`` metrics of a span are self times summed over one rep.
PER_LAYER: dict[str, tuple[str, str]] = {
    "topology.build_s": ("s", "lower"),
    "env.assemble_s": ("s", "lower"),
    "campaign.plan_s": ("s", "lower"),
    "campaign.execute_s": ("s", "lower"),
    "campaign.execute_calls": ("count", "lower"),
    "campaign.traces": ("count", "lower"),
    "campaign.followup_s": ("s", "lower"),
    "campaign.followup_calls": ("count", "lower"),
    "campaign.followup_traces": ("count", "lower"),
    "alias.resolve_s": ("s", "lower"),
    "alias.resolve_calls": ("count", "lower"),
    "alias.addresses": ("count", "lower"),
    "cfs.run_self_s": ("s", "lower"),
    "cfs.stage.map_s": ("s", "lower"),
    "cfs.stage.extract_s": ("s", "lower"),
    "cfs.stage.constrain_s": ("s", "lower"),
    "cfs.stage.propagate_s": ("s", "lower"),
    "cfs.stage.finalize_s": ("s", "lower"),
    "cfs.iterations": ("count", "lower"),
    "cfs.observations_applied": ("count", "lower"),
    "cfs.apply_ratio": ("ratio", "higher"),
    "classify.traces_parsed": ("count", "lower"),
    "cfs.traces_reparsed": ("count", "lower"),
    "exec.map_s": ("s", "lower"),
    "exec.map_calls": ("count", "lower"),
    "exec.extract_blocks": ("count", "lower"),
    "exec.fallbacks": ("count", "lower"),
    "ingest.fold_self_s": ("s", "lower"),
    "ingest.fold_calls": ("count", "lower"),
    "ingest.interim_s": ("s", "lower"),
    "churn.censor_s": ("s", "lower"),
    "snapshot.build_s": ("s", "lower"),
    "snapshot.encode_s": ("s", "lower"),
    "snapshot.decode_s": ("s", "lower"),
    "snapshot.diff_s": ("s", "lower"),
    "publish.self_s": ("s", "lower"),
    "publish.calls": ("count", "lower"),
    "checkpoint.encode_s": ("s", "lower"),
    "checkpoint.write_s": ("s", "lower"),
    "checkpoint.write_calls": ("count", "lower"),
    "checkpoint.bytes": ("bytes", "lower"),
    "checkpoint.load_s": ("s", "lower"),
    "detect.observe_s": ("s", "lower"),
    "detect.observe_calls": ("count", "lower"),
    "query.execute_us": ("us", "lower"),
    "query.render_us": ("us", "lower"),
    "serve.epoch_p50_s": ("s", "lower"),
    "serve.converge_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
    "trace.coverage_frac": ("ratio", "higher"),
}


class EventClock:
    """Event sink stamping the events the benchmark reads with the clock."""

    NAMES = frozenset({"serve.snapshot.publish", "checkpoint.write"})

    def __init__(self) -> None:
        #: (name, ``perf_counter_ns``, payload) per stamped event.
        self.events: list[tuple[str, int, dict[str, Any]]] = []

    def emit(self, event: Any) -> None:
        if event.name in self.NAMES:
            self.events.append(
                (event.name, time.perf_counter_ns(), event.payload)
            )


@dataclass
class QueryStats:
    """What one rep's query phase measured and checked.

    Latencies are summarised per chunk (see :func:`chunk_size`), so each
    chunk answers from the same mix of map versions.
    """

    count: int
    #: (p50 ns, p99 ns, p99.9 ns, queries per second) of each chunk.
    chunks: list[tuple[float, float, float, float]] = field(default_factory=list)
    failures: int = 0
    checked: int = 0
    mismatches: list[str] = field(default_factory=list)


@dataclass
class Rep:
    """One fresh environment mapped and queried.

    Only fingerprints and summaries are kept, so what a run holds does
    not grow with its rep count.
    """

    traced: bool
    setup_s: float
    map_s: float
    #: ``perf_counter_ns`` when mapping started and ended.
    map_start: int
    map_end: int
    #: Content fingerprint of the final map.
    fingerprint: str
    #: Content fingerprints of every published map, in order.
    history: tuple[str, ...]
    #: (resolved fraction, facility accuracy) of the final map.
    quality: tuple[float, float]
    counters: dict[str, int]
    stage_ns: dict[str, int]
    events: list[tuple[str, int, dict[str, Any]]]
    queries: QueryStats | None = None
    layers: dict[str, float] = field(default_factory=dict)


@dataclass
class Outcome:
    """Everything one workload run reports."""

    workload: str
    metrics: dict[str, float]
    layers: dict[str, float]
    #: (check name, passed, detail)
    checks: list[tuple[str, bool, str]]
    attempted: int
    failed: int
    info: dict[str, Any]


def _config(workload: Workload, checkpoint_dir: str | None = None) -> PipelineConfig:
    config = PipelineConfig.for_scale(
        SCALE, seed=WORLD_SEED, workers=workload.workers
    )
    if checkpoint_dir is not None:
        config = dataclasses.replace(config, checkpoint_dir=checkpoint_dir)
    return config


def _set_up(workload: Workload, obs: Instrumentation, workdir: Path) -> Any:
    """What a rep maps from: an environment, or a map service."""
    if workload.kind == "batch":
        return build_environment(config=_config(workload))
    checkpoint_dir = str(workdir) if workload.kind == "stream" else None
    return MapService(_config(workload, checkpoint_dir), instrumentation=obs)


def _map(
    workload: Workload, state: Any, obs: Instrumentation, epochs: int
) -> tuple[Any, list[Any]]:
    """From a ready environment to the complete map: (final, published)."""
    if workload.kind == "batch":
        corpus = state.run_campaign(instrumentation=obs)
        result = state.run_cfs(corpus, instrumentation=obs)
        # Looked up at call time, so the tracer's patch applies.
        final = snapshots.build_snapshot(
            result,
            epoch=0,
            final=True,
            seed=state.config.seed,
            config_fingerprint=config_fingerprint(state.config),
            traces_ingested=len(corpus),
        )
        return final, [final]
    if workload.kind == "stream":
        handle = state.run_stream(epochs)
        return handle.final, list(handle.snapshots)
    plan = plan_churn(
        state.environment.topology, epochs, ChurnConfig.moderate(), CHURN_SEED
    )
    handle = state.run_stream(epochs, churn=plan)
    return handle.snapshots[-1], list(handle.snapshots)


def query_lines(
    snapshot: Any, count: int, seed: int, mix: tuple[tuple[str, float], ...]
) -> list[str]:
    """A seeded query mix over the keys of ``snapshot``."""
    rng = random.Random(f"e2e-queries:{seed}")
    addresses = sorted(snapshot.interfaces)
    pairs = sorted(snapshot.links_by_aspair)
    facilities = sorted(snapshot.facility_tenants)
    kinds = [kind for kind, _ in mix]
    weights = [share for _, share in mix]
    lines = []
    for kind in rng.choices(kinds, weights, k=count):
        if kind == "iface-hit":
            lines.append(f"iface {int_to_ip(rng.choice(addresses))}")
        elif kind == "iface-miss":
            address = rng.randrange(2**32)
            while address in snapshot.interfaces:
                address = rng.randrange(2**32)
            lines.append(f"iface {int_to_ip(address)}")
        elif kind == "link":
            near, far = rng.choice(pairs)
            lines.append(f"link {near} {far}")
        elif kind == "tenants":
            lines.append(f"tenants {rng.choice(facilities)}")
        elif kind == "health":
            lines.append(f"health {rng.choice(facilities)}")
        else:
            lines.append("info")
    return lines


def chunk_size(history: list[Any]) -> int:
    """Queries per chunk: whole passes over ``history``, at least
    :data:`CHUNK_MIN`."""
    one_pass = SWAP_EVERY * len(history)
    return one_pass * -(-CHUNK_MIN // one_pass)


def query_phase(lines: list[str], history: list[Any], health: Any) -> QueryStats:
    """Send ``lines`` one after another, swapping through ``history``.

    A response carrying an ``error`` key, or an exception, is a
    failure.  Every :data:`CHECK_EVERY`-th non-health answer is
    compared with a pure recomputation against the snapshot version
    the answer names.  A phase shorter than one chunk counts as one.
    """
    engine = QueryEngine(health=health)
    versions = {(s.epoch, s.fingerprint): s for s in history}
    clock = time.perf_counter_ns
    latencies = array("q")
    stats = QueryStats(len(lines))
    chunk = chunk_size(history)
    walls: list[int] = []
    non_health = 0
    chunk_started = clock()
    for index, line in enumerate(lines):
        if index % SWAP_EVERY == 0:
            if index and index % chunk == 0:
                now = clock()
                walls.append(now - chunk_started)
                chunk_started = now
            engine.swap(history[(index // SWAP_EVERY) % len(history)])
        sent = clock()
        try:
            answer = engine.execute_line(line)
        except Exception as error:  # a failed query must not end the run
            latencies.append(clock() - sent)
            stats.failures += 1
            stats.mismatches.append(f"{line!r} raised {error!r}")
            continue
        latencies.append(clock() - sent)
        if '"error":' in answer:
            stats.failures += 1
            continue
        if line.startswith("health"):
            continue
        non_health += 1
        if non_health % CHECK_EVERY == 0:
            document = json.loads(answer)
            snapshot = versions[(document["epoch"], document["fingerprint"])]
            expected = json.dumps(query_snapshot(snapshot, line), sort_keys=True)
            stats.checked += 1
            if answer != expected:
                stats.mismatches.append(f"{line!r} answered {answer[:120]}")
    if len(lines) % chunk == 0 or not walls:
        walls.append(clock() - chunk_started)
    size = chunk if len(lines) >= chunk else len(lines)
    for number, wall in enumerate(walls):
        ordered = sorted(latencies[number * size:(number + 1) * size])
        stats.chunks.append((
            percentile(ordered, 0.50),
            percentile(ordered, 0.99),
            percentile(ordered, 0.999),
            size / (wall / 1e9),
        ))
    return stats


def facility_accuracy(topology: Any, snapshot: Any) -> float:
    """Exact-facility share of the snapshot's resolved interfaces."""
    report = AccuracyReport()
    for address, facility in snapshot.interface_facility.items():
        if address in topology.interfaces:
            report.add(facility, topology.true_facility_of_address(address), topology)
    return report.facility_accuracy


def reference_fingerprint() -> str:
    """The serial batch map's fingerprint (the identity every map shares)."""
    batch = WORKLOADS["batch"]
    environment = build_environment(config=_config(batch))
    final, _ = _map(batch, environment, Instrumentation(), 0)
    return final.fingerprint


def peak_rss_mb() -> float:
    """Peak resident set of this process or any child it waited for."""
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak_kb / 1024


def _gaps(rep: Rep) -> tuple[list[float], float]:
    """Epoch publish gaps and the convergence time, in seconds."""
    publishes = [
        (stamp, payload["final"])
        for name, stamp, payload in rep.events
        if name == "serve.snapshot.publish"
    ]
    epoch_times = [rep.map_start] + [t for t, final in publishes if not final]
    gaps = [(b - a) / 1e9 for a, b in zip(epoch_times, epoch_times[1:])]
    finals = [t for t, final in publishes if final]
    converge = (finals[-1] - epoch_times[-1]) / 1e9 if finals and gaps else 0.0
    return gaps, converge


def _layer_metrics(tracer: Tracer, label: str, rep: Rep) -> dict[str, float]:
    """Per-layer metrics of one traced rep (all but the overhead)."""
    setup = summarize(tracer.spans, f"{label}:setup")
    mapped = summarize(tracer.spans, f"{label}:map")
    queried = summarize(tracer.spans, f"{label}:query")
    work = tracer.work.get(f"{label}:map", {})
    counters = rep.counters

    def seconds(table: dict[str, tuple[int, int]], name: str) -> float:
        return table.get(name, (0, 0))[0] / 1e9

    def calls(table: dict[str, tuple[int, int]], name: str) -> int:
        return table.get(name, (0, 0))[1]

    def per_call_us(name: str) -> float:
        total, count = queried.get(name, (0, 0))
        return total / count / 1e3 if count else 0.0

    applied = counters.get("cfs.observations_applied", 0)
    attempted = applied + counters.get("cfs.observations_skipped", 0)
    top_level = sum(
        span.end - span.start
        for span in tracer.spans
        if span.run == f"{label}:map" and span.parent is None
    )
    gaps, converge = _gaps(rep)
    map_events = [
        payload
        for name, stamp, payload in rep.events
        if name == "checkpoint.write" and rep.map_start <= stamp <= rep.map_end
    ]
    return {
        "topology.build_s": seconds(setup, "topology.build"),
        "env.assemble_s": seconds(setup, "env.assemble"),
        "campaign.plan_s": seconds(mapped, "campaign.plan"),
        "campaign.execute_s": seconds(mapped, "campaign.execute"),
        "campaign.execute_calls": calls(mapped, "campaign.execute"),
        "campaign.traces": work.get("campaign.execute.work", 0),
        "campaign.followup_s": seconds(mapped, "campaign.followup"),
        "campaign.followup_calls": calls(mapped, "campaign.followup"),
        "campaign.followup_traces": work.get("campaign.followup.work", 0),
        "alias.resolve_s": seconds(mapped, "alias.resolve"),
        "alias.resolve_calls": calls(mapped, "alias.resolve"),
        "alias.addresses": work.get("alias.resolve.work", 0),
        "cfs.run_self_s": seconds(mapped, "cfs.run"),
        **{
            f"cfs.stage.{stage}_s": rep.stage_ns.get(stage, 0) / 1e9
            for stage in ("map", "extract", "constrain", "propagate", "finalize")
        },
        "cfs.iterations": counters.get("cfs.iterations", 0),
        "cfs.observations_applied": applied,
        "cfs.apply_ratio": applied / attempted if attempted else 0.0,
        "classify.traces_parsed": counters.get("classify.traces_parsed", 0),
        "cfs.traces_reparsed": counters.get("cfs.traces_reparsed", 0),
        "exec.map_s": seconds(mapped, "exec.map"),
        "exec.map_calls": calls(mapped, "exec.map"),
        "exec.extract_blocks": counters.get("exec.extract.blocks", 0),
        "exec.fallbacks": sum(
            value
            for name, value in counters.items()
            if name.startswith("exec.fallback.")
        ),
        "ingest.fold_self_s": seconds(mapped, "ingest.fold"),
        "ingest.fold_calls": calls(mapped, "ingest.fold"),
        "ingest.interim_s": seconds(mapped, "ingest.interim"),
        "churn.censor_s": seconds(mapped, "churn.censor"),
        "snapshot.build_s": seconds(mapped, "snapshot.build"),
        "snapshot.encode_s": seconds(mapped, "snapshot.encode"),
        "snapshot.decode_s": seconds(mapped, "snapshot.decode"),
        "snapshot.diff_s": seconds(mapped, "snapshot.diff"),
        "publish.self_s": seconds(mapped, "publish"),
        "publish.calls": calls(mapped, "publish"),
        "checkpoint.encode_s": seconds(mapped, "checkpoint.encode"),
        "checkpoint.write_s": seconds(mapped, "checkpoint.write"),
        "checkpoint.write_calls": calls(mapped, "checkpoint.write"),
        "checkpoint.bytes": sum(payload["bytes"] for payload in map_events),
        "checkpoint.load_s": seconds(mapped, "checkpoint.load"),
        "detect.observe_s": seconds(mapped, "detect.observe"),
        "detect.observe_calls": calls(mapped, "detect.observe"),
        "query.execute_us": per_call_us("query.execute"),
        "query.render_us": per_call_us("query.render"),
        "serve.epoch_p50_s": statistics.median(gaps) if gaps else 0.0,
        "serve.converge_s": converge,
        "trace.coverage_frac": top_level / (rep.map_end - rep.map_start),
    }


@dataclass
class _Context:
    workload: Workload
    seed: int
    epochs: int
    smoke: bool
    scratch: Path
    tracer: Tracer
    lines: list[str] | None = None


def _run_rep(ctx: _Context, label: str, traced: bool) -> Rep:
    workload = ctx.workload
    tracer = ctx.tracer
    sink = EventClock()
    obs = Instrumentation(sink)
    clock = time.perf_counter_ns
    workdir = Path(tempfile.mkdtemp(dir=ctx.scratch))
    try:
        with tracer.installed() if traced else nullcontext():
            gc.collect()
            tracer.run = f"{label}:setup"
            started = clock()
            state = _set_up(workload, obs, workdir)
            setup_ns = clock() - started
            gc.collect()
            tracer.run = f"{label}:map"
            map_start = clock()
            final, history = _map(workload, state, obs, ctx.epochs)
            map_end = clock()
            snapshot = obs.snapshot()
            topology = (
                state.topology if workload.kind == "batch"
                else state.environment.topology
            )
            rep = Rep(
                traced=traced,
                setup_s=setup_ns / 1e9,
                map_s=(map_end - map_start) / 1e9,
                map_start=map_start,
                map_end=map_end,
                fingerprint=final.fingerprint,
                history=tuple(s.fingerprint for s in history),
                quality=(
                    final.stats["resolved"] / final.stats["interfaces"],
                    facility_accuracy(topology, final),
                ),
                counters=snapshot.counters,
                stage_ns=snapshot.stage_ns,
                events=sink.events,
            )
            if ctx.lines is None:
                chunk = chunk_size(history)
                chunks = (
                    max(1, SMOKE_QUERIES // chunk) if ctx.smoke
                    else workload.query_chunks
                )
                ctx.lines = query_lines(final, chunks * chunk, ctx.seed, workload.mix)
            lines = ctx.lines[:TRACED_QUERIES] if traced else ctx.lines
            health = None if workload.kind == "batch" else state.health
            gc.collect()
            tracer.run = f"{label}:query"
            rep.queries = query_phase(lines, history, health)
            tracer.run = ""
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if traced:
        rep.layers = _layer_metrics(tracer, label, rep)
    return rep


def _time_setups(ctx: _Context, count: int) -> list[float]:
    """Seconds taken by ``count`` stand-alone set-ups."""
    samples = []
    for _ in range(count):
        workdir = Path(tempfile.mkdtemp(dir=ctx.scratch))
        try:
            gc.collect()
            started = time.perf_counter_ns()
            _set_up(ctx.workload, Instrumentation(), workdir)
            samples.append((time.perf_counter_ns() - started) / 1e9)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    return samples


def _checks(
    workload: Workload, reps: list[Rep], trace: bool
) -> list[tuple[str, bool, str]]:
    """Every check of one run: (name, passed, detail)."""
    checks = []
    finals = sorted({rep.fingerprint for rep in reps})
    checks.append((
        "final-map-stable",
        len(finals) == 1,
        f"{len(finals)} distinct final-map fingerprints over {len(reps)} reps",
    ))
    if workload.kind != "batch":
        histories = {rep.history for rep in reps}
        checks.append((
            "epoch-maps-stable",
            len(histories) == 1,
            f"{len(histories)} distinct per-epoch fingerprint sequences",
        ))
    if workload.workers > 1 or workload.kind == "stream":
        reference = reference_fingerprint()
        checks.append((
            "equals-batch",
            finals == [reference],
            f"final map {finals[0][:12]}, serial batch map {reference[:12]}",
        ))
    stats = [rep.queries for rep in reps if rep.queries is not None]
    failures = sum(s.failures for s in stats)
    attempted = sum(s.count for s in stats)
    checks.append((
        "query-failures",
        failures == 0,
        f"{failures} of {attempted} queries failed",
    ))
    mismatches = [m for s in stats for m in s.mismatches]
    checked = sum(s.checked for s in stats)
    checks.append((
        "query-answers",
        not mismatches and checked > 0,
        f"{checked} answers recomputed, {len(mismatches)} differ"
        + (f"; first: {mismatches[0]}" if mismatches else ""),
    ))
    counters = {
        tuple(rep.counters.get(name, 0) for name in DETERMINISTIC_COUNTERS)
        for rep in reps
    }
    checks.append((
        "counters-identical",
        len(counters) == 1,
        f"{len(counters)} distinct values of {', '.join(DETERMINISTIC_COUNTERS)}"
        + (" across traced and untraced reps" if trace else ""),
    ))
    if trace:
        traced = [rep.layers for rep in reps if rep.traced]
        pool = {layers["exec.map_calls"] for layers in traced}
        folds = {layers["ingest.fold_calls"] for layers in traced}
        uses_pool = workload.workers > 1
        checks.append((
            "exec-only-on-pool",
            all(calls > 0 for calls in pool) if uses_pool else pool == {0},
            f"exec.map_calls {sorted(pool)} with {workload.workers} worker(s)",
        ))
        if workload.kind == "batch":
            checks.append((
                "no-fold-on-batch",
                folds == {0},
                f"ingest.fold_calls {sorted(folds)}",
            ))
    return checks


def run_workload(
    name: str,
    *,
    seed: int,
    seconds: float,
    trace: bool,
    smoke: bool,
    out_dir: Path,
) -> Outcome:
    """Run one workload for about ``seconds``, then check and summarise it.

    A run makes ``seconds // rep_s`` reps, at least one (in smoke mode,
    exactly one): a fixed count, so every timing below is the extreme
    of the same number of samples however fast the program is, and at
    the seed commit the run takes about ``seconds``.  With ``trace``,
    half as many untraced reps alternate with as many traced ones, so
    the overhead compares reps taken side by side.

    Timings report the fastest of their samples: this benchmark's
    noise is other tenants' load, which only ever slows a sample down,
    and it comes in spells long enough to cover half a run, where a
    median follows it.  The medians are kept in ``info``.
    """
    workload = WORKLOADS[name]
    scratch = out_dir / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    tracer = Tracer()
    ctx = _Context(
        workload=workload,
        seed=seed,
        epochs=workload.smoke_epochs if smoke else workload.epochs,
        smoke=smoke,
        scratch=scratch,
        tracer=tracer,
    )
    rounds = 1 if smoke else max(1, int(seconds // workload.rep_s))
    if trace:
        rounds = max(1, rounds // 2)
    started = time.perf_counter()
    setup_samples = _time_setups(ctx, SETUP_SAMPLES)
    reps: list[Rep] = []
    for _ in range(rounds):
        setup_samples += _time_setups(ctx, 1)
        reps.append(_run_rep(ctx, f"{name}:{len(reps)}", traced=False))
        if trace:
            reps.append(_run_rep(ctx, f"{name}:{len(reps)}", traced=True))
    run_s = time.perf_counter() - started
    peak = peak_rss_mb()

    untraced = [rep for rep in reps if not rep.traced]
    setup_samples += [rep.setup_s for rep in untraced]
    map_samples = [rep.map_s for rep in untraced]
    chunks = [chunk for rep in untraced for chunk in rep.queries.chunks]
    p50s, p99s, p999s, rates = (list(column) for column in zip(*chunks))
    first = untraced[0]
    metrics = {
        "setup_s": min(setup_samples),
        "map_s": min(map_samples),
        "query_p50_us": min(p50s) / 1e3,
        "query_qps": max(rates),
        "resolved_frac": first.quality[0],
        "facility_acc": first.quality[1],
        "peak_rss_mb": peak,
    }
    layers: dict[str, float] = {}
    if trace:
        traced = [rep for rep in reps if rep.traced]
        layers = {
            metric: statistics.median(rep.layers[metric] for rep in traced)
            for metric in traced[0].layers
        }
        layers["trace.overhead_frac"] = (
            min(rep.map_s for rep in traced) / metrics["map_s"] - 1
        )
        tracer.dump(out_dir / f"spans-{name}-seed{seed}.json")
    cadence = [_gaps(rep) for rep in untraced]
    gaps = [gap for rep_gaps, _ in cadence for gap in rep_gaps]
    stats = [rep.queries for rep in reps]
    info = {
        "run_s": run_s,
        "reps": len(untraced),
        "traced_reps": len(reps) - len(untraced),
        "setup_samples": len(setup_samples),
        "query_samples": sum(rep.queries.count for rep in untraced),
        "query_chunks": len(chunks),
        "setup_s_median": statistics.median(setup_samples),
        "map_s_median": statistics.median(map_samples),
        "query_p50_us_median": statistics.median(p50s) / 1e3,
        # Tail latency is informational: its run-to-run spread on a
        # shared host exceeds any bound the benchmark may set.
        "query_p99_us": min(p99s) / 1e3,
        "query_p99_us_median": statistics.median(p99s) / 1e3,
        "query_p999_us_median": statistics.median(p999s) / 1e3,
        "query_qps_median": statistics.median(rates),
        "epoch_p50_s": statistics.median(gaps) if gaps else None,
        "epoch_samples": len(gaps),
        "converge_s": (
            statistics.median(converge for _, converge in cadence)
            if workload.kind == "stream" else None
        ),
        "map_s_samples": map_samples,
    }
    return Outcome(
        workload=name,
        metrics=metrics,
        layers=layers,
        checks=_checks(workload, reps, trace),
        attempted=len(reps) + sum(s.count for s in stats),
        failed=sum(s.failures for s in stats),
        info=info,
    )
