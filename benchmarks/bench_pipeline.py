"""End-to-end pipeline benchmarks: environment build, campaign, CFS.

Timed at the small scale so the stages are individually measurable with
multiple rounds; the figure benchmarks exercise the default scale.  The
CFS benchmarks time both evaluation engines — the incremental dirty-set
engine (default) and the paper-literal full-rescan loop — so the
speedup stays visible in every benchmark run.

Standalone smoke mode (no pytest-benchmark needed)::

    python benchmarks/bench_pipeline.py --quick

runs the engine comparison on a few small seeds plus a
workers-vs-serial speedup curve (1/2/4 workers, with ``cores_limited``
recorded on single-CPU hosts), a kill-one-worker-and-recover
supervisor smoke, and a checkpoint/resume smoke, checks the inferences stay byte-identical throughout, and
writes ``BENCH_pipeline.json`` next to the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

if __name__ == "__main__":
    # Standalone smoke mode runs without an installed package.
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))

import pytest

from repro.api import PipelineConfig, build_environment

from _report import record_report


@pytest.fixture(scope="module")
def small_pipeline_env():
    return build_environment(scale="small", seed=5)


def test_environment_build(benchmark):
    env = benchmark.pedantic(
        build_environment,
        kwargs={"scale": "small", "seed": 6},
        rounds=3,
        iterations=1,
    )
    assert env.topology.summary()["ases"] > 50


def test_initial_campaign(benchmark, small_pipeline_env):
    corpus = benchmark.pedantic(
        small_pipeline_env.run_campaign,
        kwargs={"seed_offset": 300},
        rounds=3,
        iterations=1,
    )
    assert len(corpus) > 500


def _timed_cfs(env, corpus, incremental: bool, seed_offset: int):
    from repro.api import clone_corpus

    started = time.perf_counter()
    result = env.run_cfs(
        clone_corpus(corpus),
        cfs_config=env.config.cfs.replace(incremental=incremental),
        seed_offset=seed_offset,
    )
    return time.perf_counter() - started, result


def test_cfs_full_run(benchmark, small_pipeline_env):
    env = small_pipeline_env
    corpus = env.run_campaign(seed_offset=301)

    counter = iter(range(1000))

    def run():
        from repro.api import clone_corpus

        return env.run_cfs(clone_corpus(corpus), seed_offset=310 + next(counter))

    result = benchmark.pedantic(run, rounds=2, iterations=1)
    assert result.resolved_fraction() > 0.4
    record_report(
        "End-to-end pipeline (small scale)",
        f"interfaces={result.peering_interfaces_seen} "
        f"resolved_fraction={result.resolved_fraction():.3f} "
        f"iterations={result.iterations_run} "
        f"followup_traces={result.followup_traces}",
    )


def test_cfs_engine_comparison(benchmark, small_pipeline_env):
    """Incremental dirty-set engine vs the full-rescan oracle."""
    env = small_pipeline_env
    corpus = env.run_campaign(seed_offset=302)

    counter = iter(range(1000))

    def run_incremental():
        return _timed_cfs(env, corpus, True, 600 + next(counter))[1]

    result = benchmark.pedantic(run_incremental, rounds=2, iterations=1)
    full_seconds, full_result = _timed_cfs(env, corpus, False, 600 + next(counter))
    metrics = result.metrics
    record_report(
        "CFS engine comparison (small scale)",
        f"full_rescan={full_seconds:.2f}s "
        f"incremental_applied={metrics.counter('cfs.observations_applied')} "
        f"incremental_skipped={metrics.counter('cfs.observations_skipped')} "
        f"full_applied="
        f"{full_result.metrics.counter('cfs.observations_applied')} "
        f"traces_reparsed={metrics.counter('cfs.traces_reparsed')} "
        f"trace_cache_hits={metrics.counter('cfs.trace_cache_hits')}",
    )


# ----------------------------------------------------------------------
# Standalone smoke mode
# ----------------------------------------------------------------------

QUICK_SEEDS = (0, 1, 2)


def _comparable_export(env, result) -> dict:
    from repro.api import export_result

    exported = export_result(result, env.facility_db)
    exported.pop("metrics")
    for record in exported["history"]:
        record.pop("applied")
        record.pop("traces_parsed")
    return exported


def _smoke_seed(seed: int, scale: str) -> dict:
    """Both engines over identical fresh environments at one seed.

    Fresh environments per engine: the IP-ID responder is stateful, so
    a shared one would let the first run perturb the second's probes.
    """
    rows: dict[str, dict] = {}
    exports = {}
    for name, incremental in (("incremental", True), ("full_rescan", False)):
        env = build_environment(config=PipelineConfig.for_scale(scale, seed=seed))
        corpus = env.run_campaign()
        started = time.perf_counter()
        result = env.run_cfs(
            corpus,
            cfs_config=env.config.cfs.replace(incremental=incremental),
        )
        elapsed = time.perf_counter() - started
        metrics = result.metrics
        rows[name] = {
            "cfs_seconds": round(elapsed, 3),
            "iterations": result.iterations_run,
            "observations_applied": metrics.counter("cfs.observations_applied"),
            "traces_parsed": metrics.counter("classify.traces_parsed"),
            "extract_seconds": round(
                metrics.stage_seconds.get("extract", 0.0), 3
            ),
            "constrain_seconds": round(
                metrics.stage_seconds.get("constrain", 0.0), 3
            ),
        }
        exports[name] = _comparable_export(env, result)
    identical = exports["incremental"] == exports["full_rescan"]
    speedup = rows["full_rescan"]["cfs_seconds"] / max(
        rows["incremental"]["cfs_seconds"], 1e-9
    )
    return {
        "seed": seed,
        "identical": identical,
        "speedup": round(speedup, 3),
        **rows,
    }


def _workers_smoke(scale: str) -> dict:
    """Workers-vs-serial speedup curve (1/2/4 workers) at one seed.

    Byte-identity of every width against serial is the gate the smoke
    enforces unconditionally.  The speedup is only meaningful with real
    cores behind the pool — on a single-CPU host the extra forks just
    time-slice one core and the "speedup" measures pure overhead — so
    the row records ``cores_limited: true`` when ``cpu_count < 2`` and
    the speedup assertion (here and in ``scripts/check.sh``) is
    skipped, never the identity one.
    """
    cpu_count = os.cpu_count() or 1
    curve: dict[str, dict] = {}
    serial_export = None
    serial_seconds = 1e-9
    for workers in (1, 2, 4):
        env = build_environment(
            config=PipelineConfig.for_scale(scale, seed=0, workers=workers)
        )
        started = time.perf_counter()
        corpus = env.run_campaign()
        result = env.run_cfs(corpus)
        elapsed = time.perf_counter() - started
        exported = _comparable_export(env, result)
        if workers == 1:
            serial_export = exported
            serial_seconds = max(elapsed, 1e-9)
        name = "serial" if workers == 1 else f"workers{workers}"
        curve[name] = {
            "workers": workers,
            "pipeline_seconds": round(elapsed, 3),
            "identical": exported == serial_export,
            "speedup": round(serial_seconds / max(elapsed, 1e-9), 3),
        }
    return {
        "identical": all(point["identical"] for point in curve.values()),
        "speedup": curve["workers2"]["speedup"],
        "cpu_count": cpu_count,
        "cores_limited": cpu_count < 2,
        **curve,
    }


def _supervisor_smoke(scale: str) -> dict:
    """Kill-one-worker-and-recover: the supervisor's contract in one bit.

    Runs the pipeline at ``workers=2`` under a seeded ``worker_crash``
    plan (workers die mid-shard with ``os._exit``; nothing else is
    faulted) and compares against an unfaulted serial run.
    ``recovered`` is the gate: the supervisor really saw crashes
    (``shard_retries > 0``) *and* the inferences stayed byte-identical.
    """
    from repro.api import FaultPlan, Instrumentation, run_pipeline

    import dataclasses

    clean_env = build_environment(config=PipelineConfig.for_scale(scale, seed=0))
    clean_corpus = clean_env.run_campaign()
    clean_result = clean_env.run_cfs(clean_corpus)

    config = dataclasses.replace(
        PipelineConfig.for_scale(scale, seed=0),
        workers=2,
        faults=FaultPlan(worker_crash=0.5),
    )
    obs = Instrumentation()
    started = time.perf_counter()
    run = run_pipeline(config=config, instrumentation=obs)
    elapsed = time.perf_counter() - started
    identical = _comparable_export(
        run.environment, run.cfs_result
    ) == _comparable_export(clean_env, clean_result)
    retries = obs.counter("exec.shard.retry")
    return {
        "identical": identical,
        "shard_retries": retries,
        "shard_quarantines": obs.counter("exec.shard.quarantine"),
        "pool_rebuilds": obs.counter("exec.pool.rebuild"),
        "recovered": bool(identical and retries > 0),
        "pipeline_seconds": round(elapsed, 3),
    }


def _resume_smoke(scale: str) -> dict:
    """Checkpoint a run, resume it, and compare the exports.

    Records the wall-clock of the checkpointing run and of the resume
    (the resume should be near-instant: every stage loads from disk),
    plus the byte-identity bit the smoke gates on.
    """
    import tempfile

    from repro.api import Instrumentation, run_pipeline

    with tempfile.TemporaryDirectory(prefix="bench-ckpt-") as checkpoint_dir:
        config = PipelineConfig.for_scale(scale, seed=0)
        import dataclasses

        first_config = dataclasses.replace(
            config, checkpoint_dir=checkpoint_dir
        )
        started = time.perf_counter()
        first = run_pipeline(config=first_config)
        first_seconds = time.perf_counter() - started
        resume_config = dataclasses.replace(
            config, checkpoint_dir=checkpoint_dir, resume=True
        )
        obs = Instrumentation()
        started = time.perf_counter()
        resumed = run_pipeline(config=resume_config, instrumentation=obs)
        resume_seconds = time.perf_counter() - started
    identical = _comparable_export(
        resumed.environment, resumed.cfs_result
    ) == _comparable_export(first.environment, first.cfs_result)
    return {
        "identical": identical,
        "stages_loaded": obs.counter("checkpoint.load"),
        "first_run_seconds": round(first_seconds, 3),
        "resume_seconds": round(resume_seconds, 3),
    }


def _lint_smoke() -> tuple[dict, bool]:
    """Run ``repro lint --format json`` over the installed tree.

    Returns the recorded summary (finding/suppression counts over time
    live in BENCH_pipeline.json) and whether the gate failed.
    """
    import contextlib
    import io

    from repro.api import run_lint as lint_main

    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        exit_code = lint_main(["--format", "json"])
    document = json.loads(stdout.getvalue())
    summary = {
        "exit_code": exit_code,
        "schema_version": document["schema_version"],
        "files_scanned": document["files_scanned"],
        "findings": len(document["findings"]),
        "counts": document["counts"],
        "suppressed": len(document["suppressed"]),
    }
    status = "ok" if exit_code == 0 else "FINDINGS"
    print(
        f"lint: {status} files={summary['files_scanned']} "
        f"findings={summary['findings']} "
        f"suppressed={summary['suppressed']}"
    )
    return summary, exit_code != 0


def _sanitizer_smoke(scale: str) -> tuple[dict, bool]:
    """One pipeline run with the reprosan sanitizer armed.

    Must finish with zero violations and the same map fingerprint as a
    plain run of the same seed (the sanitizer never changes bytes).
    """
    import dataclasses

    from repro import sanitize
    from repro.api import run_pipeline

    config = PipelineConfig.for_scale(scale, seed=QUICK_SEEDS[0])
    before = len(sanitize.violations())
    started = time.perf_counter()
    sanitized = run_pipeline(
        config=dataclasses.replace(config, sanitize=True)
    )
    seconds = time.perf_counter() - started
    plain = run_pipeline(config=config)
    violations = len(sanitize.violations()) - before
    identical = _comparable_export(
        sanitized.environment, sanitized.cfs_result
    ) == _comparable_export(plain.environment, plain.cfs_result)
    row = {
        "violations": violations,
        "identical": identical,
        "pipeline_seconds": round(seconds, 3),
    }
    clean = violations == 0 and identical
    print(
        f"sanitizer: {'ok' if clean else 'VIOLATIONS'} "
        f"violations={violations} identical={identical} "
        f"seconds={row['pipeline_seconds']}"
    )
    return row, not clean


def quick_smoke(output: str, scale: str = "small") -> int:
    """Run the engine comparison smoke and write ``BENCH_pipeline.json``.

    Returns a process exit code (non-zero when an engine pair diverges).
    """
    report = {
        "schema": "repro/bench-pipeline/1",
        "scale": scale,
        "seeds": [],
    }
    failed = False
    for seed in QUICK_SEEDS:
        row = _smoke_seed(seed, scale)
        report["seeds"].append(row)
        status = "ok" if row["identical"] else "DIVERGED"
        print(
            f"seed {seed}: {status} "
            f"incremental={row['incremental']['cfs_seconds']}s "
            f"full={row['full_rescan']['cfs_seconds']}s "
            f"speedup={row['speedup']}x"
        )
        failed = failed or not row["identical"]
    report["workers"] = workers_row = _workers_smoke(scale)
    workers_status = "ok" if workers_row["identical"] else "DIVERGED"
    curve = " ".join(
        f"{name}={point['pipeline_seconds']}s({point['speedup']}x)"
        for name, point in workers_row.items()
        if isinstance(point, dict)
    )
    print(
        f"workers: {workers_status} {curve} cpus={workers_row['cpu_count']}"
        + (" cores_limited" if workers_row["cores_limited"] else "")
    )
    failed = failed or not workers_row["identical"]
    if workers_row["cores_limited"]:
        print(
            "workers: speedup assertion skipped "
            f"(cpu_count={workers_row['cpu_count']} < 2)"
        )
    elif workers_row["speedup"] <= 1.0:
        print(
            f"workers: SLOWDOWN speedup={workers_row['speedup']}x "
            f"with {workers_row['cpu_count']} cpus"
        )
        failed = True
    report["supervisor"] = supervisor_row = _supervisor_smoke(scale)
    supervisor_status = "ok" if supervisor_row["recovered"] else "FAILED"
    print(
        f"supervisor: {supervisor_status} "
        f"retries={supervisor_row['shard_retries']} "
        f"quarantines={supervisor_row['shard_quarantines']} "
        f"rebuilds={supervisor_row['pool_rebuilds']} "
        f"identical={supervisor_row['identical']}"
    )
    failed = failed or not supervisor_row["recovered"]
    report["resume"] = resume_row = _resume_smoke(scale)
    resume_status = "ok" if resume_row["identical"] else "DIVERGED"
    print(
        f"resume: {resume_status} "
        f"stages_loaded={resume_row['stages_loaded']} "
        f"first={resume_row['first_run_seconds']}s "
        f"resume={resume_row['resume_seconds']}s"
    )
    failed = failed or not resume_row["identical"]
    report["lint"], lint_failed = _lint_smoke()
    failed = failed or lint_failed
    report["sanitizer"], sanitizer_failed = _sanitizer_smoke(scale)
    failed = failed or sanitizer_failed
    path = Path(output)
    path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"report written to {path}")
    # Fold in the chaos, serve, soak, and outage quick entries so one
    # smoke run covers all five reports.
    try:
        from bench_chaos import quick_chaos
        from bench_outage import quick_outage
        from bench_serve import quick_serve
        from bench_soak import quick_soak
    except ImportError:  # imported as a module, benchmarks/ not on path
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from bench_chaos import quick_chaos
        from bench_outage import quick_outage
        from bench_serve import quick_serve
        from bench_soak import quick_soak

    chaos_output = str(path.parent / "BENCH_chaos.json")
    chaos_failed = quick_chaos(chaos_output, scale=scale)
    serve_output = str(path.parent / "BENCH_serve.json")
    serve_failed = quick_serve(serve_output, scale=scale)
    soak_output = str(path.parent / "BENCH_soak.json")
    soak_failed = quick_soak(soak_output, scale=scale)
    outage_output = str(path.parent / "BENCH_outage.json")
    outage_failed = quick_outage(outage_output, scale=scale)
    return 1 if (
        failed or chaos_failed or serve_failed or soak_failed or outage_failed
    ) else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="run the engine-comparison smoke and write BENCH_pipeline.json",
    )
    parser.add_argument(
        "--scale",
        choices=PipelineConfig.SCALES,
        default="small",
        help="pipeline scale for the smoke run",
    )
    parser.add_argument(
        "--output",
        default="BENCH_pipeline.json",
        help="where to write the smoke report",
    )
    args = parser.parse_args(argv)
    if not args.quick:
        parser.error("standalone mode requires --quick (or run under pytest)")
    return quick_smoke(args.output, scale=args.scale)


if __name__ == "__main__":
    sys.exit(main())
