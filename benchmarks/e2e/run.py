"""The repository's end-to-end benchmark: one command, four workloads.

Run one workload (the form the benchmark driver uses; the last line of
output is the result as JSON)::

    python3 benchmarks/e2e/run.py --workload batch --seed 0 --seconds 22 --trace 0

Run every workload, each in its own fresh process, one at a time::

    python3 benchmarks/e2e/run.py --seed 0            # end-to-end metrics
    python3 benchmarks/e2e/run.py --seed 0 --trace 1  # plus per-layer self times
    python3 benchmarks/e2e/run.py --smoke             # 1 rep each, all checks
    python3 benchmarks/e2e/run.py --repeat 5          # spread per metric

Every check prints a named ``FAIL`` line when it fails, and the command
then exits 1.  The program under test is imported from ``src/`` of the
checkout this file sits in; without it the command exits 2.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any

from measure import range_frac, spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: Run outputs: span dumps, repeat summaries, scratch checkpoint dirs.
OUT = HERE / ".out"
WORKLOAD_NAMES = ("batch", "parallel", "stream", "churn")
#: A child that has not finished by then is killed and counted failed.
CHILD_TIMEOUT_S = 900
DETAIL_PREFIX = "E2E-DETAIL "


def load_spec() -> dict[str, Any]:
    """``BENCHMARK.json`` of this checkout."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _load_workloads() -> Any:
    """Import the workloads module against this checkout's ``src/``."""
    package = ROOT / "src" / "repro" / "__init__.py"
    if not package.is_file():
        sys.stderr.write(f"e2e: no program to measure: {package} is missing\n")
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    return workloads


def result_line(
    correct: bool,
    attempted: int,
    failed: int,
    values: dict[str, float],
    units: dict[str, tuple[str, str]],
) -> str:
    """The JSON result object the benchmark prints last."""
    return json.dumps(
        {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": values[name], "unit": units[name][0]}
                for name in units
            },
        }
    )


def _format(value: float | None) -> str:
    if value is None:
        return "-"
    if isinstance(value, int) or float(value).is_integer():
        return f"{int(value)}"
    return f"{value:.6g}"


def run_one(args: argparse.Namespace) -> int:
    """Run one workload in this process and print its result."""
    workloads = _load_workloads()
    outcome = workloads.run_workload(
        args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        smoke=args.smoke,
        out_dir=OUT,
    )
    info = outcome.info
    print(
        f"workload {outcome.workload}: seed {args.seed}, {info['reps']} reps"
        + (f" + {info['traced_reps']} traced" if args.trace else "")
    )
    notes = {
        "setup_s": f"fastest of {info['setup_samples']} set-ups; "
        f"median {_format(info['setup_s_median'])}",
        "map_s": f"fastest of {info['reps']} reps; "
        f"median {_format(info['map_s_median'])}",
        "query_p50_us": f"lowest of {info['query_chunks']} chunk p50s; "
        f"median {_format(info['query_p50_us_median'])}",
        "query_qps": f"best of {info['query_chunks']} chunks; "
        f"median {_format(info['query_qps_median'])}",
        "resolved_frac": "exact",
        "facility_acc": "exact",
        "peak_rss_mb": "ru_maxrss of this process or its children",
    }
    for name, (unit, better) in workloads.END_TO_END.items():
        print(
            f"  {name:<16} {_format(outcome.metrics[name]):>12} {unit:<6} "
            f"({better} is better; {notes[name]})"
        )
    print(
        f"  info: {_format(info['run_s'])} s, {info['query_samples']} queries, "
        f"chunk p99 lowest {_format(info['query_p99_us'])} us "
        f"median {_format(info['query_p99_us_median'])} us, "
        f"median chunk p99.9 {_format(info['query_p999_us_median'])} us, "
        f"epoch_p50_s {_format(info['epoch_p50_s'])} "
        f"(n={info['epoch_samples']}), converge_s {_format(info['converge_s'])}"
    )
    if args.trace:
        print("  per-layer (median over traced reps; _s are self times):")
        for name, (unit, _) in workloads.PER_LAYER.items():
            print(f"    {name:<26} {_format(outcome.layers[name]):>12} {unit}")
    failures = 0
    for name, passed, detail in outcome.checks:
        if passed:
            print(f"  check {name}: ok ({detail})")
        else:
            failures += 1
            print(f"FAIL {outcome.workload} {name}: {detail}")
    detail = {
        "workload": outcome.workload,
        "seed": args.seed,
        "metrics": outcome.metrics,
        "layers": outcome.layers,
        "info": info,
        "checks": [list(check) for check in outcome.checks],
    }
    print(DETAIL_PREFIX + json.dumps(detail))
    if args.trace:
        values, units = outcome.layers, workloads.PER_LAYER
    else:
        values, units = outcome.metrics, workloads.END_TO_END
    print(
        result_line(
            failures == 0 and outcome.failed == 0,
            outcome.attempted,
            outcome.failed,
            values,
            units,
        )
    )
    return 0 if failures == 0 else 1


def run_child(
    script: Path,
    workload: str,
    *,
    seed: int,
    seconds: float,
    trace: bool,
    smoke: bool = False,
    echo: bool = True,
) -> dict[str, Any]:
    """Run one workload of ``script`` in a fresh process.

    Returns the child's detail record plus ``result`` (its final JSON
    line) and ``returncode``.  A child that prints no result gets an
    empty record with ``result`` set to ``None``.
    """
    command = [
        sys.executable,
        str(script),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(int(trace)),
    ] + (["--smoke"] if smoke else [])
    try:
        completed = subprocess.run(
            command,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
            check=False,
        )
    except subprocess.TimeoutExpired:
        return {"workload": workload, "result": None, "returncode": None}
    lines = completed.stdout.splitlines()
    record: dict[str, Any] = {"workload": workload}
    for line in lines:
        if line.startswith(DETAIL_PREFIX):
            record = json.loads(line[len(DETAIL_PREFIX):])
        elif echo:
            print(line)
    if echo and completed.stderr.strip():
        sys.stderr.write(completed.stderr)
    try:
        record["result"] = json.loads(lines[-1]) if lines else None
    except ValueError:
        record["result"] = None
    record["returncode"] = completed.returncode
    return record


def run_all(args: argparse.Namespace) -> int:
    """Every workload, one fresh process each, then a summary table."""
    records = [
        run_child(
            Path(__file__),
            name,
            seed=args.seed,
            seconds=args.seconds,
            trace=bool(args.trace),
            smoke=args.smoke,
        )
        for name in WORKLOAD_NAMES
    ]
    failures = [r["workload"] for r in records if r["returncode"] != 0]
    for name in failures:
        print(f"FAIL {name}: run did not pass (see above)")
    shown = [r for r in records if "metrics" in r]
    if shown:
        metrics = list(shown[0]["metrics"])
        print("\n" + f"{'workload':<10}" + "".join(f"{m:>15}" for m in metrics))
        for r in shown:
            print(
                f"{r['workload']:<10}"
                + "".join(f"{_format(r['metrics'][m]):>15}" for m in metrics)
            )
    return 1 if failures else 0


def run_repeat(args: argparse.Namespace) -> int:
    """K runs per workload on seeds seed..seed+K-1: median and spread."""
    names = [args.workload] if args.workload else list(WORKLOAD_NAMES)
    summary: dict[str, dict[str, dict[str, Any]]] = {}
    runs: dict[str, list[dict[str, Any]]] = {}
    failed = False
    for name in names:
        values: dict[str, list[float]] = {}
        runs[name] = []
        for offset in range(args.repeat):
            record = run_child(
                Path(__file__),
                name,
                seed=args.seed + offset,
                seconds=args.seconds,
                trace=bool(args.trace),
                echo=False,
            )
            runs[name].append(record)
            result = record["result"]
            if record["returncode"] != 0 or result is None:
                failed = True
                print(f"FAIL {name} seed {args.seed + offset}: run did not pass")
                continue
            for metric, entry in result["metrics"].items():
                values.setdefault(metric, []).append(entry["value"])
        summary[name] = {
            metric: {
                "median": statistics.median(series),
                "spread": spread(series),
                "range": range_frac(series),
                "values": series,
            }
            for metric, series in values.items()
        }
        print(f"{name}: {args.repeat} runs from seed {args.seed}")
        print(f"  {'metric':<26}{'median':>14}{'iqr/med':>10}{'range/med':>11}")
        for metric, row in summary[name].items():
            print(
                f"  {metric:<26}{_format(row['median']):>14}"
                f"{row['spread']:>10.4f}{row['range']:>11.4f}"
            )
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"repeat-seed{args.seed}-k{args.repeat}-trace{args.trace}.json"
    path.write_text(
        json.dumps({"summary": summary, "runs": runs}, indent=1) + "\n",
        encoding="utf-8",
    )
    print(f"summary written to {path}")
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark: batch, parallel, stream, churn."
    )
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float,
        help="measuring time per workload run (default: run_seconds "
        "in BENCHMARK.json)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="one rep per workload, fewer epochs and queries, every check",
    )
    parser.add_argument(
        "--repeat", type=int, default=0, metavar="K",
        help="run each workload K times on successive seeds; print spread",
    )
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = load_spec()["run_seconds"]
    if args.repeat:
        return run_repeat(args)
    if args.workload:
        return run_one(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
