"""Parent-vs-change comparison on the end-to-end benchmark.

    python3 benchmarks/e2e/compare.py BASE HEAD --pairs 10 --seed 100 \\
        --claim map_s@batch

Both revisions are exported with ``git archive`` into
``benchmarks/e2e/.out/compare/`` (the repository's ``.git`` is only
read), and this checkout's benchmark files are laid over both, so the
two sides run identical benchmark code.  Every workload then runs
``--pairs`` pairs on successive seeds, each run ``run_seconds`` of
``BENCHMARK.json`` long, alternating which side runs first.

Verdicts follow the benchmark's rules (``measure.py``): a claim
``metric@workload`` holds only when the change wins at least nine
tenths of the pairs and the medians differ by more than the parent's
quartile distance, with no more failed operations than the parent;
every other metric on every workload must not be worse than the
parent's median by more than its bound in ``BENCHMARK.json``, or is
reported ``unresolved`` when the run-to-run spread exceeds the bound.
Exits 1 when a claim is not met, a metric regresses, or a run fails.
"""

from __future__ import annotations

import argparse
import io
import shutil
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

from measure import claim_verdict, regression_verdict
from run import HERE, OUT, ROOT, WORKLOAD_NAMES, load_spec, run_child


def export(rev: str, destination: Path) -> Path:
    """``git archive`` one revision, with this benchmark laid over it."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev],
        capture_output=True,
        check=True,
    ).stdout
    if destination.exists():
        shutil.rmtree(destination)
    destination.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(destination, filter="data")
    bench = destination / "benchmarks" / "e2e"
    bench.mkdir(parents=True, exist_ok=True)
    for source in HERE.glob("*.py"):
        shutil.copy2(source, bench / source.name)
    return bench / "run.py"


def _quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"{values[0]:.6g}"
    first, _, third = statistics.quantiles(values, n=4)
    return f"{statistics.median(values):.6g} [{first:.6g}, {third:.6g}]"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="parent revision")
    parser.add_argument("head", help="changed revision")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0, help="seed of the first pair")
    parser.add_argument(
        "--claim", action="append", default=[], metavar="METRIC@WORKLOAD",
        help="a claimed gain to test (repeatable)",
    )
    args = parser.parse_args(argv)

    spec = load_spec()
    metrics = {entry["name"]: entry for entry in spec["end_to_end"]}
    claims: dict[str, list[str]] = {}
    for claim in args.claim:
        metric, _, workload = claim.partition("@")
        if metric not in metrics or workload not in WORKLOAD_NAMES:
            parser.error(f"--claim {claim!r}: expected <end-to-end metric>@<workload>")
        claims.setdefault(workload, []).append(metric)

    scripts = {
        side: export(rev, OUT / "compare" / side)
        for side, rev in (("base", args.base), ("head", args.head))
    }
    rows = []
    status = 0
    for workload in WORKLOAD_NAMES:
        values = {"base": {}, "head": {}}
        failed = {"base": 0, "head": 0}
        for index in range(args.pairs):
            order = ("base", "head") if index % 2 == 0 else ("head", "base")
            results = {}
            for side in order:
                record = run_child(
                    scripts[side],
                    workload,
                    seed=args.seed + index,
                    seconds=spec["run_seconds"],
                    trace=False,
                    echo=False,
                )
                if record["returncode"] != 0 or record["result"] is None:
                    print(f"FAIL {workload} {side} seed {args.seed + index}: run failed")
                    status = 1
                else:
                    results[side] = record["result"]
            if len(results) < 2:
                continue  # keep base and head values paired by seed
            for side, result in results.items():
                failed[side] += result["failed"]
                for metric, entry in result["metrics"].items():
                    values[side].setdefault(metric, []).append(entry["value"])
        print(f"{workload}: {args.pairs} pairs from seed {args.seed}")
        verdicts = []
        for metric, entry in metrics.items():
            base = values["base"].get(metric, [])
            head = values["head"].get(metric, [])
            if not base or not head:
                continue
            verdict = regression_verdict(base, head, entry["bound"], entry["better"])
            if metric in claims.get(workload, []):
                verdict = claim_verdict(list(zip(base, head)), entry["better"])
                if failed["head"] > failed["base"]:
                    verdict = "not met"
                verdict = f"claim {verdict}"
            if verdict in ("regression", "claim not met"):
                status = 1
            verdicts.append(verdict)
            print(
                f"  {metric:<14} base {_quartiles(base):<40} "
                f"head {_quartiles(head):<40} {verdict}"
            )
        rows.append((workload, verdicts, failed))
    print(f"\n{'workload':<10}{'ok':>4}{'regression':>12}{'unresolved':>12}  claims")
    for workload, verdicts, failed in rows:
        claimed = [v for v in verdicts if v.startswith("claim")]
        print(
            f"{workload:<10}{verdicts.count('ok'):>4}"
            f"{verdicts.count('regression'):>12}{verdicts.count('unresolved'):>12}"
            f"  {', '.join(claimed) or '-'}"
            f"  (failed ops: base {failed['base']}, head {failed['head']})"
        )
    return status


if __name__ == "__main__":
    sys.exit(main())
