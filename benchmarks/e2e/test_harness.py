"""Tests of the end-to-end benchmark harness.

    PYTHONPATH=src python -m pytest benchmarks/e2e

Covers the arithmetic the benchmark's verdicts rest on (self time,
percentiles, spread, regression and claim verdicts), the agreement of
``BENCHMARK.json`` with what ``run.py`` reports, and one ``--smoke``
run of every workload with every check on.
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

from measure import claim_verdict, percentile, regression_verdict, spread
from tracing import Span, self_times, summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def test_self_time_subtracts_nested_children():
    spans = [
        Span("root", 0, 100, None, "r"),
        Span("a", 10, 30, 0, "r"),
        Span("b", 40, 90, 0, "r"),
        Span("c", 50, 60, 2, "r"),
    ]
    assert self_times(spans) == [30, 20, 40, 10]


def test_self_time_merges_overlapping_children_and_clips_them():
    spans = [
        Span("root", 0, 100, None, "r"),
        Span("a", 10, 50, 0, "r"),
        Span("b", 30, 70, 0, "r"),
        Span("late", 90, 130, 0, "r"),
    ]
    # Covered: [10, 70] and [90, 100], 70 of the root's 100.
    assert self_times(spans)[0] == 30


def test_summarize_sums_self_time_per_name_within_one_run():
    spans = [
        Span("cfs.run", 0, 100, None, "batch:0:map"),
        Span("alias.resolve", 10, 40, 0, "batch:0:map"),
        Span("alias.resolve", 50, 60, 0, "batch:0:map"),
        Span("alias.resolve", 0, 500, None, "batch:1:map"),
    ]
    assert summarize(spans, "batch:0:map") == {
        "cfs.run": (60, 1),
        "alias.resolve": (40, 2),
    }


def test_percentile_uses_the_nearest_rank():
    hundred = list(range(1, 101))
    assert percentile(hundred, 0.50) == 50
    assert percentile(hundred, 0.99) == 99
    assert percentile(hundred, 0.999) == 100
    assert percentile(hundred, 0.0) == 1
    assert percentile([1, 2, 3], 0.5) == 2
    assert percentile([7.0], 0.99) == 7.0
    with pytest.raises(ValueError):
        percentile([], 0.5)


def test_spread_is_quartile_distance_over_median():
    values = [10.0, 11.0, 12.0, 13.0, 14.0]
    first, _, third = statistics.quantiles(values, n=4)
    assert spread(values) == pytest.approx((third - first) / 12.0)
    assert spread([5.0]) == 0.0


BASE = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00]


def test_regression_verdict_passes_a_win_and_a_change_within_the_bound():
    assert regression_verdict(BASE, [x * 0.8 for x in BASE], 0.05, "lower") == "ok"
    assert regression_verdict(BASE, [x * 1.03 for x in BASE], 0.05, "lower") == "ok"


def test_regression_verdict_flags_a_change_beyond_the_bound():
    slower = [x * 1.10 for x in BASE]
    assert regression_verdict(BASE, slower, 0.05, "lower") == "regression"
    fewer = [x * 0.90 for x in BASE]
    assert regression_verdict(BASE, fewer, 0.05, "higher") == "regression"
    assert regression_verdict([0.6] * 5, [0.59] * 5, 0.0, "higher") == "regression"


def test_regression_verdict_is_unresolved_when_spread_exceeds_the_bound():
    noisy = [0.7, 1.3, 0.9, 1.2, 0.8, 1.1, 1.0, 1.25, 0.75, 1.05]
    assert regression_verdict(BASE, noisy, 0.05, "lower") == "unresolved"
    # ... unless every run of the change beats every run of the parent.
    assert regression_verdict(noisy, [0.5] * 10, 0.05, "lower") == "ok"


def test_claim_needs_nine_tenths_of_pairs_and_a_gap_beyond_the_parent_iqr():
    faster = [x * 0.9 for x in BASE]
    assert claim_verdict(list(zip(BASE, faster)), "lower") == "win"
    one_loss = faster[:9] + [BASE[9] * 1.2]
    assert claim_verdict(list(zip(BASE, one_loss)), "lower") == "win"
    two_losses = faster[:8] + [BASE[8] * 1.2, BASE[9] * 1.2]
    assert claim_verdict(list(zip(BASE, two_losses)), "lower") == "not met"
    hairline = [x - 0.0005 for x in BASE]
    assert claim_verdict(list(zip(BASE, hairline)), "lower") == "not met"
    assert claim_verdict(list(zip(BASE, faster)), "higher") == "not met"


def test_benchmark_json_lists_what_the_harness_reports():
    from workloads import END_TO_END, PER_LAYER, WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    assert {
        m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]
    } == END_TO_END
    assert {
        m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]
    } == PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
    # The world is pinned, so map quality is exact and may not move at all.
    assert bounds["resolved_frac"] == bounds["facility_acc"] == 0
    assert spec["paths"] == ["benchmarks/e2e"]


def test_without_the_program_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copy2(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    bench = tmp_path / "benchmarks" / "e2e"
    bench.mkdir(parents=True)
    for source in HERE.glob("*.py"):
        shutil.copy2(source, bench / source.name)
    completed = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "batch",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout


def test_smoke_run_passes_every_check():
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke"],
        capture_output=True, text=True, timeout=300,
    )
    assert completed.returncode == 0, completed.stdout[-3000:] + completed.stderr[-3000:]
    assert "FAIL" not in completed.stdout
    # parallel and stream each match a serial batch map of their own.
    assert completed.stdout.count("check equals-batch: ok") == 2
