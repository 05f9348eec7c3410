#!/usr/bin/env bash
# The local gate: everything the driver checks, in one command.
#
#   scripts/check.sh          # substrate pins + tier-1 tests + lint + smokes + speedup gate
#   scripts/check.sh --fast   # substrate pins + tier-1 tests + lint only
#
# Exits non-zero on the first failing stage.

set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

fast=0
if [[ "${1:-}" == "--fast" ]]; then
    fast=1
fi

echo "== substrate pins, trace codecs, Step 1, engine identity, MIDAR and routing references (fail fast, ~1 min) =="
python -m pytest -x -q tests/measurement/test_substrate_golden.py \
    tests/measurement/test_traceroute.py tests/core/test_columnar.py \
    tests/core/test_columnar_reference.py tests/core/test_classify.py \
    tests/core/test_crossing_reference.py tests/core/test_incremental.py \
    tests/alias tests/topology/test_routing_reference.py

echo
echo "== tier-1 test suite =="
python -m pytest -x -q

echo
echo "== reprolint self-gate =="
python -m repro lint

if [[ "$fast" == "0" ]]; then
    echo
    echo "== reprosan sanitizer smoke (small pipeline, armed) =="
    python - <<'EOF'
import dataclasses
import sys

from repro import sanitize
from repro.api import PipelineConfig, run_pipeline

run_pipeline(
    config=dataclasses.replace(PipelineConfig.small(seed=0), sanitize=True)
)
violations = sanitize.violations()
if violations:
    for entry in violations:
        print(f"sanitizer: {entry['kind']}: {entry['detail']}")
    sys.exit(1)
print("sanitizer: clean (0 violations)")
EOF

    echo
    echo "== read-path tests, sanitizer armed =="
    REPRO_SANITIZE=1 python -m pytest -q tests/serve/test_snapshot.py tests/serve/test_query.py

    echo
    echo "== outage-detection smoke (seeded churn profile, small scale) =="
    python - <<'EOF'
import sys

from repro.serve.outage import DEFAULT_EPOCHS, DEFAULT_SEED, run_outage

report = run_outage(seed=DEFAULT_SEED, scale="small", epochs=DEFAULT_EPOCHS)
print(report.format())
churned = report.point(1.0, 0.0)   # full churn, clean measurements
faulty = report.point(0.0, 1.0)    # no churn, moderate measurement faults
failures = []
if churned is None or faulty is None:
    failures.append("sweep missing a gate cell")
else:
    if churned.power_losses < 1 or churned.detected < 1:
        failures.append(
            f"no power loss detected (drawn={churned.power_losses} "
            f"detected={churned.detected})"
        )
    if churned.false_alarms != 0:
        failures.append(f"false alarms under churn: {churned.false_alarms}")
    if churned.precision is None or churned.precision < 0.9:
        failures.append(f"precision {churned.precision} < 0.9")
    if churned.recall is None or churned.recall < 0.8:
        failures.append(f"recall {churned.recall} < 0.8")
    if faulty.alarms != 0:
        failures.append(
            f"detector cried wolf at pure measurement faults: "
            f"{faulty.alarms} alarms"
        )
for failure in failures:
    print(f"outage smoke: FAILED — {failure}")
if failures:
    sys.exit(1)
print("outage smoke: detection gates passed")
EOF

    echo
    echo "== end-to-end benchmark smoke (map fingerprints, recomputed answers, counters) =="
    python3 benchmarks/e2e/run.py --smoke

    echo
    echo "== parallel speedup gate (workers=2 vs serial, default scale) =="
    python - <<'EOF'
import os
import sys
import time

from repro.core.pipeline import PipelineConfig, build_environment

cpus = os.cpu_count() or 1
if cpus < 2:
    print(
        f"speedup gate: skipped — cpu_count={cpus} < 2, the pool can only "
        "time-slice one core (identity is still gated by the test suite)"
    )
    sys.exit(0)

seconds = {}
for workers in (1, 2):
    env = build_environment(
        config=PipelineConfig.for_scale("default", seed=0, workers=workers)
    )
    started = time.perf_counter()
    corpus = env.run_campaign()
    env.run_cfs(corpus)
    seconds[workers] = time.perf_counter() - started

speedup = seconds[1] / max(seconds[2], 1e-9)
print(
    f"speedup gate: serial={seconds[1]:.2f}s workers2={seconds[2]:.2f}s "
    f"speedup={speedup:.2f}x (floor 1.2x, {cpus} cpus)"
)
if speedup < 1.2:
    print("speedup gate: FAILED — workers=2 must beat serial by >= 1.2x")
    sys.exit(1)
EOF
fi

echo
echo "check.sh: all gates passed"
