"""The parallel executor's hard requirement: ``workers=N`` output is
byte-identical to ``workers=1``.

The exported JSON is compared as text with only the ``metrics``
subtree removed — metrics carry wall-clock timings and ``exec.*``
bookkeeping counters that legitimately differ between widths.  Every
non-``exec.`` counter must still match exactly.
"""

from __future__ import annotations

import json
import sys

import pytest

from repro.api import run_pipeline
from repro.exec import fork_available, supervise
from repro.export import dumps_result
from repro.obs import Instrumentation

SEEDS = (0, 1, 2, 3, 4)


def _export_without_metrics(result) -> str:
    document = json.loads(
        dumps_result(result.cfs_result, result.environment.facility_db)
    )
    document.pop("metrics", None)
    return json.dumps(document, indent=2, sort_keys=True)


def _domain_counters(instrumentation: Instrumentation) -> dict[str, int]:
    return {
        name: value
        for name, value in instrumentation.snapshot().counters.items()
        if not name.startswith("exec.")
    }


@pytest.mark.parametrize("seed", SEEDS)
def test_parallel_output_byte_identical(seed):
    serial_obs = Instrumentation()
    parallel_obs = Instrumentation()
    serial = run_pipeline(seed=seed, scale="small", workers=1,
                          instrumentation=serial_obs)
    parallel = run_pipeline(seed=seed, scale="small", workers=4,
                            instrumentation=parallel_obs)
    assert _export_without_metrics(parallel) == _export_without_metrics(
        serial
    ), f"workers=4 diverged from workers=1 at seed {seed}"
    # Identical bytes could mean the pool silently never engaged; the
    # shard counter proves the parallel run really took the forked path.
    assert parallel_obs.counter("exec.campaign.shards") > 0
    assert serial_obs.counter("exec.campaign.shards") == 0
    # Probe/parse/accounting counters (everything except the executor's
    # own bookkeeping) must agree exactly, not just the exported map.
    assert _domain_counters(parallel_obs) == _domain_counters(serial_obs)


def _record_map_calls(monkeypatch) -> list[str]:
    """Wrap every ``repro`` module's binding of ``supervised_map``; the
    returned list names the module whose binding each call went through,
    which is the calling module for a ``from ..exec import`` caller."""
    original = supervise.supervised_map
    calls: list[str] = []
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro"):
            continue
        if getattr(module, "supervised_map", None) is not original:
            continue

        def counted(*args, _caller=name, **kwargs):
            calls.append(_caller)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, "supervised_map", counted)
    return calls


@pytest.mark.skipif(
    not fork_available(), reason="platform cannot fork worker processes"
)
def test_workers_two_forks_once_for_the_campaign(monkeypatch):
    """Only the initial campaign runs on the pool: CFS extraction on a
    second pool lost to the serial loop and was deleted, so a workers=2
    run enters the fork map exactly once, from the campaign driver, and
    counts no extraction blocks."""
    serial = run_pipeline(seed=0, scale="small", workers=1)
    calls = _record_map_calls(monkeypatch)
    obs = Instrumentation()
    parallel = run_pipeline(
        seed=0, scale="small", workers=2, instrumentation=obs
    )
    assert calls == ["repro.measurement.campaign"]
    assert obs.counter("exec.campaign.shards") > 0
    assert obs.counter("exec.extract.blocks") == 0
    assert _export_without_metrics(parallel) == _export_without_metrics(
        serial
    )
