"""Parallel execution with byte-identical merge.

The subsystem behind ``PipelineConfig(workers=N)``: a seeded shard
planner (:mod:`repro.exec.shard`), a fork-based process pool with
ordered deterministic results (:mod:`repro.exec.pool`), and a
supervisor that keeps a map alive through dead workers, hung shards,
and failed pool rebuilds (:mod:`repro.exec.supervise`).  The campaign
driver and the CFS extraction path shard their work here; everything
merges back in shard-index order, so ``workers=N`` output is
byte-identical to the serial ``workers=1`` path — under any crash
pattern, once supervised.

This package is the only place allowed to import ``multiprocessing``
or ``concurrent.futures`` (reprolint rule R009's layering table).
"""

from .pool import (
    FALLBACK_REASONS,
    ShardExecutionError,
    fork_available,
    parallel_map,
)
from .shard import Shard, plan_blocks, plan_shards, stable_key, substream
from .supervise import (
    ExecFaultSpec,
    SupervisorConfig,
    instrument_observer,
    supervised_map,
)

__all__ = [
    "FALLBACK_REASONS",
    "ExecFaultSpec",
    "Shard",
    "ShardExecutionError",
    "SupervisorConfig",
    "fork_available",
    "instrument_observer",
    "parallel_map",
    "plan_blocks",
    "plan_shards",
    "stable_key",
    "substream",
    "supervised_map",
]
