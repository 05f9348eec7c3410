"""Parallel execution with byte-identical merge.

The subsystem behind ``PipelineConfig(workers=N)``: a seeded shard
planner (:mod:`repro.exec.shard`) and one fork map,
:func:`supervised_map` (:mod:`repro.exec.supervise`, with its shared
helpers in :mod:`repro.exec.pool`), which returns ordered results and
keeps a map alive through dead workers, hung shards, and failed pool
rebuilds.  The initial campaign is the one caller; its shards merge
back in shard-index order, so ``workers=N`` output is byte-identical
to the serial ``workers=1`` path under any crash pattern.

This package is the only place allowed to import ``multiprocessing``
or ``concurrent.futures`` (reprolint rule R009's layering table).
"""

from .pool import FALLBACK_REASONS, ShardExecutionError, fork_available
from .shard import Shard, plan_shards, stable_key, substream
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
    "plan_shards",
    "stable_key",
    "substream",
    "supervised_map",
]
