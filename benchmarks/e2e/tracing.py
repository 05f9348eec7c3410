"""Outside-in span tracing for the end-to-end benchmark.

Spans are recorded from the benchmark process, around the public entry
points of each ``src/repro`` layer: :meth:`Tracer.installed` replaces
each entry point in :data:`ENTRY_POINTS` with a timing wrapper and puts
the original back on exit.  The program itself is not edited, so an
untraced run executes exactly the code a user runs.

Names bound at import time are patched where they are looked up, not
where they are defined (``supervised_map`` inside ``repro.core.cfs``
and ``repro.measurement.campaign``, ``build_snapshot`` inside
``repro.serve.service``, and so on); class methods are patched on the
class.

Spans stay in memory as :class:`Span` records (name, start, end,
parent index, run id) until :meth:`Tracer.dump` writes them as JSON.
A span's *self time* is its duration minus the part of its interval
covered by its child spans (:func:`self_times`).
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator

__all__ = [
    "ENTRY_POINTS",
    "Span",
    "Tracer",
    "self_times",
    "summarize",
]


def _traces_returned(args: tuple, result: Any) -> int:
    return sum(1 for trace in result if trace is not None)


def _addresses_given(args: tuple, result: Any) -> int:
    return len(args[1])


def _traces_issued(args: tuple, issued: int) -> int:
    return issued


WorkCounter = Callable[[tuple, Any], int]


#: (module, attribute, span name, work counter).  The attribute is a
#: module-level name or ``Class.method``.  A work counter maps
#: ``(args, result)`` of one call to the amount of work it did and is
#: summed per run under ``<span name>.work``.
ENTRY_POINTS: tuple[tuple[str, str, str, WorkCounter | None], ...] = (
    ("repro.core.pipeline", "build_topology", "topology.build", None),
    ("repro.core.pipeline", "build_environment", "env.assemble", None),
    ("repro.api", "_build_environment", "env.assemble", None),
    ("repro.serve.service", "build_environment", "env.assemble", None),
    ("repro.measurement.campaign", "CampaignDriver.plan_initial_campaign",
     "campaign.plan", None),
    ("repro.measurement.campaign", "CampaignDriver.execute_plan",
     "campaign.execute", _traces_returned),
    ("repro.measurement.campaign", "CampaignDriver.probe_peering",
     "campaign.followup", _traces_issued),
    ("repro.measurement.campaign", "supervised_map", "exec.map", None),
    ("repro.alias.midar", "MidarResolver.resolve", "alias.resolve", _addresses_given),
    ("repro.core.cfs", "ConstrainedFacilitySearch.run", "cfs.run", None),
    ("repro.core.cfs", "supervised_map", "exec.map", None),
    ("repro.serve.ingest", "StreamingCfs.fold", "ingest.fold", None),
    ("repro.serve.ingest", "StreamingCfs.interim_result", "ingest.interim", None),
    ("repro.serve.service", "censor_trace", "churn.censor", None),
    ("repro.serve.snapshot", "build_snapshot", "snapshot.build", None),
    ("repro.serve.service", "build_snapshot", "snapshot.build", None),
    ("repro.serve.service", "diff_snapshots", "snapshot.diff", None),
    ("repro.serve.supervise", "snapshot_payload", "snapshot.encode", None),
    ("repro.serve.supervise", "snapshot_from_payload", "snapshot.decode", None),
    ("repro.serve.supervise", "ServiceSupervisor.publish", "publish", None),
    ("repro.serve.service", "encode_campaign_stage", "checkpoint.encode", None),
    ("repro.checkpoint.store", "CheckpointStore.write_stage", "checkpoint.write", None),
    ("repro.checkpoint.store", "CheckpointStore.load_stage", "checkpoint.load", None),
    ("repro.inference.disruption", "DisruptionDetector.observe", "detect.observe", None),
    ("repro.serve.query", "QueryEngine.execute", "query.execute", None),
    ("repro.serve.query", "QueryEngine.execute_line", "query.render", None),
)


@dataclass(frozen=True, slots=True)
class Span:
    """One timed call of a layer entry point."""

    name: str
    #: ``time.perf_counter_ns`` at entry and exit.
    start: int
    end: int
    #: Index of the enclosing span in the same tracer, or ``None``.
    parent: int | None
    #: Which workload, rep and phase the span belongs to.
    run: str


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the part its children cover, in ns.

    Children are the spans naming it as ``parent``; their intervals are
    clipped to the parent's and merged before subtraction, so
    overlapping children are not counted twice.
    """
    children: dict[int, list[tuple[int, int]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    own = []
    for index, span in enumerate(spans):
        covered = 0
        cursor = span.start
        for start, end in sorted(children.get(index, ())):
            start, end = max(start, cursor), min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        own.append(span.end - span.start - covered)
    return own


def summarize(spans: list[Span], run: str) -> dict[str, tuple[int, int]]:
    """Per span name within ``run``: (total self ns, call count)."""
    own = self_times(spans)
    totals: dict[str, tuple[int, int]] = {}
    for span, self_ns in zip(spans, own):
        if span.run != run:
            continue
        total, calls = totals.get(span.name, (0, 0))
        totals[span.name] = (total + self_ns, calls + 1)
    return totals


class Tracer:
    """Records spans around the layer entry points while installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: run -> counter -> amount, from the entry points' work counters.
        self.work: dict[str, dict[str, int]] = {}
        #: Run id stamped on spans opened from now on.
        self.run = ""
        self._stack: list[int] = []
        self._pid = os.getpid()

    def _wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        counter: WorkCounter | None,
    ) -> Callable[..., Any]:
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if os.getpid() != self._pid:
                # A forked worker: its spans would die with it.
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            index = len(spans)
            spans.append(Span(name, 0, 0, parent, self.run))
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = Span(name, start, end, parent, self.run)
            if counter is not None:
                work = self.work.setdefault(self.run, {})
                key = f"{name}.work"
                work[key] = work.get(key, 0) + counter(args, result)
            return result

        return traced

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Patch every entry point for the duration of the block."""
        patched: list[tuple[Any, str, Any]] = []
        try:
            for module_name, attribute, name, counter in ENTRY_POINTS:
                owner: Any = importlib.import_module(module_name)
                *path, leaf = attribute.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = owner.__dict__[leaf]
                patched.append((owner, leaf, original))
                setattr(owner, leaf, self._wrap(name, original, counter))
            yield self
        finally:
            for owner, leaf, original in reversed(patched):
                setattr(owner, leaf, original)

    def dump(self, path: Path) -> None:
        """Write every span recorded so far as a JSON list."""
        path.parent.mkdir(parents=True, exist_ok=True)
        records = [
            {
                "name": span.name,
                "start": span.start,
                "end": span.end,
                "parent": span.parent,
                "run": span.run,
            }
            for span in self.spans
        ]
        path.write_text(json.dumps(records) + "\n", encoding="utf-8")
