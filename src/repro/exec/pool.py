"""Fork-based ``parallel_map`` with deterministic, ordered results.

The one place in the repository allowed to import ``multiprocessing``
and ``concurrent.futures`` (reprolint rule R009 keeps every other
module out): concentrating process management here keeps the seeding
and merge discipline auditable in one file.

Design constraints, in order:

1. **Determinism** — results come back in submission order regardless
   of completion order, and the worker context is shared by fork
   (copy-on-write), never re-seeded or re-built per process.
2. **Graceful degradation** — when fork is unavailable or the pool
   cannot be created (sandboxes, restricted platforms), the map runs
   serially in-process and reports the reason through the optional
   ``fallback`` callback.  Serial and parallel execution produce
   byte-identical results by construction, so falling back is always
   safe.
3. **Cheap payloads** — the context (engines, topologies, corpora) is
   inherited by fork and addressed through a module global; only the
   per-shard payloads and results cross the pickle boundary.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Sequence, TypeVar

__all__ = [
    "FALLBACK_REASONS",
    "ShardExecutionError",
    "fork_available",
    "parallel_map",
]

P = TypeVar("P")
R = TypeVar("R")


class ShardExecutionError(RuntimeError):
    """``fn`` raised while executing one payload of a parallel map.

    Names the payload index (its position in the submitted plan) and,
    when the caller supplied a ``describe`` callback, the shard's key —
    so a failure deep in a 10k-probe campaign points at the exact shard
    instead of surfacing as a bare pool traceback.  The original
    exception rides along as ``__cause__``.
    """

    def __init__(self, index: int, label: str | None, cause: BaseException):
        detail = f" ({label})" if label else ""
        super().__init__(
            f"shard at payload index {index}{detail} failed: "
            f"{type(cause).__name__}: {cause}"
        )
        self.index = index
        self.label = label

#: The closed vocabulary passed to the ``fallback`` callback.  Every
#: serial degradation names exactly one of these reasons:
#:
#: * ``"too_few_payloads"`` — parallelism was requested but there are
#:   fewer than two payloads, so a pool would only add overhead;
#: * ``"no_fork"`` — the platform cannot fork worker processes
#:   (``fork_available()`` is false);
#: * ``"pool_unavailable"`` — pool creation (or, under supervision,
#:   rebuild) failed with ``OSError``, or the rebuild budget ran out.
FALLBACK_REASONS = ("too_few_payloads", "no_fork", "pool_unavailable")

#: Fork-inherited worker context.  The parent sets it immediately
#: before creating the pool; forked children see the same object via
#: copy-on-write, so it is never pickled.
_WORKER_CONTEXT: Any = None


def _call_with_context(fn: Callable[[Any, P], R], payload: P) -> R:
    """Worker-side trampoline: re-attach the fork-inherited context."""
    return fn(_WORKER_CONTEXT, payload)


def fork_available() -> bool:
    """Whether this platform can fork worker processes."""
    return "fork" in multiprocessing.get_all_start_methods()


def parallel_map(
    fn: Callable[[Any, P], R],
    payloads: Sequence[P],
    *,
    workers: int,
    context: Any = None,
    fallback: Callable[[str], None] | None = None,
    describe: Callable[[P], str] | None = None,
) -> list[R]:
    """Apply ``fn(context, payload)`` to every payload, in order.

    With ``workers > 1`` the payloads run on a fork-based process pool
    (``fn`` must be a module-level function; ``context`` is inherited
    by fork and must not be mutated concurrently by the parent).
    Results are collected in submission order, so the output is
    byte-for-byte the serial ``[fn(context, p) for p in payloads]``
    whenever ``fn`` is deterministic in (context, payload).

    Serial execution is used — and ``fallback(reason)`` called once
    with a reason from :data:`FALLBACK_REASONS` — when parallelism is
    pointless (``workers <= 1``, fewer than two payloads:
    ``"too_few_payloads"``) or impossible (``"no_fork"``,
    ``"pool_unavailable"``).

    An exception raised by ``fn`` — in a worker or on a serial path —
    is wrapped in :class:`ShardExecutionError` naming the payload index
    and, when ``describe`` is given, the shard's key.  Worker death and
    hangs are *not* handled here; that is
    :func:`repro.exec.supervise.supervised_map`'s job.
    """
    global _WORKER_CONTEXT

    def run_serial() -> list[R]:
        return [
            _wrapped_call(fn, context, index, payload, describe)
            for index, payload in enumerate(payloads)
        ]

    if workers <= 1 or len(payloads) <= 1:
        if workers > 1 and fallback is not None:
            fallback("too_few_payloads")
        return run_serial()
    if not fork_available():
        if fallback is not None:
            fallback("no_fork")
        return run_serial()
    _WORKER_CONTEXT = context
    try:
        try:
            executor = ProcessPoolExecutor(
                max_workers=min(workers, len(payloads)),
                mp_context=multiprocessing.get_context("fork"),
            )
        except OSError:
            if fallback is not None:
                fallback("pool_unavailable")
            return run_serial()
        with executor:
            futures = [
                executor.submit(_call_with_context, fn, payload)
                for payload in payloads
            ]
            results = []
            for index, future in enumerate(futures):
                try:
                    results.append(future.result())
                except Exception as error:
                    label = (
                        describe(payloads[index])
                        if describe is not None
                        else None
                    )
                    raise ShardExecutionError(index, label, error) from error
            return results
    finally:
        _WORKER_CONTEXT = None


def _wrapped_call(
    fn: Callable[[Any, P], R],
    context: Any,
    index: int,
    payload: P,
    describe: Callable[[P], str] | None,
) -> R:
    """In-process execution with :class:`ShardExecutionError` wrapping."""
    try:
        return fn(context, payload)
    except Exception as error:
        label = describe(payload) if describe is not None else None
        raise ShardExecutionError(index, label, error) from error
