"""Shared helpers of the fork map (:func:`repro.exec.supervised_map`).

The shard error type, the in-process call that wraps a payload's
exception in it, the platform's fork probe and the closed ``fallback``
vocabulary.  Together with :mod:`repro.exec.supervise` this is the one
place in the repository allowed to import ``multiprocessing`` and
``concurrent.futures`` (reprolint rule R009 keeps every other module
out), so the seeding and merge discipline stays auditable here.
"""

from __future__ import annotations

import multiprocessing
from typing import Any, Callable, TypeVar

__all__ = [
    "FALLBACK_REASONS",
    "ShardExecutionError",
    "fork_available",
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
#: * ``"pool_unavailable"`` — pool creation or rebuild failed with
#:   ``OSError``, or the rebuild budget ran out.
FALLBACK_REASONS = ("too_few_payloads", "no_fork", "pool_unavailable")


def fork_available() -> bool:
    """Whether this platform can fork worker processes."""
    return "fork" in multiprocessing.get_all_start_methods()


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
