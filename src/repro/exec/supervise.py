"""Supervised parallel execution: deadlines, retries, quarantine.

:func:`supervised_map` is the repository's one fork map: it applies a
module-level function to every payload on a fork-based process pool
and returns the results in submission order, so the output equals the
serial ``[fn(context, p) for p in payloads]``.  The context (engines,
topologies, plans) is inherited by fork, copy-on-write, and never
pickled; only payloads and results cross the pickle boundary.  When
parallelism is pointless or impossible the map runs serially in the
parent and names the reason through ``fallback``.

A bare pool aborts the whole map when a worker dies mid-shard
(``BrokenProcessPool``) or hangs forever; the supervisor keeps the
campaign alive through exactly those failures:

* a **progress deadline** (:attr:`SupervisorConfig.shard_timeout_s`)
  bounds how long the supervisor waits between shard completions; when
  it expires, the still-pending shards are treated as hung, the pool is
  killed and rebuilt, and the shards are resubmitted;
* a **dead worker** (``BrokenProcessPool`` — the child called
  ``os._exit``, segfaulted, or was OOM-killed) likewise triggers a pool
  rebuild and a retry of every shard that had not completed;
* each shard is retried at most :attr:`SupervisorConfig.max_retries`
  times; a shard that keeps failing is **quarantined** — executed
  serially in the parent process, where an injected crash/hang cannot
  occur — so a poisoned shard degrades throughput, never correctness;
* pool rebuilds are bounded too
  (:attr:`SupervisorConfig.max_pool_rebuilds`); past the bound, or when
  a rebuild itself fails (``OSError``), every remaining shard runs
  serially in the parent (reported via ``fallback("pool_unavailable")``).

**Determinism.**  Every slot of the returned list is ``fn(context,
payload)`` — computed in a forked child, a retried child, or the parent
— and ``fn`` draws randomness only from substreams keyed by its payload
(:func:`repro.exec.shard.substream`), never from shared sequential
state.  A retried or quarantined shard therefore lands in its original
slot with its original bytes, so ``workers=N`` output under *any* crash
pattern is byte-identical to the serial run (``tests/exec`` and the
acceptance gate in ``tests/core/test_resume.py`` pin this down).

**Seeded chaos.**  :class:`ExecFaultSpec` injects ``worker_crash`` /
``worker_hang`` faults *inside the forked child only*: the draw comes
from ``substream("exec-fault", seed, index, attempt)``, so the fault
pattern is a pure function of the spec — independent of worker count,
scheduling, or wall-clock — and a retry (next ``attempt``) re-rolls.
Serial and quarantined execution never inject, which is what makes the
quarantine escape hatch sound.

A genuine Python exception raised by ``fn`` is *not* retried — the
function is deterministic, so the retry would fail identically — it is
wrapped in :class:`ShardExecutionError` naming the payload index (and
the shard, via ``describe``) and re-raised.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Sequence, TypeVar

import multiprocessing

from .pool import ShardExecutionError, _wrapped_call, fork_available
from .shard import substream

__all__ = [
    "ExecFaultSpec",
    "ShardExecutionError",
    "SupervisorConfig",
    "instrument_observer",
    "supervised_map",
]

P = TypeVar("P")
R = TypeVar("R")

#: Exit status of an injected worker crash (visible in core dumps and
#: strace output when debugging the supervisor itself).
CRASH_EXIT_CODE = 113

#: Fork-inherited worker context.  The parent sets it immediately
#: before creating the pool; forked children see the same object via
#: copy-on-write, so it is never pickled.
_SUPERVISED_CONTEXT: Any = None

#: Sentinel for "this slot has no result yet".
_MISSING = object()


@dataclass(frozen=True, slots=True)
class SupervisorConfig:
    """Knobs of the supervision loop (validated at construction)."""

    #: Progress deadline: the longest the supervisor waits between
    #: shard completions before declaring the pending shards hung
    #: (``None`` = wait forever; dead workers are still detected).
    shard_timeout_s: float | None = None
    #: Times one shard may be retried on a rebuilt pool before it is
    #: quarantined to serial in-process execution.
    max_retries: int = 2
    #: Pool rebuilds allowed per map; past this every remaining shard
    #: runs serially in the parent.
    max_pool_rebuilds: int = 4

    def __post_init__(self) -> None:
        if self.shard_timeout_s is not None and self.shard_timeout_s <= 0:
            raise ValueError(
                f"shard_timeout_s must be positive, got {self.shard_timeout_s}"
            )
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be non-negative, got {self.max_retries}"
            )
        if self.max_pool_rebuilds < 0:
            raise ValueError(
                f"max_pool_rebuilds must be non-negative, "
                f"got {self.max_pool_rebuilds}"
            )


@dataclass(frozen=True, slots=True)
class ExecFaultSpec:
    """Seeded executor-level fault intensities (chaos for the pool).

    Faults fire only inside forked children, from the substream
    ``("exec-fault", seed, payload_index, attempt)`` — deterministic in
    the spec alone.  ``crash`` calls ``os._exit`` mid-shard (the worker
    dies without unwinding); ``hang`` sleeps ``hang_s`` seconds before
    computing, which trips the supervisor's deadline when ``hang_s``
    exceeds it and is a harmless pause otherwise.
    """

    crash: float = 0.0
    hang: float = 0.0
    hang_s: float = 30.0
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("crash", "hang"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(
                    f"fault rate {name}={value!r} must be in [0, 1]"
                )
        if self.hang_s <= 0:
            raise ValueError(f"hang_s must be positive, got {self.hang_s}")

    @property
    def is_zero(self) -> bool:
        """True when neither executor fault class is enabled."""
        return self.crash == 0.0 and self.hang == 0.0


def instrument_observer(obs: Any) -> Callable[[str, int, str], None]:
    """Adapt an ``Instrumentation`` into a supervision observer.

    Maps supervisor incidents onto the registered event namespace:
    ``exec.shard.retry`` (one shard resubmitted after a crash/hang),
    ``exec.shard.quarantine`` (one shard demoted to serial in-process
    execution), and ``exec.pool.rebuild`` (the pool was torn down and
    recreated; ``index`` carries the number of shards resubmitted on
    the fresh pool).  Each incident also bumps the counter of the same
    name, which the chaos report and the recovery smoke read back.
    """

    def observer(kind: str, index: int, reason: str) -> None:
        if kind == "retry":
            obs.count("exec.shard.retry")
            obs.emit("exec.shard.retry", index=index, reason=reason)
        elif kind == "quarantine":
            obs.count("exec.shard.quarantine")
            obs.emit("exec.shard.quarantine", index=index, reason=reason)
        elif kind == "rebuild":
            obs.count("exec.pool.rebuild")
            obs.emit("exec.pool.rebuild", index=index, reason=reason)

    return observer


# ----------------------------------------------------------------------
# Worker-side trampoline
# ----------------------------------------------------------------------


def _supervised_call(
    fn: Callable[[Any, P], R],
    index: int,
    attempt: int,
    faults: ExecFaultSpec | None,
    payload: P,
) -> R:
    """Run one shard in a forked child, injecting seeded exec faults.

    The fault draw is keyed by (index, attempt): a crashed shard's
    retry re-rolls, so bounded retries converge with probability
    ``1 - crash**(max_retries+1)`` and the quarantine path mops up the
    rest.  Runs only in pool children — the parent's serial and
    quarantine paths call ``fn`` directly and never inject.
    """
    if faults is not None and not faults.is_zero:
        rng = substream("exec-fault", faults.seed, index, attempt)
        if faults.crash > 0 and rng.random() < faults.crash:
            os._exit(CRASH_EXIT_CODE)
        if faults.hang > 0 and rng.random() < faults.hang:
            time.sleep(faults.hang_s)
    return fn(_SUPERVISED_CONTEXT, payload)


def _draw_faults(
    faults: ExecFaultSpec | None, index: int, attempt: int
) -> bool:
    """Parent-side replica of :func:`_supervised_call`'s fault draw.

    The draw is a pure function of ``(spec, index, attempt)``, so the
    supervisor can tell *which* shard took the pool down without any
    signal from the dead child (``BrokenProcessPool`` fails every
    pending future indiscriminately).  Returns True when the shard's
    current attempt draws an injected crash or hang.
    """
    if faults is None or faults.is_zero:
        return False
    rng = substream("exec-fault", faults.seed, index, attempt)
    if faults.crash > 0 and rng.random() < faults.crash:
        return True
    return faults.hang > 0 and rng.random() < faults.hang


# ----------------------------------------------------------------------
# Parent-side supervision
# ----------------------------------------------------------------------


def _new_pool(workers: int, payload_count: int) -> ProcessPoolExecutor:
    return ProcessPoolExecutor(
        max_workers=min(workers, payload_count),
        mp_context=multiprocessing.get_context("fork"),
    )


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a pool down without waiting on hung or dead children."""
    pool.shutdown(wait=False, cancel_futures=True)
    processes = getattr(pool, "_processes", None) or {}
    for process in list(processes.values()):
        try:
            process.terminate()
        except (OSError, ValueError):  # already reaped / closed handle
            pass


def supervised_map(
    fn: Callable[[Any, P], R],
    payloads: Sequence[P],
    *,
    workers: int,
    context: Any = None,
    config: SupervisorConfig | None = None,
    faults: ExecFaultSpec | None = None,
    fallback: Callable[[str], None] | None = None,
    observer: Callable[[str, int, str], None] | None = None,
    describe: Callable[[P], str] | None = None,
) -> list[R]:
    """Apply ``fn(context, payload)`` to every payload, surviving the pool.

    With ``workers > 1`` the payloads run on a fork-based pool (``fn``
    must be a module-level function; ``context`` is inherited by fork
    and must not be mutated concurrently by the parent).  Results come
    back in submission order, byte-for-byte the serial
    ``[fn(context, p) for p in payloads]`` whenever ``fn`` is
    deterministic in (context, payload).

    Serial execution is used — and ``fallback(reason)`` called with a
    reason from :data:`repro.exec.pool.FALLBACK_REASONS` — when
    parallelism is pointless (``workers <= 1`` runs serial silently;
    fewer than two payloads: ``"too_few_payloads"``) or impossible
    (``"no_fork"``, ``"pool_unavailable"``).  Dead workers and hung
    shards are retried on a rebuilt pool and persistently-failing
    shards are quarantined to serial in-process execution (see the
    module docstring for the full policy).

    ``observer(kind, index, reason)`` is called on every supervision
    incident with ``kind`` in ``{"retry", "quarantine", "rebuild"}``;
    :func:`instrument_observer` adapts an ``Instrumentation``.
    ``describe(payload)`` labels a shard in :class:`ShardExecutionError`
    messages.
    """
    config = config or SupervisorConfig()

    def run_serial(indices: Sequence[int]) -> None:
        for index in indices:
            results[index] = _wrapped_call(
                fn, context, index, payloads[index], describe
            )

    results: list[Any] = [_MISSING] * len(payloads)
    if workers <= 1 or len(payloads) <= 1:
        if workers > 1 and fallback is not None:
            fallback("too_few_payloads")
        run_serial(range(len(payloads)))
        return results
    if not fork_available():
        if fallback is not None:
            fallback("no_fork")
        run_serial(range(len(payloads)))
        return results

    global _SUPERVISED_CONTEXT
    _SUPERVISED_CONTEXT = context
    attempts = [0] * len(payloads)
    rebuilds = 0
    pool: ProcessPoolExecutor | None = None
    try:
        try:
            pool = _new_pool(workers, len(payloads))
        except OSError:
            if fallback is not None:
                fallback("pool_unavailable")
            run_serial(range(len(payloads)))
            return results

        active: dict[Future, int] = {}

        def submit(indices: Sequence[int]) -> list[int]:
            """Submit shards; return the ones a mid-loop pool break
            left unsubmitted (an early crash can flag the pool broken
            before the loop reaches its later indices)."""
            pending = list(indices)
            while pending:
                try:
                    future = pool.submit(
                        _supervised_call,
                        fn,
                        pending[0],
                        attempts[pending[0]],
                        faults,
                        payloads[pending[0]],
                    )
                except BrokenProcessPool:
                    return pending
                active[future] = pending.pop(0)
            return []

        def recover(failed: list[int], reason: str) -> None:
            """Classify failed shards, rebuild the pool, resubmit.

            One dead worker fails *every* in-flight future, but only the
            shard whose seeded draw fired actually burned an attempt —
            the rest are innocent bystanders that never ran (or were
            killed mid-flight through no fault of their own).  Charging
            everyone amplifies one crash into a retry per in-flight
            shard and cascades into repeated rebuilds, so retries are
            charged **per shard attempt**: only shards whose current
            (index, attempt) draw faults are charged and re-rolled;
            bystanders resubmit with their attempt unchanged, which
            re-runs the identical (clean) draw.  When no culprit can be
            predicted — a genuine crash or hang, no fault spec to
            consult — every failed shard is charged, as before.
            """
            nonlocal pool, rebuilds
            failed = sorted(set(failed))
            culprits = {
                index
                for index in failed
                if _draw_faults(faults, index, attempts[index])
            } or set(failed)
            retry: list[int] = []
            quarantine: list[int] = []
            unsubmitted: list[int] = []
            for index in failed:
                if index not in culprits:
                    retry.append(index)
                    continue
                attempts[index] += 1
                if attempts[index] > config.max_retries:
                    quarantine.append(index)
                    if observer is not None:
                        observer("quarantine", index, reason)
                else:
                    retry.append(index)
                    if observer is not None:
                        observer("retry", index, reason)
            _kill_pool(pool)
            pool = None
            active.clear()
            if retry:
                rebuilds += 1
                rebuild_failed = rebuilds > config.max_pool_rebuilds
                if not rebuild_failed:
                    try:
                        pool = _new_pool(workers, len(retry))
                    except OSError:
                        rebuild_failed = True
                if rebuild_failed:
                    # The pool cannot come back: demote the retries to
                    # the quarantine path rather than give up on them.
                    if fallback is not None:
                        fallback("pool_unavailable")
                    quarantine.extend(retry)
                    retry = []
                else:
                    if observer is not None:
                        observer("rebuild", len(retry), reason)
                    unsubmitted = submit(retry)
            run_serial(quarantine)
            if unsubmitted:
                # The rebuilt pool broke during resubmission: the shards
                # it did accept are doomed alongside the leftovers.
                recover(unsubmitted + list(active.values()), "crash")

        unsubmitted = submit(range(len(payloads)))
        if unsubmitted:
            recover(unsubmitted + list(active.values()), "crash")
        while active:
            done, _ = wait(
                set(active),
                timeout=config.shard_timeout_s,
                return_when=FIRST_COMPLETED,
            )
            if not done:
                # No completion within the deadline: everything still
                # pending counts as hung (running or starved behind a
                # hung worker — either way the pool must go).
                recover([active[future] for future in active], "hang")
                continue
            crashed: list[int] = []
            for future in done:
                index = active.pop(future)
                try:
                    results[index] = future.result()
                except BrokenProcessPool:
                    crashed.append(index)
                except Exception as error:
                    label = (
                        describe(payloads[index])
                        if describe is not None
                        else None
                    )
                    raise ShardExecutionError(index, label, error) from error
            if crashed:
                # A dead worker breaks the whole executor; every shard
                # that has not delivered a result needs the rebuilt pool.
                crashed.extend(active.values())
                recover(crashed, "crash")
    finally:
        if pool is not None:
            pool.shutdown(wait=True)
        _SUPERVISED_CONTEXT = None
    return results
