"""reprosan — the opt-in runtime sanitizer twin of the flow rules.

reprolint's interprocedural rules (R001 seed provenance, R005 mutation
points, R008 exception containment) prove invariants about the
*source*; this module cross-checks the same invariants about the
*running process*, the way ``Instrumentation(strict=True)`` is R004's
runtime twin.  Off by default and free when off; enable it with
``REPRO_SANITIZE=1`` in the environment, ``PipelineConfig(sanitize=
True)``, or :func:`enable` in tests.

Three tripwires:

* **RNG provenance tags** — :func:`repro.exec.substream` stamps every
  stream it builds with its derivation parts (:func:`tag_rng`), and
  the pipeline's draw chokepoints call :func:`assert_rng`; a draw from
  an untagged stream is exactly the ambient-RNG flow R001 flags
  statically.
* **Snapshot write tripwires** — served :class:`MapSnapshot` indices
  are wrapped in :class:`TripwireMapping`, so any in-place mutation of
  a published map (R005 territory) raises instead of silently
  corrupting concurrent readers.
* **Health write guard** — :class:`~repro.serve.health.ServiceHealth`
  installs a ``__setattr__`` guard so state writes outside its
  :func:`mutation_point` methods trip at runtime.  The decorator is the
  one declaration of a class's mutation points: R005 reads the same
  decorators statically, so the two checks cannot drift apart.

Every trip is recorded via :func:`record_violation`: appended to a
process-wide list (:func:`violations`), emitted as the registered
``sanitizer.violation`` event when an observer is attached, and raised
as :class:`SanitizerViolation` — an ``AssertionError`` subclass, so
supervisors that contain operational failures still let it fail loud
(R008's contract carve-out).

This module deliberately imports nothing from the rest of the tree
(layer 0 in R009's layering table): the pipeline hands it an observer
object instead of the other way around.
"""

from __future__ import annotations

import contextlib
import functools
import os
import threading
from collections.abc import Mapping
from typing import Any, Callable, Iterator

__all__ = [
    "SanitizerViolation",
    "TripwireMapping",
    "armed",
    "assert_rng",
    "attach_observer",
    "disable",
    "enable",
    "enabled",
    "mutation_point",
    "record_violation",
    "reset",
    "rng_provenance",
    "tag_rng",
    "violations",
]

#: Environment switch checked when no explicit override is in force.
ENV_FLAG = "REPRO_SANITIZE"

#: Attribute carrying a tagged RNG's derivation, e.g. ``"trace:0:12"``.
_PROVENANCE_ATTR = "_repro_provenance"


class SanitizerViolation(AssertionError):
    """A runtime determinism-invariant violation.

    Subclasses ``AssertionError`` on purpose: supervision boundaries
    contain *operational* failures, but an invariant assertion must
    never be swallowed — R008 exempts assertion types from every
    containment contract, and this class rides that exemption.
    """


_lock = threading.Lock()
_forced: bool | None = None
_observer: Any | None = None
_violations: list[dict[str, str]] = []


def enabled() -> bool:
    """Whether the sanitizer is active (override, else environment)."""
    if _forced is not None:
        return _forced
    return os.environ.get(ENV_FLAG, "") not in ("", "0")


def enable() -> None:
    """Force the sanitizer on (overrides the environment)."""
    global _forced
    _forced = True


def disable() -> None:
    """Force the sanitizer off (overrides the environment)."""
    global _forced
    _forced = False


def reset() -> None:
    """Back to environment-driven mode; clears recorded violations and
    detaches the observer (test isolation helper)."""
    global _forced, _observer
    _forced = None
    _observer = None
    with _lock:
        _violations.clear()


@contextlib.contextmanager
def armed(observer: Any | None = None) -> Iterator[None]:
    """Force the sanitizer on for a scope, then restore prior state.

    ``run_pipeline(PipelineConfig(sanitize=True))`` runs its stages
    under this, optionally routing violations to the run's
    instrumentation; recorded violations survive the scope so callers
    can inspect them after a trip propagates.
    """
    global _forced, _observer
    prior = (_forced, _observer)
    _forced = True
    if observer is not None:
        _observer = observer
    try:
        yield
    finally:
        _forced, _observer = prior


def attach_observer(instrumentation: Any) -> None:
    """Route future violations to ``instrumentation`` as
    ``sanitizer.violation`` events (count + emit)."""
    global _observer
    _observer = instrumentation


def violations() -> tuple[dict[str, str], ...]:
    """Every violation recorded since the last :func:`reset`."""
    with _lock:
        return tuple(dict(entry) for entry in _violations)


def record_violation(kind: str, detail: str) -> None:
    """Record one violation and raise :class:`SanitizerViolation`.

    The event is emitted *before* the raise so the observability trail
    survives even if the exception is (wrongly) swallowed upstream.
    """
    entry = {"kind": kind, "detail": detail}
    with _lock:
        _violations.append(entry)
    observer = _observer
    if observer is not None:
        observer.count("sanitizer.violation")
        observer.emit("sanitizer.violation", kind=kind, detail=detail)
    raise SanitizerViolation(f"{kind}: {detail}")


# ----------------------------------------------------------------------
# RNG provenance
# ----------------------------------------------------------------------


def tag_rng(rng: Any, *parts: object) -> Any:
    """Stamp ``rng`` with its derivation; returns ``rng`` unchanged.

    Tagging is unconditional — one ``setattr`` at stream construction
    costs nothing and means streams built before the sanitizer was
    armed still carry provenance when a chokepoint later asserts it.
    Only :func:`assert_rng` is gated on :func:`enabled`.
    """
    try:
        setattr(
            rng,
            _PROVENANCE_ATTR,
            ":".join(str(part) for part in parts),
        )
    except (AttributeError, TypeError):  # slotted/foreign RNGs
        pass
    return rng


def rng_provenance(rng: Any) -> str | None:
    """The derivation stamped on ``rng``, or None if untagged."""
    return getattr(rng, _PROVENANCE_ATTR, None)


def assert_rng(rng: Any, site: str) -> Any:
    """Assert ``rng`` carries substream provenance before a draw.

    Chokepoints on the trace/alias/fault/ingest draw paths call this;
    an untagged stream reaching one means ambient or cross-shard RNG
    state leaked into inference — the runtime mirror of R001.
    """
    # Provenance first: tagging is unconditional, so a tagged stream
    # (every production draw) never reads the environment flag.
    if rng_provenance(rng) is None and enabled():
        record_violation(
            "rng.untagged",
            f"{site}: draw from an RNG without substream provenance",
        )
    return rng


# ----------------------------------------------------------------------
# Write tripwires
# ----------------------------------------------------------------------


def mutation_point(method: Callable) -> Callable:
    """Declare ``method`` one of its class's mutation points.

    reprolint R005 reads this decorator (with ``__init__``) as the
    complete list of methods allowed to write the class's state; a
    class that guards ``__setattr__`` at runtime (``ServiceHealth``)
    admits writes only while one of these frames is live.  The depth
    counter (rather than a flag) keeps nested mutation points —
    ``record_failure`` calling ``transition`` — balanced.
    """

    @functools.wraps(method)
    def wrapper(self: Any, *args: Any, **kwargs: Any) -> Any:
        object.__setattr__(
            self, "_write_depth", getattr(self, "_write_depth", 0) + 1
        )
        try:
            return method(self, *args, **kwargs)
        finally:
            object.__setattr__(self, "_write_depth", self._write_depth - 1)

    return wrapper


class TripwireMapping(Mapping):
    """Read-only mapping view whose mutators trip the sanitizer.

    Drop-in for ``types.MappingProxyType`` on the serve read path: the
    proxy's ``TypeError`` becomes a recorded ``sanitizer.violation``
    plus :class:`SanitizerViolation`, naming the snapshot index that
    somebody tried to edit in place.
    """

    __slots__ = ("_data", "_label")

    def __init__(self, data: Mapping, label: str) -> None:
        self._data = data
        self._label = label

    # Read side: plain delegation.
    def __getitem__(self, key: Any) -> Any:
        return self._data[key]

    def __iter__(self) -> Iterator:
        return iter(self._data)

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Any) -> bool:
        return key in self._data

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TripwireMapping({self._label}, {self._data!r})"

    # Write side: every mutator trips.
    def _trip(self, operation: str) -> None:
        record_violation(
            "snapshot.write",
            f"{operation} on immutable mapping {self._label!r}",
        )

    def __setitem__(self, key: Any, value: Any) -> None:
        self._trip(f"__setitem__({key!r})")

    def __delitem__(self, key: Any) -> None:
        self._trip(f"__delitem__({key!r})")

    def clear(self) -> None:
        self._trip("clear()")

    def pop(self, key: Any, *default: Any) -> Any:
        self._trip(f"pop({key!r})")

    def popitem(self) -> Any:
        self._trip("popitem()")

    def setdefault(self, key: Any, default: Any = None) -> Any:
        self._trip(f"setdefault({key!r})")

    def update(self, *args: Any, **kwargs: Any) -> None:
        self._trip("update()")
