"""Service health: the state machine behind the ``health`` query verb.

The map service knows four states:

* ``ok`` — the newest folded epoch is being served and nothing failed
  recently;
* ``degraded`` — an ingest epoch or a durable publish failed; the last
  good snapshot is still being served;
* ``stale`` — the served snapshot has fallen at least
  :attr:`HealthPolicy.stale_after` epochs behind the stream (repeated
  quarantines or rollbacks);
* ``recovering`` — a publish succeeded after a degraded/stale spell;
  one more clean publish returns the service to ``ok``.

:class:`ServiceHealth` is deliberately clockless: its inputs are the
supervisor's discrete outcomes (failure, quarantine, rollback, publish)
and its state is a pure function of that outcome sequence, so two runs
with the same fault plan report the same transition history.  Callers
that want wall-clock recovery latency (the soak harness) subscribe via
:meth:`subscribe` and timestamp transitions themselves.

Every state change goes through :meth:`ServiceHealth.transition` — the
single state-changing method that validates the target state, records
the edge, emits ``serve.health.transition``, and notifies subscribers.
The methods allowed to write its state are declared with
:func:`repro.sanitize.mutation_point`; reprolint rule R005 rejects
writes anywhere else statically, and the sanitizer's guard rejects
them at runtime.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

from ..inference.disruption import ASSESSMENTS
from ..obs import Instrumentation
from ..sanitize import (
    enabled as sanitizer_enabled,
    mutation_point,
    record_violation,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .snapshot import MapSnapshot

__all__ = ["HEALTH_STATES", "HealthPolicy", "ServiceHealth", "snapshot_data_health"]

#: The closed state vocabulary, in "healthiest first" order.
HEALTH_STATES = ("ok", "recovering", "degraded", "stale")

#: Transition edges kept in the report's recent history.
_HISTORY_LIMIT = 32


@dataclass(frozen=True, slots=True)
class HealthPolicy:
    """Thresholds for the health state machine."""

    #: Epochs the served snapshot may trail the stream before the
    #: service reports ``stale`` instead of merely ``degraded``.
    stale_after: int = 2

    def __post_init__(self) -> None:
        if self.stale_after < 1:
            raise ValueError(
                f"stale_after={self.stale_after!r} must be at least 1"
            )


def snapshot_data_health(snapshot: "MapSnapshot | None") -> dict[str, Any]:
    """Aggregate ``data_health``/``confidence`` over a snapshot's interfaces.

    Returns interface count, the fraction whose per-interface
    ``data_health`` is ``"ok"`` (degraded-mode CFS marks widened
    inferences ``"degraded"``), and the mean inference confidence —
    the map-content side of the service health document.
    """
    if snapshot is None:
        return {"interfaces": 0, "ok_fraction": None, "mean_confidence": None}
    entries = list(snapshot.interfaces.values())
    if not entries:
        return {"interfaces": 0, "ok_fraction": None, "mean_confidence": None}
    healthy = sum(1 for entry in entries if entry.data_health == "ok")
    mean = sum(entry.confidence for entry in entries) / len(entries)
    return {
        "interfaces": len(entries),
        "ok_fraction": round(healthy / len(entries), 6),
        "mean_confidence": round(mean, 6),
    }


class ServiceHealth:
    """The map service's health state machine.

    The supervisor feeds it discrete outcomes (:meth:`record_failure`,
    :meth:`record_quarantine`, :meth:`record_rollback`,
    :meth:`record_publish`); queries read the resulting document via
    :meth:`report`.  State only ever changes inside :meth:`transition`.

    Under the sanitizer, attribute writes outside the
    :func:`~repro.sanitize.mutation_point`-decorated methods trip
    ``health.write`` — the runtime twin of reprolint R005, which reads
    the same decorators.
    """

    def __setattr__(self, name: str, value: Any) -> None:
        if sanitizer_enabled() and getattr(self, "_write_depth", 0) == 0:
            record_violation(
                "health.write",
                f"ServiceHealth.{name} written outside a mutation point",
            )
        object.__setattr__(self, name, value)

    @mutation_point
    def __init__(
        self,
        instrumentation: Instrumentation | None = None,
        policy: HealthPolicy | None = None,
    ) -> None:
        self._obs = instrumentation or Instrumentation()
        self.policy = policy or HealthPolicy()
        self._state = "ok"
        #: Epochs the currently served snapshot trails the stream head
        #: (0 right after a successful publish; each quarantine or
        #: rollback pushes the stream one epoch past the served map).
        self._epochs_behind = 0
        self._ingest_failures = 0
        self._consecutive_failures = 0
        self._publishes = 0
        self._quarantined: list[int] = []
        self._rollbacks = 0
        #: Recent transition edges, oldest first: (from, to, reason).
        self._history: list[tuple[str, str, str]] = []
        self._listeners: list[Callable[[str, str, str], None]] = []
        #: Latest change-vs-fault verdict from the disruption detector
        #: (None until the churned stream records one).  Kept separate
        #: from :attr:`state` on purpose: "stale because faulty" is a
        #: *service* condition, "changed because churned" is a *world*
        #: condition, and conflating them is how detectors cry wolf.
        self._map_change: dict[str, Any] | None = None

    # ------------------------------------------------------------------
    # Read side
    # ------------------------------------------------------------------

    @property
    def state(self) -> str:
        """Current state (one of :data:`HEALTH_STATES`)."""
        return self._state

    @property
    def epochs_behind(self) -> int:
        """How many epochs the served snapshot trails the stream."""
        return self._epochs_behind

    @property
    def ingest_failures(self) -> int:
        """Lifetime count of failed epoch/publish attempts."""
        return self._ingest_failures

    @property
    def consecutive_failures(self) -> int:
        """Failed attempts since the last successful publish."""
        return self._consecutive_failures

    @property
    def quarantined_epochs(self) -> tuple[int, ...]:
        """Epochs quarantined so far, in stream order."""
        return tuple(self._quarantined)

    @property
    def rollbacks(self) -> int:
        """Publishes rolled back after exhausting their retry budget."""
        return self._rollbacks

    @property
    def transitions(self) -> tuple[tuple[str, str, str], ...]:
        """Recent transition edges, oldest first: ``(from, to, reason)``."""
        return tuple(self._history)

    @mutation_point
    def subscribe(self, listener: Callable[[str, str, str], None]) -> None:
        """Call ``listener(old, new, reason)`` on every state change."""
        self._listeners.append(listener)

    def report(self, snapshot: "MapSnapshot | None" = None) -> dict[str, Any]:
        """The JSON-ready health document the ``health`` verb answers with."""
        document: dict[str, Any] = {
            "query": "health",
            "state": self._state,
            "epochs_behind": self._epochs_behind,
            "stale_after": self.policy.stale_after,
            "ingest_failures": self._ingest_failures,
            "consecutive_failures": self._consecutive_failures,
            "quarantined_epochs": list(self._quarantined),
            "rollbacks": self._rollbacks,
            "publishes": self._publishes,
            "data": snapshot_data_health(snapshot),
            "transitions": [list(edge) for edge in self._history],
        }
        if self._map_change is not None:
            document["map_change"] = dict(self._map_change)
        if snapshot is not None:
            document["epoch"] = snapshot.epoch
            document["final"] = snapshot.final
            document["fingerprint"] = snapshot.fingerprint
        return document

    def as_dict(self) -> dict[str, Any]:
        """The snapshot-free health document (change-vs-fault fields
        included once the detector has reported)."""
        return self.report(None)

    @property
    def map_assessment(self) -> str | None:
        """Latest detector verdict, or None before the first one."""
        if self._map_change is None:
            return None
        return str(self._map_change.get("assessment"))

    def alarmed_facilities(self) -> tuple[int, ...]:
        """Facilities with an active disruption alarm."""
        if self._map_change is None:
            return ()
        return tuple(self._map_change.get("alarmed_facilities", ()))

    # ------------------------------------------------------------------
    # The single state-changing method (reprolint R005)
    # ------------------------------------------------------------------

    @mutation_point
    def transition(self, new_state: str, *, reason: str) -> None:
        """Move to ``new_state``, recording and announcing the edge.

        This is the **only** place :attr:`state` changes — direct
        attribute writes anywhere outside ``serve/health.py`` are
        rejected statically by reprolint R005, because they would skip
        validation, the transition history, and the
        ``serve.health.transition`` event.
        """
        if new_state not in HEALTH_STATES:
            raise ValueError(
                f"unknown health state {new_state!r}; "
                f"expected one of {', '.join(HEALTH_STATES)}"
            )
        if new_state == self._state:
            return
        old_state = self._state
        self._state = new_state
        self._history.append((old_state, new_state, reason))
        del self._history[:-_HISTORY_LIMIT]
        self._obs.count("serve.health.transition")
        self._obs.emit(
            "serve.health.transition",
            old=old_state,
            new=new_state,
            reason=reason,
            epochs_behind=self._epochs_behind,
        )
        for listener in self._listeners:
            listener(old_state, new_state, reason)

    # ------------------------------------------------------------------
    # Supervisor inputs
    # ------------------------------------------------------------------

    def _unhealthy_state(self) -> str:
        return (
            "stale"
            if self._epochs_behind >= self.policy.stale_after
            else "degraded"
        )

    @mutation_point
    def record_failure(self, *, reason: str) -> None:
        """One epoch or publish attempt failed (a retry may follow)."""
        self._ingest_failures += 1
        self._consecutive_failures += 1
        self.transition(self._unhealthy_state(), reason=reason)

    @mutation_point
    def record_quarantine(self, epoch: int) -> None:
        """An epoch exhausted its retry budget and was skipped."""
        self._quarantined.append(epoch)
        self._epochs_behind += 1
        self.transition(
            self._unhealthy_state(), reason=f"epoch {epoch} quarantined"
        )

    @mutation_point
    def record_rollback(self, stage: str) -> None:
        """A publish exhausted its retry budget and was rolled back."""
        self._rollbacks += 1
        self._epochs_behind += 1
        self.transition(
            self._unhealthy_state(), reason=f"publish of {stage} rolled back"
        )

    @mutation_point
    def record_map_assessment(self, status: dict[str, Any]) -> None:
        """Absorb the disruption detector's change-vs-fault verdict.

        ``status`` is :meth:`DisruptionDetector.status`: the assessment
        (one of the detector's closed vocabulary), active alarm
        facilities, and the global-loss / fault-pressure readings that
        justify it.  This feeds the ``health`` query verb so operators
        can distinguish "map moved because the world churned" from
        "map moved because measurements degraded" — distinct causes,
        distinct operator responses.
        """
        assessment = status.get("assessment")
        if assessment not in ASSESSMENTS:
            raise ValueError(
                f"unknown map assessment {assessment!r}; "
                f"expected one of {', '.join(ASSESSMENTS)}"
            )
        self._map_change = dict(status)
        self._obs.count("serve.health.assessment")
        self._obs.emit(
            "serve.health.assessment",
            assessment=assessment,
            active_alarms=int(status.get("active_alarms", 0)),
            global_loss=status.get("global_loss"),
            fault_pressure=status.get("fault_pressure"),
        )

    @mutation_point
    def record_publish(self, snapshot: "MapSnapshot") -> None:
        """A snapshot was durably published and is now being served.

        A clean publish after a degraded/stale spell lands in
        ``recovering``; the next one returns to ``ok`` — so recovery is
        always the observable two-step ``degraded → recovering → ok``,
        never a silent jump.
        """
        self._publishes += 1
        self._epochs_behind = 0
        self._consecutive_failures = 0
        if self._state in ("degraded", "stale"):
            target = "recovering"
        else:
            target = "ok"
        self.transition(
            target,
            reason=f"published {'final' if snapshot.final else 'epoch'} "
            f"snapshot {snapshot.epoch}",
        )
