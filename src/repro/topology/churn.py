"""Temporal churn: a seeded, deterministic event plan over the topology.

The ground-truth topology is built once and frozen (``finalize`` runs
exactly once), so churn never mutates the :class:`~.topology.Topology`
object.  Instead a :func:`plan_churn` pass draws epoch-stamped
:class:`ChurnEvent`\\ s from seeded streams and materialises, per epoch,
a pure :class:`ChurnView` — the *overlay* that says which routers are
dark, which interconnection links are down, and what the facility
database believes (PeeringDB lags reality by ``pdb_lag`` epochs).  The
event log on the :class:`ChurnPlan` is the scoring ground truth for
disruption detection.

Event kinds:

* ``link-flap`` — one interconnection link drops for ``duration``
  epochs; traces crossing that router pair are truncated.
* ``facility-power-loss`` — every router installed in the facility
  goes dark; traces die at the facility boundary.
* ``as-leave`` — an AS decommissions its presence at one facility
  (routers dark for the rest of the horizon); the facility database
  keeps listing the AS there until ``db_epoch``.
* ``as-enter`` — the facility database gains an (AS, facility) listing
  at ``db_epoch``.  The frozen topology cannot grow routers, so this
  event perturbs only the constraint database — a spurious candidate
  facility, exactly the stale-PeeringDB confusion the paper's Step 2
  must narrow through.

Everything is derived from named seeded streams (``churn:<seed>:<class>``,
the same string-seeding discipline as ``exec.substream`` — this unit
sits below ``exec`` in the layering DAG so it derives the streams
directly) and is reproducible bit-for-bit from ``(topology, epochs,
config, seed)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace as _replace
from random import Random
from typing import Any, Iterable, Mapping, Sequence

from ..sanitize import tag_rng
from .topology import Topology

__all__ = [
    "AS_ENTER",
    "AS_LEAVE",
    "CHURN_EVENT_KINDS",
    "ChurnConfig",
    "ChurnEvent",
    "ChurnPlan",
    "ChurnView",
    "FACILITY_POWER_LOSS",
    "LINK_FLAP",
    "apply_events",
    "censor_trace",
    "plan_churn",
]

LINK_FLAP = "link-flap"
FACILITY_POWER_LOSS = "facility-power-loss"
AS_LEAVE = "as-leave"
AS_ENTER = "as-enter"

#: Closed set of event kinds; :class:`ChurnEvent` validates against it.
CHURN_EVENT_KINDS = (LINK_FLAP, FACILITY_POWER_LOSS, AS_LEAVE, AS_ENTER)

#: Event kinds that darken routers at a facility — the ones a
#: facility-localised disruption detector is scored against.
DISRUPTION_KINDS = (FACILITY_POWER_LOSS, AS_LEAVE)


@dataclass(frozen=True, slots=True)
class ChurnEvent:
    """One epoch-stamped change to the world (or to the database).

    Attributes:
        kind: one of :data:`CHURN_EVENT_KINDS`.
        epoch: the epoch reality changes (events take effect at the
            *start* of their epoch, before that epoch's campaign runs).
        duration: how many epochs the condition lasts.
        facility_id: the facility involved (power loss, AS moves).
        link_id: the flapping interconnection (link flaps only).
        asn: the AS involved (AS enters/leaves).
        db_epoch: when the facility database learns about it — lagged
            behind ``epoch`` for AS moves, ``None`` for events the
            database never records (flaps, power loss).
    """

    kind: str
    epoch: int
    duration: int
    facility_id: int | None = None
    link_id: int | None = None
    asn: int | None = None
    db_epoch: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in CHURN_EVENT_KINDS:
            raise ValueError(f"unknown churn event kind {self.kind!r}")
        if self.epoch < 0 or self.duration < 1:
            raise ValueError("churn events need epoch >= 0, duration >= 1")

    def active_at(self, epoch: int) -> bool:
        """Whether reality is still perturbed by this event at ``epoch``."""
        return self.epoch <= epoch < self.epoch + self.duration

    def db_active_at(self, epoch: int) -> bool:
        """Whether the database has absorbed this event at ``epoch``."""
        return self.db_epoch is not None and epoch >= self.db_epoch

    def as_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "epoch": self.epoch,
            "duration": self.duration,
            "facility_id": self.facility_id,
            "link_id": self.link_id,
            "asn": self.asn,
            "db_epoch": self.db_epoch,
        }


@dataclass(frozen=True, slots=True)
class ChurnConfig:
    """Per-epoch event probabilities and lag/duration knobs.

    Rates are per-epoch Bernoulli probabilities (at most one event of
    each class is drawn per epoch — churn stays sparse by design, so
    detection latency is attributable to a specific event).  The
    ``moderate()``/``scaled()``/``zero()`` surface mirrors
    ``FaultPlan`` so sweeps compose the two axes symmetrically.
    """

    link_flap_rate: float = 0.0
    facility_outage_rate: float = 0.0
    as_leave_rate: float = 0.0
    as_enter_rate: float = 0.0
    pdb_lag: int = 2
    outage_duration: int = 2
    flap_duration: int = 1
    warmup_epochs: int = 2
    min_facility_links: int = 3

    def __post_init__(self) -> None:
        for name in (
            "link_flap_rate",
            "facility_outage_rate",
            "as_leave_rate",
            "as_enter_rate",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.pdb_lag < 0:
            raise ValueError("pdb_lag must be >= 0")
        if self.outage_duration < 1 or self.flap_duration < 1:
            raise ValueError("durations must be >= 1")
        if self.warmup_epochs < 0:
            raise ValueError("warmup_epochs must be >= 0")
        if self.min_facility_links < 1:
            raise ValueError("min_facility_links must be >= 1")

    @classmethod
    def zero(cls) -> "ChurnConfig":
        """No events at all — the world stands still."""
        return cls()

    @classmethod
    def moderate(cls) -> "ChurnConfig":
        """The reference churn profile used by benchmarks and gates.

        ``min_facility_links`` is raised above the default because the
        inferred map resolves only a fraction of the ground-truth
        endpoints at a facility: a power loss at a facility with a
        handful of links is invisible to any detector reading the map,
        and drawing it would score the topology's sparsity, not the
        detector.
        """
        return cls(
            link_flap_rate=0.25,
            facility_outage_rate=0.40,
            as_leave_rate=0.15,
            as_enter_rate=0.15,
            min_facility_links=10,
        )

    def scaled(self, intensity: float) -> "ChurnConfig":
        """Scale every rate by ``intensity``, clamped to [0, 1]."""
        if intensity < 0:
            raise ValueError("intensity must be >= 0")

        def clamp(value: float) -> float:
            return min(1.0, value * intensity)

        return _replace(
            self,
            link_flap_rate=clamp(self.link_flap_rate),
            facility_outage_rate=clamp(self.facility_outage_rate),
            as_leave_rate=clamp(self.as_leave_rate),
            as_enter_rate=clamp(self.as_enter_rate),
        )

    def replace(self, **overrides: Any) -> "ChurnConfig":
        return _replace(self, **overrides)

    @property
    def is_zero(self) -> bool:
        return (
            self.link_flap_rate == 0
            and self.facility_outage_rate == 0
            and self.as_leave_rate == 0
            and self.as_enter_rate == 0
        )

    def as_dict(self) -> dict[str, Any]:
        return {
            "link_flap_rate": self.link_flap_rate,
            "facility_outage_rate": self.facility_outage_rate,
            "as_leave_rate": self.as_leave_rate,
            "as_enter_rate": self.as_enter_rate,
            "pdb_lag": self.pdb_lag,
            "outage_duration": self.outage_duration,
            "flap_duration": self.flap_duration,
            "warmup_epochs": self.warmup_epochs,
            "min_facility_links": self.min_facility_links,
        }


@dataclass(frozen=True, slots=True)
class ChurnView:
    """The world as seen at one epoch — a pure overlay, never a mutation.

    Attributes:
        epoch: the epoch this view describes.
        dark_routers: router ids that answer nothing this epoch.
        down_pairs: normalised ``(min, max)`` router-id pairs whose
            interconnection link is down (flaps).
        db_hidden: ``(asn, facility_id)`` listings the database has
            *dropped* by this epoch (lagged AS departures).
        db_added: ``(asn, facility_id)`` listings the database has
            *gained* by this epoch (lagged AS arrivals).
        started: events whose effect begins exactly this epoch.
        active: events still perturbing reality this epoch.
    """

    epoch: int
    dark_routers: frozenset[int] = frozenset()
    down_pairs: frozenset[tuple[int, int]] = frozenset()
    db_hidden: frozenset[tuple[int, int]] = frozenset()
    db_added: frozenset[tuple[int, int]] = frozenset()
    started: tuple[ChurnEvent, ...] = ()
    active: tuple[ChurnEvent, ...] = ()

    @property
    def is_quiet(self) -> bool:
        """True when measurement reality is unperturbed this epoch."""
        return not self.dark_routers and not self.down_pairs

    @property
    def db_key(self) -> tuple[frozenset[tuple[int, int]], frozenset[tuple[int, int]]]:
        """Cache key for the lagged facility-database overlay."""
        return (self.db_hidden, self.db_added)


def apply_events(
    topology: Topology, events: Sequence[ChurnEvent], epoch: int
) -> ChurnView:
    """The pure epoch transition: fold ``events`` into a :class:`ChurnView`.

    Reads the topology, mutates nothing; calling it twice with the same
    arguments yields equal views.  ``plan_churn`` precomputes one view
    per epoch via this function, but it is equally usable on a
    hand-written event list.
    """
    dark: set[int] = set()
    down: set[tuple[int, int]] = set()
    hidden: set[tuple[int, int]] = set()
    added: set[tuple[int, int]] = set()
    started: list[ChurnEvent] = []
    active: list[ChurnEvent] = []
    for event in events:
        if event.epoch == epoch:
            started.append(event)
        if event.active_at(epoch):
            active.append(event)
            if event.kind == FACILITY_POWER_LOSS:
                for router in topology.routers.values():
                    if router.facility_id == event.facility_id:
                        dark.add(router.router_id)
            elif event.kind == AS_LEAVE:
                for router in topology.routers.values():
                    if (
                        router.asn == event.asn
                        and router.facility_id == event.facility_id
                    ):
                        dark.add(router.router_id)
            elif event.kind == LINK_FLAP and event.link_id is not None:
                link = topology.interconnections.get(event.link_id)
                if link is not None:
                    pair = (link.router_a, link.router_b)
                    down.add((min(pair), max(pair)))
        if event.db_active_at(epoch):
            if event.kind == AS_LEAVE:
                hidden.add((event.asn, event.facility_id))
            elif event.kind == AS_ENTER:
                added.add((event.asn, event.facility_id))
    return ChurnView(
        epoch=epoch,
        dark_routers=frozenset(dark),
        down_pairs=frozenset(down),
        db_hidden=frozenset(hidden),
        db_added=frozenset(added),
        started=tuple(started),
        active=tuple(active),
    )


@dataclass(frozen=True, slots=True)
class ChurnPlan:
    """The full seeded event log plus one precomputed view per epoch."""

    seed: int
    epochs: int
    config: ChurnConfig
    events: tuple[ChurnEvent, ...]
    views: tuple[ChurnView, ...] = field(repr=False)

    def view(self, epoch: int) -> ChurnView:
        if not 0 <= epoch < self.epochs:
            raise ValueError(f"epoch {epoch} outside plan horizon {self.epochs}")
        return self.views[epoch]

    def disruption_events(self) -> tuple[ChurnEvent, ...]:
        """Events that darken routers at a facility (detector targets)."""
        return tuple(e for e in self.events if e.kind in DISRUPTION_KINDS)

    def power_loss_events(self) -> tuple[ChurnEvent, ...]:
        return tuple(e for e in self.events if e.kind == FACILITY_POWER_LOSS)

    @property
    def is_quiet(self) -> bool:
        return all(view.is_quiet and not view.started for view in self.views)

    def as_dict(self) -> dict[str, Any]:
        return {
            "seed": self.seed,
            "epochs": self.epochs,
            "config": self.config.as_dict(),
            "events": [event.as_dict() for event in self.events],
        }


def _facility_endpoint_counts(topology: Topology) -> dict[int, int]:
    """Interconnection endpoints pinned per facility, from ground truth."""
    counts: dict[int, int] = {}
    for link in topology.interconnections.values():
        for facility in (link.facility_a, link.facility_b):
            if facility is not None:
                counts[facility] = counts.get(facility, 0) + 1
    return counts


def plan_churn(
    topology: Topology,
    epochs: int,
    config: ChurnConfig,
    seed: int,
    candidate_facilities: Iterable[int] | None = None,
) -> ChurnPlan:
    """Draw a deterministic :class:`ChurnPlan` over ``epochs`` epochs.

    Each event class owns a named seeded stream (``churn:<seed>:flap``
    and friends), so adding one class never re-times another.  Facility
    power loss targets only facilities hosting at least
    ``config.min_facility_links`` interconnection endpoints (below that
    a loss is statistically invisible to the detector and would just
    poison recall scoring); AS departures target (AS, facility) pairs
    where the AS is present in at least two facilities, so the AS stays
    measurable elsewhere.  No events fire during the first
    ``config.warmup_epochs`` epochs — the detector needs a baseline
    before anything moves.
    """
    if epochs < 1:
        raise ValueError("epochs must be >= 1")
    flap_rng = tag_rng(Random(f"churn:{seed}:flap"), "churn", seed, "flap")
    outage_rng = tag_rng(Random(f"churn:{seed}:outage"), "churn", seed, "outage")
    leave_rng = tag_rng(Random(f"churn:{seed}:leave"), "churn", seed, "leave")
    enter_rng = tag_rng(Random(f"churn:{seed}:enter"), "churn", seed, "enter")

    counts = _facility_endpoint_counts(topology)
    if candidate_facilities is None:
        outage_candidates = sorted(
            facility
            for facility, count in counts.items()
            if count >= config.min_facility_links
        )
    else:
        outage_candidates = sorted(set(candidate_facilities))

    facilities_by_asn: dict[int, set[int]] = {}
    for router in topology.routers.values():
        facilities_by_asn.setdefault(router.asn, set()).add(router.facility_id)
    leave_candidates = sorted(
        (asn, facility)
        for asn, facilities in facilities_by_asn.items()
        if len(facilities) >= 2
        for facility in facilities
    )
    all_facilities = sorted(counts)
    enter_candidates = sorted(
        (asn, facility)
        for asn, facilities in facilities_by_asn.items()
        for facility in all_facilities
        if facility not in facilities
    )
    link_ids = sorted(topology.interconnections)

    events: list[ChurnEvent] = []
    facility_down_until: dict[int, int] = {}
    departed: set[tuple[int, int]] = set()
    entered: set[tuple[int, int]] = set()
    for epoch in range(epochs):
        if epoch < config.warmup_epochs:
            # Streams still advance on quiet epochs so a rate change in
            # one class never re-times the others.
            flap_rng.random()
            outage_rng.random()
            leave_rng.random()
            enter_rng.random()
            continue
        if flap_rng.random() < config.link_flap_rate and link_ids:
            link_id = link_ids[flap_rng.randrange(len(link_ids))]
            events.append(
                ChurnEvent(
                    kind=LINK_FLAP,
                    epoch=epoch,
                    duration=config.flap_duration,
                    link_id=link_id,
                )
            )
        if (
            outage_rng.random() < config.facility_outage_rate
            and epoch + config.outage_duration <= epochs
        ):
            # A power loss is only drawn when its whole window fits the
            # horizon: an outage starting on the final epoch gives any
            # debounced detector exactly one observation, so scoring it
            # as "missed" would measure the horizon, not the detector.
            up = [
                facility
                for facility in outage_candidates
                if facility_down_until.get(facility, -1) < epoch
            ]
            if up:
                facility = up[outage_rng.randrange(len(up))]
                facility_down_until[facility] = epoch + config.outage_duration - 1
                events.append(
                    ChurnEvent(
                        kind=FACILITY_POWER_LOSS,
                        epoch=epoch,
                        duration=config.outage_duration,
                        facility_id=facility,
                    )
                )
        if leave_rng.random() < config.as_leave_rate:
            available = [pair for pair in leave_candidates if pair not in departed]
            if available:
                asn, facility = available[leave_rng.randrange(len(available))]
                departed.add((asn, facility))
                events.append(
                    ChurnEvent(
                        kind=AS_LEAVE,
                        epoch=epoch,
                        duration=epochs - epoch,
                        facility_id=facility,
                        asn=asn,
                        db_epoch=epoch + config.pdb_lag,
                    )
                )
        if enter_rng.random() < config.as_enter_rate:
            available = [pair for pair in enter_candidates if pair not in entered]
            if available:
                asn, facility = available[enter_rng.randrange(len(available))]
                entered.add((asn, facility))
                events.append(
                    ChurnEvent(
                        kind=AS_ENTER,
                        epoch=epoch,
                        duration=epochs - epoch,
                        facility_id=facility,
                        asn=asn,
                        db_epoch=epoch + config.pdb_lag,
                    )
                )
    event_log = tuple(events)
    views = tuple(apply_events(topology, event_log, epoch) for epoch in range(epochs))
    return ChurnPlan(
        seed=seed, epochs=epochs, config=config, events=event_log, views=views
    )


def censor_trace(trace: Any, view: ChurnView) -> Any:
    """Truncate a traceroute at the first hop the churned world absorbs.

    Duck-typed over any trace with a ground-truth ``routers`` column and
    a ``truncated(hops)`` method — the same truncation the fault
    injector uses, so the measurement layer needs no import from here.
    A hop is absorbed when its router is dark, or when the (previous
    hop, hop) pair crosses a flapped link.  The link between the vantage
    point's own first router and the first *recorded* hop is not visible
    in the hop list, so a flap there passes uncensored — documented
    blind spot, matching real traceroute semantics where the probe's
    first egress is implicit.
    """
    if view.is_quiet or not trace.routers:
        return trace
    previous: int | None = None
    for index, router_id in enumerate(trace.routers):
        if router_id in view.dark_routers:
            return trace.truncated(index)
        if previous is not None:
            pair = (min(previous, router_id), max(previous, router_id))
            if pair in view.down_pairs:
                return trace.truncated(index)
        previous = router_id
    return trace


def lagged_membership(
    as_facilities: Mapping[int, frozenset[int]], view: ChurnView
) -> dict[int, frozenset[int]]:
    """Apply the view's database lag to an AS→facilities membership map.

    Returns a plain dict copy with departures still listed (until
    ``db_epoch`` passes, when they move into ``db_hidden``) and lagged
    arrivals added.  The caller wraps this into whatever database
    object its layer uses — this module stays below the core layer.
    """
    membership = dict(as_facilities)
    for asn, facility in sorted(view.db_hidden):
        present = membership.get(asn)
        if present is not None and facility in present:
            membership[asn] = present - {facility}
    for asn, facility in sorted(view.db_added):
        membership[asn] = membership.get(asn, frozenset()) | {facility}
    return membership
