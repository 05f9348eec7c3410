"""The Constrained Facility Search loop (Section 4.2, Figure 4).

One CFS iteration repeats Steps 2-4 over the accumulated measurement
corpus:

1. (once per corpus growth) map new interface addresses to ASNs and
   refresh alias resolution, repairing IP-to-ASN conflicts by alias
   majority vote;
2. re-extract public/private crossings (Step 1) and apply the initial
   facility search constraints (Step 2);
3. propagate constraints across router aliases (Step 3);
4. plan and launch targeted follow-up traceroutes for interfaces that
   have not converged (Step 4).

The loop stops at convergence, at quiescence (no constraint changed and
no follow-up is available), or at the iteration timeout (the paper used
100 rounds and observed diminishing returns after ~40).  Afterwards the
far ends of public peerings are settled with reverse-path constraints
and the switch proximity heuristic, and every observed link receives a
facility and engineering-type inference.

Steps 1-3 of one iteration are :meth:`ConstrainedFacilitySearch.step`,
which keeps the search state on the engine; ``run`` loops steps with
follow-ups in between.  The streaming service drives the same engine
passively — one step per epoch, no driver.

Two evaluation engines share this loop:

* the **incremental** engine (default): Step 2 only revisits
  *dirty* observations — crossings created or updated by newly parsed
  traces, plus crossings whose constraints currently conflict (the
  full-rescan loop re-counts those conflicts every round, so the
  incremental engine re-applies them to stay byte-identical).  Alias
  refreshes re-parse only the traces whose address-to-ASN mapping
  actually moved, reusing cached per-trace extractions for the rest;
* the **full-rescan** engine (``CfsConfig(incremental=False)``): the
  paper-literal loop that re-applies every accumulated observation each
  iteration and, on every alias refresh, drops the parsed corpus and
  starts over.  Kept as the equivalence oracle for the incremental
  path.

Both engines produce identical inferences; see
``tests/core/test_incremental.py`` for the property test.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as _dataclass_replace

from ..alias.midar import AliasSets, MidarResolver, repair_ip_to_asn
# CFS never forks; the name stays bound because the per-layer tracer in
# benchmarks/e2e/tracing.py patches ``repro.core.cfs.supervised_map``.
from ..exec import supervised_map
from ..measurement.campaign import CampaignDriver, TraceCorpus
from ..measurement.platforms import MeasurementPlatform
from ..obs import Instrumentation
from .alias_constraints import propagate_alias_constraints
from .classify import PeeringClassifier
from .constrain import InitialFacilitySearch
from .facility_db import FacilityDatabase
from .farside import LinkFinalizer
from .followup import FollowupPlanner
from .proximity import SwitchProximityModel
from .remote import RemotePeeringDetector
from .types import (
    CfsResult,
    InterfaceState,
    InterfaceStatus,
    IterationStats,
    ObservedPeering,
    PeeringKind,
)

__all__ = ["CfsConfig", "ConstrainedFacilitySearch", "FOLLOWUP_STRATEGIES"]

#: Valid values of :attr:`CfsConfig.followup_strategy`.
FOLLOWUP_STRATEGIES = ("smallest-overlap", "random")


@dataclass(frozen=True, slots=True)
class CfsConfig:
    """Knobs of the search loop (ablation switches included).

    Invalid knob values raise :class:`ValueError` at construction, so a
    bad ``followup_strategy`` cannot survive until deep inside the
    follow-up planner.
    """

    #: Iteration timeout (the paper's 100 rounds).
    max_iterations: int = 100
    #: Follow-up probes planned per iteration.
    followup_budget: int = 32
    #: Step 3 on/off (ablation).
    use_alias_constraints: bool = True
    #: Step 4 on/off (ablation).
    use_followups: bool = True
    #: Step 4 target ordering: the paper's "smallest-overlap" rule, or
    #: "random" (ablation).
    followup_strategy: str = "smallest-overlap"
    #: Section 4.4 far-end heuristic on/off (ablation).
    use_proximity: bool = True
    #: IP-to-ASN repair by alias majority vote on/off (ablation).
    use_asn_repair: bool = True
    #: Apply the campus mirror constraint to the far interface of
    #: private crossings.  The paper does NOT (Step 2 constrains only
    #: the near interface; far sides come from reverse-direction paths,
    #: Section 4.3), and enabling it trades a lot of precision for some
    #: coverage: boundary-shifted observations (unrepaired shared /31s)
    #: pin *interior* far-AS interfaces to wrong facilities.  Kept as an
    #: ablation switch.
    constrain_private_far_side: bool = False
    #: Re-run alias resolution when the address pool grew by this factor.
    alias_refresh_fraction: float = 0.10
    #: Dirty-set incremental evaluation (the default).  ``False`` runs
    #: the original full-rescan loop: every observation re-applied each
    #: iteration, the whole corpus re-parsed on every alias refresh.
    incremental: bool = True
    #: Tolerate missing facility rows: when one side of a Step-2
    #: constraint is unknown, widen the candidate set with the known
    #: side (marked ``data_health="degraded"``) instead of leaving the
    #: interface at MISSING_DATA.  Off by default — it trades precision
    #: for coverage and is intended for fault-injected corpora.
    degraded_mode: bool = False

    def __post_init__(self) -> None:
        if self.followup_strategy not in FOLLOWUP_STRATEGIES:
            raise ValueError(
                f"unknown follow-up strategy {self.followup_strategy!r}; "
                f"expected one of {FOLLOWUP_STRATEGIES}"
            )
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if self.followup_budget < 0:
            raise ValueError("followup_budget must not be negative")
        if self.alias_refresh_fraction < 0:
            raise ValueError("alias_refresh_fraction must not be negative")

    def replace(self, **overrides) -> "CfsConfig":
        """A copy with ``overrides`` applied (and re-validated).

        The ablation harnesses and benchmarks flip single switches off a
        base configuration; this keeps them from rebuilding the config
        field by field.
        """
        return _dataclass_replace(self, **overrides)


class ConstrainedFacilitySearch:
    """Drives the CFS loop over a corpus, optionally probing as it goes."""

    def __init__(
        self,
        facility_db: FacilityDatabase,
        ip_to_asn,
        alias_resolver: MidarResolver | None = None,
        driver: CampaignDriver | None = None,
        remote_detector: RemotePeeringDetector | None = None,
        config: CfsConfig | None = None,
        instrumentation: Instrumentation | None = None,
    ) -> None:
        """Args:
            facility_db: the assembled Section-3.1 knowledge base.
            ip_to_asn: object with ``lookup(address) -> int | None``
                (e.g. :class:`repro.datasets.CymruService`).
            alias_resolver: MIDAR front-end; ``None`` disables alias
                resolution entirely (a harsher ablation than switching
                off Step 3, since IP-to-ASN repair also vanishes).
            driver: campaign driver for follow-up traceroutes; ``None``
                makes the run passive (archived corpus only).
            remote_detector: the delay-based remote-peering test.
            config: loop knobs.
            instrumentation: counters/timers/event sink for the run; a
                fresh silent instance when omitted.
        """
        self._db = facility_db
        self._ip_to_asn = ip_to_asn
        self._midar = alias_resolver
        self._driver = driver
        self.config = config or CfsConfig()
        self.instrumentation = instrumentation or Instrumentation()
        self._obs = self.instrumentation
        self._classifier = PeeringClassifier(
            facility_db, instrumentation=self._obs
        )
        self._search = InitialFacilitySearch(
            facility_db,
            remote_detector or RemotePeeringDetector(),
            constrain_private_far_side=self.config.constrain_private_far_side,
            degraded=self.config.degraded_mode,
            instrumentation=self._obs,
        )
        self._planner = FollowupPlanner(
            facility_db, strategy=self.config.followup_strategy
        )
        self.proximity = SwitchProximityModel()
        self._reset()

    # ------------------------------------------------------------------

    def _reset(self) -> None:
        """Forget every address, trace and constraint: a fresh search."""
        self._known_addresses: set[int] = set()
        self._raw_mapping: dict[int, int | None] = {}
        self._mapping: dict[int, int | None] = {}
        self._alias_sets = AliasSets()
        self._addresses_at_last_resolve = 0
        #: Address-discovery frontier (never rewinds).
        self._scanned_traces = 0
        #: Extraction frontier (the full-rescan engine rewinds it to 0
        #: on every alias refresh).
        self._parsed_traces = 0
        self._observations: dict[tuple, ObservedPeering] = {}
        #: Incremental engine: per-trace extraction cache (``None`` for
        #: traces yielding no crossing, which is most of them — keeps
        #: the cache light for the garbage collector).
        self._trace_records: list[dict[tuple, ObservedPeering] | None] = []
        #: Observation keys whose constraints currently conflict; the
        #: full-rescan loop re-counts such conflicts every iteration, so
        #: the incremental engine keeps re-applying them.
        self._sticky_conflicts: set[tuple] = set()
        self._states: dict[int, InterfaceState] = {}
        self._steps = 0

    def run(
        self,
        corpus: TraceCorpus,
        platforms: list[MeasurementPlatform] | None = None,
    ) -> CfsResult:
        """Run the loop to convergence/timeout and finalize inferences.

        Starts a fresh search, then alternates :meth:`step` with
        targeted follow-ups (Step 4) until a stop rule fires.
        """
        obs = self._obs
        self._reset()
        probed_pairs: set[tuple[int, int]] = set()
        history: list[IterationStats] = []
        followup_traces = 0

        for iteration in range(1, self.config.max_iterations + 1):
            changed, applied, traces_parsed = self.step(corpus)
            states = self._states

            # --- Step 4: targeted follow-ups ----------------------------
            plans = []
            if (
                self.config.use_followups
                and self._driver is not None
                and self._has_unresolved(states)
            ):
                with obs.stage("followup"):
                    plans = self._planner.plan(
                        states, probed_pairs, self.config.followup_budget
                    )
                    for plan in plans:
                        probed_pairs.add((plan.near_asn, plan.target_asn))
                        followup_traces += self._driver.probe_peering(
                            plan.near_asn, plan.target_asn, corpus, platforms
                        )
                obs.count("cfs.followups_issued", len(plans))

            history.append(
                self._snapshot(
                    iteration,
                    states,
                    len(plans),
                    observations_total=len(self._observations),
                    observations_applied=applied,
                    traces_parsed=traces_parsed,
                )
            )
            obs.emit(
                "cfs.iteration",
                iteration=iteration,
                interfaces=len(states),
                observations=len(self._observations),
                applied=applied,
                followups=len(plans),
            )
            if not self._has_unresolved(states) and not self._has_missing(states):
                break
            if not changed and not plans:
                break

        with obs.stage("finalize"):
            result = self.result(self.proximity)
        result.history = history
        result.followup_traces = followup_traces
        result.metrics = obs.snapshot()
        return result

    def step(self, corpus: TraceCorpus) -> tuple[bool, int, int]:
        """One CFS round (Steps 1-3) over ``corpus``.

        Maps addresses first seen since the last step, refreshes alias
        resolution on the first step or once the address pool grew
        enough, extracts the traces appended since the last step, then
        applies Step-2 constraints and propagates them across aliases
        (Step 3).  The search state lives on the engine, so successive
        steps over one append-only corpus continue one search:
        :meth:`run` puts follow-ups between steps, and a passive caller
        (no driver) folds a growing stream one step per epoch.

        Returns ``(changed, applied, traces_parsed)``: whether any
        constraint changed, how many Step-2 applications ran, and how
        many traces were parsed or re-parsed.
        """
        obs = self._obs
        incremental = self.config.incremental
        self._steps += 1
        obs.count("cfs.iterations")

        # --- mapping upkeep for newly observed addresses ----------------
        with obs.stage("map"):
            known = self._known_addresses
            fresh = [
                address
                for trace in corpus.traces[self._scanned_traces:]
                for address in trace.responsive_addresses()
                if address not in known
            ]
            for address in fresh:
                known.add(address)
                asn = self._ip_to_asn.lookup(address)
                self._raw_mapping[address] = asn
                self._mapping[address] = asn
            self._scanned_traces = len(corpus.traces)
            obs.count("cfs.addresses_mapped", len(fresh))

        # --- alias refresh + IP-to-ASN repair ---------------------------
        refreshed = False
        last = self._addresses_at_last_resolve
        grew_enough = len(known) - last > (
            self.config.alias_refresh_fraction * max(1, last)
        )
        if self._midar is not None and (self._steps == 1 or grew_enough):
            with obs.stage("alias"):
                self._alias_sets = self._midar.resolve(sorted(known))
                self._addresses_at_last_resolve = len(known)
                previous_mapping = self._mapping
                if self.config.use_asn_repair:
                    self._mapping = repair_ip_to_asn(
                        self._alias_sets, self._raw_mapping
                    )
                else:
                    self._mapping = dict(self._raw_mapping)
            refreshed = True
            obs.count("cfs.alias_refreshes")
            obs.emit(
                "cfs.alias_refresh",
                iteration=self._steps,
                addresses=len(known),
                alias_sets=len(self._alias_sets),
            )
            if not incremental:
                # Boundaries may move under the repaired mapping:
                # the full-rescan engine drops the parsed corpus.
                self._observations = {}
                self._parsed_traces = 0

        # --- Step 1: (re)extract crossings ------------------------------
        with obs.stage("extract"):
            traces_parsed = 0
            dirty: set[tuple] | None
            if incremental:
                if refreshed:
                    reparsed = self._reparse_moved(corpus, previous_mapping)
                    traces_parsed += reparsed
                    if reparsed:
                        self._observations = self._rebuild_observations(
                            self._trace_records
                        )
                    # Post-refresh, revisit every crossing once —
                    # the full-rescan engine does the same pass.
                    dirty = None
                else:
                    dirty = set(self._sticky_conflicts)
                merge = PeeringClassifier.merge
                new_keys: set[tuple] = set()
                fresh_indices = range(self._parsed_traces, len(corpus.traces))
                for records in self._extract_many(corpus, fresh_indices):
                    self._trace_records.append(records)
                    traces_parsed += 1
                    if records is None:
                        continue
                    for record in records.values():
                        merge(self._observations, record)
                    new_keys.update(records)
                if dirty is not None:
                    dirty |= new_keys
            else:
                traces_parsed = len(corpus.traces) - self._parsed_traces
                self._classifier.extract(
                    corpus.traces[self._parsed_traces:],
                    self._mapping,
                    into=self._observations,
                )
                dirty = None
            self._parsed_traces = len(corpus.traces)

        # --- Step 2: initial facility search ----------------------------
        with obs.stage("constrain"):
            changed = False
            applied = 0
            observations = self._observations
            if dirty is None:
                for observation in observations.values():
                    applied += 1
                    if self._apply_observation(observation, incremental):
                        changed = True
            elif dirty:
                # Dict order is first-appearance order; walking the
                # dict (not the dirty set) keeps application order
                # identical to the full-rescan engine.
                for key, observation in observations.items():
                    if key not in dirty:
                        continue
                    applied += 1
                    if self._apply_observation(observation, incremental):
                        changed = True
            obs.count("cfs.observations_applied", applied)
            obs.count("cfs.observations_skipped", len(observations) - applied)

        # --- Step 3: alias constraint propagation -----------------------
        if self.config.use_alias_constraints and len(self._alias_sets):
            with obs.stage("propagate"):
                narrowed = propagate_alias_constraints(
                    self._states, self._alias_sets
                )
                if narrowed:
                    changed = True
                obs.count("cfs.constraints_narrowed", narrowed)
                self._search.refresh_statuses(self._states)
        return changed, applied, traces_parsed

    def result(self, proximity: SwitchProximityModel) -> CfsResult:
        """The map as the search stands: every observed link finalised
        with ``proximity`` (far-end settlement, Section 4.4).

        The result shares the engine's interface states.  It carries no
        iteration history, follow-up count or metrics; :meth:`run`
        fills those in.
        """
        links = LinkFinalizer(self._db, proximity).finalize(
            self._observations,
            self._states,
            use_proximity=self.config.use_proximity,
        )
        return CfsResult(
            interfaces=self._states,
            links=links,
            history=[],
            iterations_run=self._steps,
            followup_traces=0,
            peering_interfaces_seen=len(self._states),
            alias_sets=self._alias_sets if self._midar is not None else None,
        )

    # ------------------------------------------------------------------
    # Incremental-engine helpers
    # ------------------------------------------------------------------

    def _extract_many(
        self, corpus: TraceCorpus, indices
    ) -> list[dict[tuple, ObservedPeering] | None]:
        """Extract many traces by index, in process.

        Each trace's crossings form an isolated (cacheable) record
        batch; ``None`` stands for "no crossings" so the cache holds no
        empty dicts (most traces cross no peering).
        """
        traces = corpus.traces
        mapping = self._mapping
        extract = self._classifier.extract
        return [
            extract([traces[index]], mapping, into={}) or None
            for index in indices
        ]

    def _reparse_moved(
        self,
        corpus: TraceCorpus,
        previous_mapping: dict[int, int | None],
    ) -> int:
        """Re-extract cached traces whose address-to-ASN mapping moved.

        Extraction depends on the mapping only through a trace's own
        responsive addresses, so traces disjoint from the moved set keep
        their cached records verbatim.  Returns the re-parse count.
        """
        moved = {
            address
            for address, asn in self._mapping.items()
            if previous_mapping.get(address) != asn
        }
        if not moved:
            return 0
        trace_records = self._trace_records
        disjoint = moved.isdisjoint
        traces = corpus.traces
        touched = [
            index
            for index in range(len(trace_records))
            if not disjoint(traces[index].responsive_addresses())
        ]
        for index, records in zip(
            touched, self._extract_many(corpus, touched)
        ):
            trace_records[index] = records
        reparsed = len(touched)
        self._obs.count("cfs.traces_reparsed", reparsed)
        self._obs.count(
            "cfs.trace_cache_hits", len(trace_records) - reparsed
        )
        return reparsed

    @staticmethod
    def _rebuild_observations(
        trace_records: list[dict[tuple, ObservedPeering] | None],
    ) -> dict[tuple, ObservedPeering]:
        """Merge per-trace record batches back into one crossing dict.

        Merging batches in trace order reproduces the dict a full
        re-parse would build — same records, same insertion order — so
        downstream link finalisation stays byte-identical.
        """
        rebuilt: dict[tuple, ObservedPeering] = {}
        merge = PeeringClassifier.merge
        for records in trace_records:
            if records is None:
                continue
            for record in records.values():
                merge(rebuilt, record)
        return rebuilt

    def _apply_observation(
        self, observation: ObservedPeering, track_conflicts: bool
    ) -> bool:
        """Step-2 application, optionally tracking conflicting keys.

        The incremental engine must know which observations conflicted:
        the full-rescan loop re-applies them every iteration and counts
        a fresh conflict each time, so they stay in the dirty set until
        a mapping move lifts the contradiction.
        """
        states = self._states
        if not track_conflicts:
            return self._search.apply(observation, states)
        involved = [observation.near_address]
        if observation.kind is PeeringKind.PUBLIC:
            if observation.ixp_address is not None:
                involved.append(observation.ixp_address)
        elif (
            observation.far_address is not None
            and self.config.constrain_private_far_side
        ):
            involved.append(observation.far_address)
        before = sum(
            states[address].conflicts
            for address in involved
            if address in states
        )
        changed = self._search.apply(observation, states)
        after = sum(
            states[address].conflicts
            for address in involved
            if address in states
        )
        key = observation.key()
        if after > before:
            self._sticky_conflicts.add(key)
        else:
            self._sticky_conflicts.discard(key)
        return changed

    # ------------------------------------------------------------------

    @staticmethod
    def _has_unresolved(states: dict[int, InterfaceState]) -> bool:
        return any(
            state.status
            in (InterfaceStatus.UNRESOLVED_LOCAL, InterfaceStatus.UNRESOLVED_REMOTE)
            for state in states.values()
        )

    @staticmethod
    def _has_missing(states: dict[int, InterfaceState]) -> bool:
        return any(
            state.status is InterfaceStatus.MISSING_DATA
            for state in states.values()
        )

    @staticmethod
    def _snapshot(
        iteration: int,
        states: dict[int, InterfaceState],
        followups: int,
        observations_total: int = 0,
        observations_applied: int = 0,
        traces_parsed: int = 0,
    ) -> IterationStats:
        counts = {status: 0 for status in InterfaceStatus}
        for state in states.values():
            counts[state.status] += 1
        return IterationStats(
            iteration=iteration,
            total_interfaces=len(states),
            resolved=counts[InterfaceStatus.RESOLVED],
            unresolved_local=counts[InterfaceStatus.UNRESOLVED_LOCAL],
            unresolved_remote=counts[InterfaceStatus.UNRESOLVED_REMOTE],
            missing_data=counts[InterfaceStatus.MISSING_DATA],
            followups_issued=followups,
            observations_total=observations_total,
            observations_applied=observations_applied,
            traces_parsed=traces_parsed,
        )

