"""Campaign driving: hitlists, trace corpora, and targeted probing.

The measurement workflow of Sections 3.2 and 4.1:

1. build a hitlist of responsive addresses per target network (the paper
   uses BGP announcements, ZMap's hitlist, and content-provider white
   lists);
2. run an initial campaign toward the study targets from Atlas and the
   looking glasses, and fold in archived iPlane/Ark sweeps;
3. during CFS iterations, issue *targeted* follow-up traceroutes chosen
   to cross specific peerings (Step 4).

A :class:`TraceCorpus` accumulates every measurement; CFS re-reads it on
each iteration, so archived and fresh traces constrain inferences alike.

The initial campaign is split into **plan** and **execute** phases:
:meth:`CampaignDriver.plan_initial_campaign` draws every sampling
decision from the driver's sequential RNG up front (in exactly the
order the historical single-phase loop did), producing a list of
:class:`ProbeTask` whose execution consumes no shared randomness at
all.  That split is what makes the plan shardable: with ``workers>1``
the tasks are partitioned by (platform, vantage point) and executed on
a fork-based process pool (:mod:`repro.exec`), and the per-shard
results and accounting deltas merge back in plan order, byte-identical
to the serial run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from random import Random

from ..columnar import TraceArrays
from ..exec import (
    ExecFaultSpec,
    SupervisorConfig,
    instrument_observer,
    plan_shards,
    substream,
    supervised_map,
)
from ..faults.errors import MeasurementFault
from ..obs import Instrumentation
from ..sanitize import tag_rng
from ..topology.network import InterfaceKind
from ..topology.topology import Topology
from .platforms import MeasurementPlatform, PlatformSet, VantagePoint
from .resilience import CircuitBreaker, ProbeBudget, ResilienceConfig
from .traceroute import Traceroute, rebuild_traces

__all__ = [
    "Hitlist",
    "TraceCorpus",
    "CampaignDriver",
    "CampaignConfig",
    "ProbeTask",
]


class Hitlist:
    """Responsive target addresses per AS.

    The public-knowledge analogue of the ZMap hitlist plus per-provider
    white lists: for each AS, a set of addresses known to respond.  We
    use host/server addresses behind the AS's routers — like the content
    servers and hitlist hosts the paper targeted, probes toward them
    keep every router crossing (including the last one) observable.
    """

    def __init__(
        self,
        topology: Topology,
        instrumentation: Instrumentation | None = None,
    ) -> None:
        self._obs = instrumentation or Instrumentation()
        self._targets: dict[int, list[int]] = {}
        for asn in topology.ases:
            addresses: list[int] = []
            for router_id in topology.routers_of(asn):
                for address in topology.routers[router_id].interfaces:
                    interface = topology.interfaces[address]
                    if interface.kind is InterfaceKind.HOST:
                        addresses.append(address)
            self._targets[asn] = sorted(addresses)

    def targets_for(self, asn: int) -> list[int]:
        """Responsive addresses inside ``asn`` (may be empty).

        An ASN the hitlist has never heard of is worth surfacing — a
        campaign aimed at it will silently probe nothing — so the miss
        is counted and emitted as ``hitlist.miss``.
        """
        targets = self._targets.get(asn)
        if targets is None:
            self._obs.count("hitlist.miss")
            self._obs.emit("hitlist.miss", asn=asn)
            return []
        return targets

    def all_targets(self) -> list[int]:
        """Every known-responsive address."""
        return [addr for addrs in self._targets.values() for addr in addrs]


@dataclass(slots=True)
class TraceCorpus:
    """Accumulated traceroute measurements.

    ``traces`` is append-only (campaigns and follow-ups only ever add),
    which is what lets the incremental CFS engine parse only the tail
    appended since its last step.
    """

    traces: list[Traceroute] = field(default_factory=list)

    def add(self, trace: Traceroute) -> None:
        """Append one traceroute."""
        self.traces.append(trace)

    def extend(self, traces: list[Traceroute]) -> None:
        """Append many traceroutes."""
        self.traces.extend(traces)

    def __len__(self) -> int:
        return len(self.traces)

    def __iter__(self):
        return iter(self.traces)

    def by_platform(self, platform: str) -> list[Traceroute]:
        """Subset collected by one platform."""
        return [t for t in self.traces if t.platform == platform]

    def observed_addresses(self) -> set[int]:
        """Every responsive hop address seen so far."""
        addresses: set[int] = set()
        for trace in self.traces:
            addresses.update(trace.responsive_addresses())
        return addresses


@dataclass(frozen=True, slots=True)
class CampaignConfig:
    """Probing budgets for the initial and follow-up campaigns."""

    #: Atlas probes sampled per target address in the initial campaign.
    atlas_sample_per_target: int = 25
    #: Looking-glass vantage points sampled per target address.
    lg_sample_per_target: int = 8
    #: Targets each archive node sweeps per archived dataset.
    archive_targets_per_node: int = 15
    #: Traces issued per direction in one follow-up probe.
    followup_traces: int = 4
    #: Retry/backoff, circuit-breaker, and probe-budget policy.
    resilience: ResilienceConfig = field(default_factory=ResilienceConfig)


@dataclass(frozen=True, slots=True)
class ProbeTask:
    """One planned probe of the initial campaign.

    ``index`` is the task's position in the probe plan — the corpus
    order of its trace — so shard results merge back deterministically.
    ``resilient`` live probes route through retry/breaker/budget;
    archive replays call the platform directly, as the historical sweep
    collection did.
    """

    index: int
    platform: str
    vp: VantagePoint
    dst_address: int
    resilient: bool


class CampaignDriver:
    """Issues campaigns over a :class:`PlatformSet` into a corpus."""

    def __init__(
        self,
        platforms: PlatformSet,
        hitlist: Hitlist,
        config: CampaignConfig | None = None,
        seed: int = 0,
        instrumentation: Instrumentation | None = None,
        workers: int = 1,
        supervision: SupervisorConfig | None = None,
        exec_faults: ExecFaultSpec | None = None,
    ) -> None:
        self.platforms = platforms
        self.hitlist = hitlist
        self.config = config or CampaignConfig()
        self._rng = tag_rng(Random(seed), "campaign", seed)
        self._obs = instrumentation or Instrumentation()
        #: Process-pool width for the initial campaign (1 = serial).
        self.workers = workers
        #: Supervision policy for the sharded executor (deadline,
        #: retry/quarantine bounds); defaults apply when ``None``.
        self.supervision = supervision
        #: Seeded executor-fault intensities (chaos); ``None`` = clean.
        self.exec_faults = exec_faults
        resilience = self.config.resilience
        self._retry_policy = resilience.retry
        self._breakers: dict[str, CircuitBreaker] = {}
        self.budget = ProbeBudget(max_probes=resilience.max_probes)
        #: Simulated wall-clock cost of retry backoff (like the looking
        #: glasses' ``simulated_wait_s`` — accounted, never slept).
        self.simulated_backoff_s = 0.0
        #: Jitter stream; untouched unless a probe actually fails, so
        #: fault-free runs draw nothing from it.
        self._retry_rng = substream("campaign-retry", seed)
        self._platform_by_name = {
            platform.name: platform for platform in platforms.all_platforms()
        }

    def _breaker(self, platform_name: str) -> CircuitBreaker:
        """The per-platform circuit breaker (lazily created)."""
        breaker = self._breakers.get(platform_name)
        if breaker is None:
            resilience = self.config.resilience
            breaker = CircuitBreaker(
                failure_threshold=resilience.breaker_failure_threshold,
                cooldown_s=resilience.breaker_cooldown_s,
            )
            self._breakers[platform_name] = breaker
        return breaker

    def quarantined_vantage_points(self) -> set[str]:
        """Vantage points ever quarantined by a circuit breaker."""
        return {
            vp_id
            for breaker in self._breakers.values()
            for vp_id in breaker.tripped
        }

    def _backoff(self, attempt: int) -> None:
        """Account the post-failure backoff and age the breakers."""
        pause = self._retry_policy.backoff_s(attempt, self._retry_rng)
        self.simulated_backoff_s += pause
        for breaker in self._breakers.values():
            breaker.advance(pause)

    def _resilient_trace(
        self,
        platform: MeasurementPlatform,
        vp: VantagePoint,
        dst_address: int,
    ) -> Traceroute | None:
        """One probe with retry/backoff, breaker, and budget applied.

        Returns ``None`` when the probe was skipped (quarantined vantage
        point, exhausted budget) or abandoned after its last retry; the
        campaign carries on with one trace fewer either way.
        """
        breaker = self._breaker(platform.name)
        if breaker.is_open(vp.vp_id):
            self.budget.skipped_quarantined += 1
            self._obs.count("campaign.quarantined_skips")
            return None
        for attempt in range(self._retry_policy.max_attempts):
            if not self.budget.allow():
                # Exactly one bucket per probe: a probe that never got
                # an attempt was *skipped*; one whose retries straddled
                # the cap already burned attempts and is abandoned —
                # that is a *failed* probe, not a skipped one.
                if attempt:
                    self.budget.failed += 1
                    self._obs.count("campaign.probe_gave_up")
                else:
                    self.budget.skipped_budget += 1
                self._obs.count("campaign.budget_exhausted")
                return None
            self.budget.attempts += 1
            try:
                trace = platform.trace(vp, dst_address)
            except MeasurementFault as fault:
                self._obs.count("campaign.probe_faults")
                self._obs.count(f"campaign.fault.{fault.kind}")
                if breaker.record_failure(vp.vp_id):
                    self._obs.count("campaign.vp_quarantined")
                    self._obs.emit(
                        "campaign.vp_quarantined",
                        vp=vp.vp_id,
                        platform=platform.name,
                        fault=fault.kind,
                    )
                if breaker.is_open(vp.vp_id):
                    break  # quarantined mid-probe: stop retrying it
                if attempt + 1 < self._retry_policy.max_attempts:
                    self._backoff(attempt)
                    self.budget.retried += 1
                    self._obs.count("campaign.retries")
                continue
            breaker.record_success(vp.vp_id)
            self._obs.count("campaign.probes_issued")
            return trace
        self.budget.failed += 1
        self._obs.count("campaign.probe_gave_up")
        return None

    def _trace_from_sample(
        self,
        platform: MeasurementPlatform,
        dst_address: int,
        sample_size: int,
    ) -> list[Traceroute]:
        """Resilient analogue of ``platform.trace_from_sample``.

        Draws the identical vantage-point sample from ``self._rng`` (so
        fault-free runs are byte-identical to the direct call), then
        routes each probe through :meth:`_resilient_trace`.
        """
        size = min(sample_size, len(platform.vantage_points))
        sample = self._rng.sample(platform.vantage_points, size) if size else []
        traces: list[Traceroute] = []
        for vp in sample:
            trace = self._resilient_trace(platform, vp, dst_address)
            if trace is not None:
                traces.append(trace)
        return traces

    # ------------------------------------------------------------------
    # Initial campaign: plan, execute (serial or sharded), merge
    # ------------------------------------------------------------------

    def plan_initial_campaign(
        self, target_asns: list[int], include_archives: bool = True
    ) -> list[ProbeTask]:
        """Draw every sampling decision of the initial campaign up front.

        Consumes ``self._rng`` in exactly the order the historical
        interleaved probe loop did — per target AS, per destination:
        the Atlas vantage-point sample, then the looking-glass sample,
        then one sweep seed per archive — so a planned-then-executed
        campaign is byte-identical to the old single-phase one.  The
        returned tasks carry their plan position (= corpus order) and
        need no shared randomness to execute.
        """
        cfg = self.config
        plan: list[ProbeTask] = []

        def sample_tasks(
            platform: MeasurementPlatform, dst: int, sample_size: int
        ) -> None:
            size = min(sample_size, len(platform.vantage_points))
            sample = (
                self._rng.sample(platform.vantage_points, size) if size else []
            )
            for vp in sample:
                plan.append(
                    ProbeTask(
                        index=len(plan),
                        platform=platform.name,
                        vp=vp,
                        dst_address=dst,
                        resilient=True,
                    )
                )

        for asn in target_asns:
            targets = self.hitlist.targets_for(asn)
            if not targets:
                self._obs.count("campaign.empty_hitlist")
            for dst in targets:
                sample_tasks(
                    self.platforms.atlas, dst, cfg.atlas_sample_per_target
                )
                sample_tasks(
                    self.platforms.looking_glasses,
                    dst,
                    cfg.lg_sample_per_target,
                )
        sweep_targets = self.hitlist.all_targets()
        if sweep_targets and include_archives:
            for archive in (self.platforms.iplane, self.platforms.ark):
                seed = self._rng.randrange(2**30)
                for vp, dst in archive.plan_sweep(
                    sweep_targets, cfg.archive_targets_per_node, seed=seed
                ):
                    plan.append(
                        ProbeTask(
                            index=len(plan),
                            platform=archive.name,
                            vp=vp,
                            dst_address=dst,
                            resilient=False,
                        )
                    )
        return plan

    def _execute_task(self, task: ProbeTask) -> Traceroute | None:
        """Run one planned probe (no shared RNG; safe in any order)."""
        platform = self._platform_by_name[task.platform]
        if task.resilient:
            return self._resilient_trace(platform, task.vp, task.dst_address)
        return platform.trace(task.vp, task.dst_address)

    def _can_parallel(self, n_tasks: int) -> bool:
        """Whether the initial campaign may run on the process pool.

        Two campaign features are inherently sequential and force the
        serial path (counted, so fallbacks are observable): a global
        probe-attempt cap, where each probe's fate depends on every
        probe before it, and installed *probe-level* fault injection
        (hop loss, truncation, outages, LG misbehaviour), whose failure
        draws come from sequential per-run streams.  Executor-level
        faults (``worker_crash``/``worker_hang``) are keyed per shard
        attempt and deliberately do NOT force serial — exercising the
        supervisor under parallelism is their purpose.
        """
        if self.workers <= 1 or n_tasks < 2:
            return False
        if self.budget.max_probes is not None:
            self._obs.count("exec.fallback.budget_capped")
            return False
        injectors = [self.platforms.atlas.engine.fault_injector]
        injectors.extend(
            platform.fault_injector
            for platform in self.platforms.all_platforms()
        )
        if any(
            injector is not None and injector.plan.perturbs_probes
            for injector in injectors
        ):
            self._obs.count("exec.fallback.faults_installed")
            return False
        return True

    def _execute_plan_sharded(
        self, plan: list[ProbeTask]
    ) -> list[Traceroute | None]:
        """Execute the probe plan on the process pool and merge.

        Tasks shard by (platform, vantage point) — a stable key, so the
        partition is identical on every run — and results slot back into
        plan positions, so the merged list equals the serial one however
        shards interleave.  Accounting (probe issues, LG rate limits,
        budget buckets, metrics) comes back as per-shard deltas and is
        folded in shard-index order.

        Execution is supervised: a shard whose worker dies or hangs is
        retried on a rebuilt pool and quarantined to serial in-process
        execution past the retry bound, landing in the same plan slots
        either way (see :mod:`repro.exec.supervise`).
        """
        shards = plan_shards(
            plan,
            self.workers,
            key=lambda task: f"{task.platform}:{task.vp.vp_id}",
        )
        self._obs.count("exec.campaign.shards", len(shards))
        # Each payload is just the shard's plan positions: the plan
        # itself rides into the forked children as copy-on-write context,
        # so submission pickles a few index tuples, not ProbeTask lists.
        payloads = [shard.item_indices for shard in shards]
        shard_results = supervised_map(
            _run_campaign_shard,
            payloads,
            workers=self.workers,
            context=(self, plan),
            config=self.supervision,
            faults=self.exec_faults,
            fallback=lambda reason: self._obs.count(f"exec.fallback.{reason}"),
            observer=instrument_observer(self._obs),
            describe=lambda indices: (
                f"campaign shard of {len(indices)} probes"
            ),
        )
        results: list[Traceroute | None] = [None] * len(plan)
        engine = self.platforms.atlas.engine
        for result in shard_results:
            # Traces come back columnar; rebuild preserves shard order,
            # and "indices" names the plan slot of each rebuilt trace.
            for index, trace in zip(
                result["indices"], rebuild_traces(result["traces"])
            ):
                results[index] = trace
            issued, issue_deltas = result["engine"]
            engine.absorb_issue_deltas(issued, issue_deltas)
            self.platforms.looking_glasses.absorb_query_deltas(
                result["lg_queries"]
            )
            self.budget.absorb(result["budget"])
            self._obs.absorb(result["metrics"])
        return results

    def execute_plan(self, plan: list[ProbeTask]) -> list[Traceroute | None]:
        """Execute planned probes, parallel when safe, serial otherwise.

        Tasks carry their own sampling decisions and consume no shared
        randomness, so any contiguous split of a plan executed slice by
        slice — the streaming service's epochs — produces exactly the
        traces the one-shot execution would.  Results keep plan order;
        unresponsive probes come back as ``None``.
        """
        if self._can_parallel(len(plan)):
            return self._execute_plan_sharded(plan)
        return [self._execute_task(task) for task in plan]

    def initial_campaign(
        self, target_asns: list[int], include_archives: bool = True
    ) -> TraceCorpus:
        """The Section-5 style campaign toward the study targets, with
        archived iPlane/Ark sweeps folded in (Section 4.1).

        ``include_archives=False`` skips the archived sweeps — useful
        when campaigns toward individual targets are accumulated
        incrementally and the archives should be counted once.

        With ``workers > 1`` (and no budget cap or fault injection) the
        planned probes execute on a fork-based process pool; the merged
        corpus is byte-identical to the serial run's.
        """
        plan = self.plan_initial_campaign(target_asns, include_archives)
        results = self.execute_plan(plan)
        corpus = TraceCorpus()
        corpus.extend([trace for trace in results if trace is not None])
        self._obs.count("campaign.initial_traces", len(corpus))
        self._obs.emit(
            "campaign.initial",
            targets=len(target_asns),
            traces=len(corpus),
            archives=include_archives,
        )
        self.budget.check()
        self._obs.emit("campaign.budget", **self.budget.as_dict())
        return corpus

    # ------------------------------------------------------------------
    # Follow-up probing (CFS Step 4)
    # ------------------------------------------------------------------

    def _vps_in(self, asn: int, platforms: list[MeasurementPlatform]) -> list[VantagePoint]:
        vps: list[VantagePoint] = []
        for platform in platforms:
            vps.extend(platform.vantage_points_in(asn))
        return vps

    def probe_peering(
        self,
        near_asn: int,
        target_asn: int,
        corpus: TraceCorpus,
        platforms: list[MeasurementPlatform] | None = None,
    ) -> int:
        """Try to capture the ``near_asn``-``target_asn`` peering in new
        traceroutes (both directions when vantage points allow).

        Returns the number of traces issued.  Traces are appended to
        ``corpus`` so the next CFS iteration sees them.
        """
        if platforms is None:
            platforms = [self.platforms.atlas, self.platforms.looking_glasses]
        budget = self.config.followup_traces
        issued = 0
        near_vps = self._vps_in(near_asn, platforms)
        target_vps = self._vps_in(target_asn, platforms)

        target_addresses = self.hitlist.targets_for(target_asn)
        near_addresses = self.hitlist.targets_for(near_asn)

        # Outbound: from inside the near AS toward the follow-up target,
        # crossing the near AS's egress toward that peer.
        if near_vps and target_addresses:
            for vp in self._sample(near_vps, budget):
                dst = self._rng.choice(target_addresses)
                trace = self._resilient_trace(
                    self._platform_of(vp, platforms), vp, dst
                )
                if trace is not None:
                    corpus.add(trace)
                    issued += 1
        # Inbound: from inside the target AS toward the near AS,
        # approaching the shared interconnection from the far side.
        if target_vps and near_addresses:
            for vp in self._sample(target_vps, budget):
                dst = self._rng.choice(near_addresses)
                trace = self._resilient_trace(
                    self._platform_of(vp, platforms), vp, dst
                )
                if trace is not None:
                    corpus.add(trace)
                    issued += 1
        # Fallback: random vantage points toward the target AS; some of
        # these paths transit the near AS and cross the peering.
        if not issued and target_addresses:
            for platform in platforms:
                dst = self._rng.choice(target_addresses)
                for trace in self._trace_from_sample(platform, dst, budget):
                    corpus.add(trace)
                    issued += 1
        self._obs.count("campaign.followup_probes")
        self._obs.count("campaign.followup_traces", issued)
        return issued

    def _sample(self, vps: list[VantagePoint], k: int) -> list[VantagePoint]:
        return self._rng.sample(vps, min(k, len(vps)))

    @staticmethod
    def _platform_of(
        vp: VantagePoint, platforms: list[MeasurementPlatform]
    ) -> MeasurementPlatform:
        for platform in platforms:
            if platform.name == vp.platform:
                return platform
        raise LookupError(f"no platform named {vp.platform}")


def _run_campaign_shard(
    context: tuple[CampaignDriver, list[ProbeTask]],
    indices: tuple[int, ...],
) -> dict:
    """Execute one campaign shard (:func:`repro.exec.supervised_map` worker).

    ``context`` is ``(driver, plan)``, fork-inherited; the payload is
    just the shard's plan positions.  The worker captures accounting
    baselines, runs its tasks against a private
    :class:`Instrumentation`, derives the deltas, and then **restores
    every baseline** before returning.  Restoring matters for the
    in-process serial fallback, where this function mutates the
    parent's real state: without the rewind, the parent's delta merge
    would double-count.  In a forked child the restore is moot (the
    child exits), so both paths behave identically by construction.

    Captured traces leave the worker flattened into
    :class:`repro.columnar.TraceArrays` — ``"indices"`` holds the plan
    slot of each (unresponsive probes yield no trace and no slot), and
    the parent rebuilds field-identical dataclasses from the arrays.
    """
    driver, plan = context
    engine = driver.platforms.atlas.engine
    lgs = driver.platforms.looking_glasses
    engine_base = engine.issue_baseline()
    lg_base = lgs.query_state()
    budget_base = driver.budget.counts()
    parent_obs = driver._obs
    driver._obs = Instrumentation()
    try:
        trace_indices: list[int] = []
        traces = TraceArrays()
        for index in indices:
            trace = driver._execute_task(plan[index])
            if trace is not None:
                trace_indices.append(index)
                traces.extend((trace,))
        issued, issue_deltas = engine.issue_deltas_since(engine_base)
        result = {
            "indices": tuple(trace_indices),
            "traces": traces,
            "engine": (issued, issue_deltas),
            "lg_queries": lgs.query_deltas_since(lg_base),
            "budget": driver.budget.deltas_since(budget_base),
            "metrics": driver._obs.snapshot(),
        }
    finally:
        driver._obs = parent_obs
    engine.restore_issue_state(engine_base)
    lgs.restore_query_state(lg_base)
    driver.budget.restore(budget_base)
    return result
