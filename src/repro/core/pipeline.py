"""End-to-end pipeline assembly (the paper's Figure 4).

``build_environment`` wires the full measurement stack over one
generated Internet: vantage-point platforms, hitlists, the public
datasets, the assembled facility database, the IP-to-ASN service and
the alias-resolution prober.  ``run_pipeline`` then executes the study
of Section 5: an initial traceroute campaign toward the target networks
(five content providers and five transit providers by default), followed
by the CFS loop with targeted follow-ups.

Experiments that need several CFS runs over one environment (Figure 7's
platform comparison, Figure 8's dataset degradation, the ablations)
reuse the environment and call :meth:`Environment.run_cfs` with
different knobs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..alias.midar import MidarConfig, MidarResolver
from ..datasets.cymru import CymruService
from ..datasets.dnsnames import DnsZone
from ..datasets.geolocation import GeoDatabase
from ..datasets.ixp_sources import IxpDataSources, IxpSourcesConfig
from ..datasets.noc import NocConfig, NocWebsites
from ..datasets.normalize import LocationNormalizer
from ..datasets.peeringdb import PeeringDBConfig, PeeringDBSnapshot
from ..exec import ExecFaultSpec, SupervisorConfig
from ..faults.injector import FaultInjector
from ..faults.plan import FaultPlan
from ..measurement.campaign import CampaignConfig, CampaignDriver, Hitlist, TraceCorpus
from ..measurement.ipid import IpidResponder
from ..measurement.platforms import PlatformSet, build_platforms
from ..measurement.rtt import RttModel
from ..measurement.traceroute import TracerouteEngine
from ..obs import Instrumentation
from ..topology.asn import ASRole
from ..topology.builder import TopologyConfig, build_topology
from ..sanitize import armed as sanitizer_armed
from ..topology.topology import Topology
from .cfs import CfsConfig, ConstrainedFacilitySearch
from .facility_db import FacilityDatabase
from .remote import RemotePeeringDetector
from .types import CfsResult

__all__ = ["PipelineConfig", "Environment", "PipelineResult", "build_environment", "run_pipeline", "select_targets"]


@dataclass(slots=True)
class PipelineConfig:
    """Everything needed to reproduce the Section-5 study."""

    topology: TopologyConfig = field(default_factory=TopologyConfig)
    seed: int = 0
    #: Content-provider targets (the Google/Akamai/... analogues).
    n_content_targets: int = 5
    #: Transit-provider targets (the NTT/Level3/... analogues).
    n_transit_targets: int = 5
    campaign: CampaignConfig = field(default_factory=CampaignConfig)
    cfs: CfsConfig = field(default_factory=CfsConfig)
    peeringdb: PeeringDBConfig = field(default_factory=PeeringDBConfig)
    ixp_sources: IxpSourcesConfig = field(default_factory=IxpSourcesConfig)
    noc: NocConfig = field(default_factory=NocConfig)
    #: Restrict both campaign and follow-ups to these platform names
    #: (``None`` = all four platforms).
    platform_filter: tuple[str, ...] | None = None
    #: Fault-injection plan; ``None`` builds no injector at all.  A zero
    #: plan installs the injector but perturbs nothing (byte-identical
    #: output to ``None`` — the chaos smoke test pins this down).
    faults: FaultPlan | None = None
    #: Process-pool width for the initial campaign (1 = serial); CFS
    #: always runs in process.  Output is byte-identical at any width;
    #: see ``repro/exec`` and DESIGN.md §5f for the determinism argument.
    workers: int = 1
    #: Supervisor progress deadline per shard, in seconds (``None``
    #: waits forever between completions; dead workers are still
    #: detected).  See DESIGN.md §5g.
    shard_timeout_s: float | None = None
    #: Retries per shard on a rebuilt pool before serial quarantine.
    max_shard_retries: int = 2
    #: Directory for crash-safe stage checkpoints (``None`` = no
    #: checkpointing).
    checkpoint_dir: str | None = None
    #: Load intact stages from ``checkpoint_dir`` instead of
    #: recomputing them (requires ``checkpoint_dir``).
    resume: bool = False
    #: Run with the reprosan runtime sanitizer armed (write tripwires,
    #: RNG provenance assertions); a transient knob — it never changes
    #: output bytes, so it is excluded from the config fingerprint.
    sanitize: bool = False

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(
                f"workers must be at least 1, got {self.workers}"
            )
        if self.shard_timeout_s is not None and self.shard_timeout_s <= 0:
            raise ValueError(
                f"shard_timeout_s must be positive, got {self.shard_timeout_s}"
            )
        if self.max_shard_retries < 0:
            raise ValueError(
                f"max_shard_retries must not be negative, "
                f"got {self.max_shard_retries}"
            )
        if self.resume and self.checkpoint_dir is None:
            raise ValueError("resume=True requires checkpoint_dir")

    @classmethod
    def small(cls, seed: int = 0, workers: int = 1) -> "PipelineConfig":
        """Test-sized pipeline: small Internet, fewer probes."""
        return cls(
            topology=TopologyConfig.small(seed=seed + 1),
            seed=seed,
            campaign=CampaignConfig(
                atlas_sample_per_target=12,
                lg_sample_per_target=5,
                archive_targets_per_node=8,
                followup_traces=3,
            ),
            cfs=CfsConfig(max_iterations=60, followup_budget=10),
            workers=workers,
        )

    @classmethod
    def default(cls, seed: int = 0, workers: int = 1) -> "PipelineConfig":
        """Benchmark-sized pipeline (the figures are produced at this
        scale)."""
        return cls(
            topology=TopologyConfig(seed=seed + 1), seed=seed, workers=workers
        )

    @classmethod
    def large(cls, seed: int = 0, workers: int = 1) -> "PipelineConfig":
        """Stress-sized pipeline over the large generated Internet."""
        return cls(
            topology=TopologyConfig.large(seed=seed + 1),
            seed=seed,
            workers=workers,
        )

    @classmethod
    def xlarge(cls, seed: int = 0, workers: int = 1) -> "PipelineConfig":
        """Scale-out pipeline: ≥10⁶ planned traces.

        Sixty study targets over the double-size Internet, with sample
        widths cranked until the initial campaign plans more than a
        million traceroutes (1,064,240 at seed 0), sized for measuring
        the workers-vs-serial speedup curve where the per-fork overhead
        is smallest relative to the work.  Only the campaign runs on
        the pool (CFS stays in process, DESIGN.md §5f); whether forking
        wins at this scale has not been measured.
        """
        return cls(
            topology=TopologyConfig.xlarge(seed=seed + 1),
            seed=seed,
            n_content_targets=20,
            n_transit_targets=40,
            campaign=CampaignConfig(
                atlas_sample_per_target=600,
                lg_sample_per_target=200,
                archive_targets_per_node=40,
            ),
            workers=workers,
        )

    #: Named scales accepted by :meth:`for_scale` (and the CLI).
    SCALES = ("small", "default", "large", "xlarge")

    @classmethod
    def for_scale(
        cls, scale: str, seed: int = 0, workers: int = 1
    ) -> "PipelineConfig":
        """The configuration for one named scale.

        Every scale routes through its constructor classmethod, so the
        topology/campaign/CFS knobs are consistent by construction —
        nothing mutates a config after the fact.
        """
        factories = {
            "small": cls.small,
            "default": cls.default,
            "large": cls.large,
            "xlarge": cls.xlarge,
        }
        try:
            factory = factories[scale]
        except KeyError:
            raise ValueError(
                f"unknown scale {scale!r}; expected one of {cls.SCALES}"
            ) from None
        return factory(seed=seed, workers=workers)


def select_targets(
    topology: Topology, n_content: int, n_transit: int
) -> list[int]:
    """The study targets: largest CDNs plus largest transit backbones,
    mirroring the paper's choice of networks carrying most traffic."""
    content = sorted(
        (a for a in topology.ases.values() if a.role is ASRole.CONTENT),
        key=lambda a: (-len(a.facility_ids), a.asn),
    )
    transit = sorted(
        (
            a
            for a in topology.ases.values()
            if a.role in (ASRole.TIER1, ASRole.TRANSIT)
        ),
        key=lambda a: (a.role is not ASRole.TIER1, -len(a.facility_ids), a.asn),
    )
    chosen = content[:n_content] + transit[:n_transit]
    return [a.asn for a in chosen]


@dataclass(slots=True)
class Environment:
    """One fully wired measurement stack over one generated Internet."""

    config: PipelineConfig
    topology: Topology
    rtt_model: RttModel
    engine: TracerouteEngine
    platforms: PlatformSet
    hitlist: Hitlist
    peeringdb: PeeringDBSnapshot
    noc: NocWebsites
    ixp_sources: IxpDataSources
    normalizer: LocationNormalizer
    facility_db: FacilityDatabase
    cymru: CymruService
    ipid_responder: IpidResponder
    dns: DnsZone
    geodb: GeoDatabase
    target_asns: list[int]
    #: The chaos layer wired through engine/platforms/MIDAR, or ``None``
    #: when the config declared no fault plan.
    fault_injector: FaultInjector | None = None

    # ------------------------------------------------------------------

    def supervision(self) -> SupervisorConfig:
        """The executor supervision policy this config asks for."""
        return SupervisorConfig(
            shard_timeout_s=self.config.shard_timeout_s,
            max_retries=self.config.max_shard_retries,
        )

    def exec_fault_spec(self) -> ExecFaultSpec | None:
        """Seeded executor-fault intensities from the fault plan.

        ``None`` when no injector is installed or neither worker fault
        class is enabled.  Injected hangs sleep 1.5× the shard deadline
        (so they reliably trip it); without a deadline they degrade to a
        harmless 50 ms pause rather than stalling the run.
        """
        injector = self.fault_injector
        if injector is None or not injector.plan.perturbs_workers:
            return None
        timeout = self.config.shard_timeout_s
        return ExecFaultSpec(
            crash=injector.plan.worker_crash,
            hang=injector.plan.worker_hang,
            hang_s=1.5 * timeout if timeout is not None else 0.05,
            seed=injector.seed,
        )

    def new_driver(
        self,
        seed_offset: int = 0,
        instrumentation: Instrumentation | None = None,
    ) -> CampaignDriver:
        """A fresh campaign driver (deterministic per offset)."""
        return CampaignDriver(
            self.platforms,
            self.hitlist,
            config=self.config.campaign,
            seed=self.config.seed + 1000 + seed_offset,
            instrumentation=instrumentation,
            workers=self.config.workers,
            supervision=self.supervision(),
            exec_faults=self.exec_fault_spec(),
        )

    def new_midar(
        self, instrumentation: Instrumentation | None = None
    ) -> MidarResolver:
        """A fresh MIDAR front-end over the shared IP-ID responder."""
        return MidarResolver(
            self.ipid_responder,
            config=MidarConfig(),
            instrumentation=instrumentation,
            fault_injector=self.fault_injector,
        )

    def platform_list(self, names: tuple[str, ...] | None):
        """Platform objects matching ``names`` (None = all)."""
        all_platforms = self.platforms.all_platforms()
        if names is None:
            return all_platforms
        return [p for p in all_platforms if p.name in names]

    def remote_detector(self) -> RemotePeeringDetector:
        """The delay-based remote-peering test tuned to the RTT model."""
        return RemotePeeringDetector(
            metro_local_bound_ms=self.rtt_model.metro_local_bound_ms()
        )

    # ------------------------------------------------------------------

    def run_campaign(
        self,
        platform_filter: tuple[str, ...] | None = None,
        seed_offset: int = 0,
        instrumentation: Instrumentation | None = None,
    ) -> TraceCorpus:
        """The initial Section-5 campaign, optionally platform-filtered."""
        driver = self.new_driver(seed_offset, instrumentation=instrumentation)
        corpus = driver.initial_campaign(self.target_asns)
        names = platform_filter
        if names is None:
            return corpus
        filtered = TraceCorpus()
        filtered.extend([t for t in corpus.traces if t.platform in names])
        return filtered

    def run_cfs(
        self,
        corpus: TraceCorpus,
        cfs_config: CfsConfig | None = None,
        facility_db: FacilityDatabase | None = None,
        platform_filter: tuple[str, ...] | None = None,
        with_followups: bool = True,
        seed_offset: int = 0,
        with_alias_resolution: bool = True,
        instrumentation: Instrumentation | None = None,
    ) -> CfsResult:
        """One CFS run over ``corpus`` with optional knob overrides.

        ``instrumentation`` is shared by the loop, the classifier, the
        MIDAR front-end and the follow-up driver, so one
        ``CfsResult.metrics`` snapshot covers the whole run.
        """
        database = facility_db or self.facility_db
        obs = instrumentation or Instrumentation()
        driver = (
            self.new_driver(seed_offset + 1, instrumentation=obs)
            if with_followups
            else None
        )
        search = ConstrainedFacilitySearch(
            facility_db=database,
            ip_to_asn=self.cymru,
            alias_resolver=(
                self.new_midar(instrumentation=obs)
                if with_alias_resolution
                else None
            ),
            driver=driver,
            remote_detector=self.remote_detector(),
            config=cfs_config or self.config.cfs,
            instrumentation=obs,
        )
        platforms = self.platform_list(platform_filter)
        return search.run(corpus, platforms=platforms)


@dataclass(slots=True)
class PipelineResult:
    """Environment, corpus and the CFS outcome of one full run."""

    environment: Environment
    corpus: TraceCorpus
    cfs_result: CfsResult

    @property
    def topology(self) -> Topology:
        """The ground-truth topology behind this run."""
        return self.environment.topology


def build_environment(config: PipelineConfig | None = None) -> Environment:
    """Wire the full Figure-4 stack for one generated Internet."""
    config = config or PipelineConfig()
    seed = config.seed
    topology = build_topology(config.topology)
    injector = (
        FaultInjector(config.faults, seed=seed + 21)
        if config.faults is not None
        else None
    )
    rtt_model = RttModel(seed=seed + 11)
    engine = TracerouteEngine(
        topology, rtt_model=rtt_model, seed=seed + 12, fault_injector=injector
    )
    platforms = build_platforms(topology, engine, seed=seed + 13)
    if injector is not None:
        # Live platforms only: archives are replayed corpora, immune to
        # vantage-point outages (engine-level hop faults still apply).
        platforms.atlas.fault_injector = injector
        platforms.looking_glasses.fault_injector = injector
    hitlist = Hitlist(topology)
    peeringdb = PeeringDBSnapshot.build(topology, config.peeringdb, seed=seed + 14)
    if injector is not None:
        peeringdb = injector.corrupt_peeringdb(peeringdb)
    noc = NocWebsites.build(topology, config.noc, seed=seed + 15)
    ixp_sources = IxpDataSources.build(
        topology,
        peeringdb.ixp_prefixes(),
        {ixp_id: peeringdb.members_of_ixp(ixp_id) for ixp_id in topology.ixps},
        config.ixp_sources,
        seed=seed + 16,
    )
    normalizer = LocationNormalizer(topology.metros)
    facility_db = FacilityDatabase.assemble(
        peeringdb,
        noc,
        ixp_sources,
        normalizer,
        topology.facilities,
        topology.operators,
    )
    cymru = CymruService(topology, seed=seed + 17)
    responder = IpidResponder(topology, seed=seed + 18)
    dns = DnsZone(topology, seed=seed + 19)
    geodb = GeoDatabase(topology, seed=seed + 20)
    targets = select_targets(
        topology, config.n_content_targets, config.n_transit_targets
    )
    return Environment(
        config=config,
        topology=topology,
        rtt_model=rtt_model,
        engine=engine,
        platforms=platforms,
        hitlist=hitlist,
        peeringdb=peeringdb,
        noc=noc,
        ixp_sources=ixp_sources,
        normalizer=normalizer,
        facility_db=facility_db,
        cymru=cymru,
        ipid_responder=responder,
        dns=dns,
        geodb=geodb,
        target_asns=targets,
        fault_injector=injector,
    )


def _open_store(
    config: PipelineConfig,
    environment: Environment,
    instrumentation: Instrumentation | None,
    progress,
):
    """The run's checkpoint store, with the topology stage verified.

    Returns ``None`` when the config asks for no checkpointing.  A
    resumed store whose topology stage disagrees with the rebuilt
    topology is invalidated wholesale — every later stage derives from
    the topology, so none can be trusted.
    """
    from ..checkpoint import (
        CheckpointStore,
        config_fingerprint,
        encode_topology_stage,
    )

    if config.checkpoint_dir is None:
        return None
    store = CheckpointStore(
        config.checkpoint_dir,
        config_fingerprint(config),
        instrumentation=instrumentation,
        warn=progress,
    )
    topology_stage = encode_topology_stage(environment.topology)
    if config.resume:
        checkpointed = store.load_stage("topology")
        if checkpointed is not None and checkpointed != topology_stage:
            store.invalidate("checkpointed topology does not match config")
    store.write_stage("topology", topology_stage)
    return store


def run_pipeline(
    config: PipelineConfig | None = None,
    instrumentation: Instrumentation | None = None,
    progress=None,
) -> PipelineResult:
    """Build an environment, run the campaign, run CFS.

    With ``config.checkpoint_dir`` set, each completed stage (topology
    digest, campaign corpus + measurement accounting, alias sets, CFS
    result) is durably checkpointed as it finishes; with
    ``config.resume`` also set, intact stages are loaded instead of
    recomputed — and because every stage is deterministic in the
    config, a resumed run's output is byte-identical to an
    uninterrupted one whether a stage was loaded or recomputed.
    Corrupt or missing stages degrade to recompute with a warning.

    ``progress(message)`` receives human-readable stage notices
    (``None`` silences them).

    One caveat on a *fully* resumed run (CFS stage loaded from disk):
    :attr:`PipelineResult.corpus` holds the initial campaign only — the
    follow-up traces CFS appended live inside the loaded result, not
    the corpus.  The exported map, the thing the byte-identity
    guarantee covers, is unaffected.

    With ``config.sanitize`` set, the stages run with the reprosan
    runtime sanitizer armed (see :mod:`repro.sanitize`): RNG substreams
    carry provenance tags asserted at draw chokepoints, and write
    tripwires guard published state.  The sanitizer never changes
    output bytes; a violation raises :class:`SanitizerViolation` and is
    recorded as a ``sanitizer.violation`` event on ``instrumentation``.
    """
    environment = build_environment(config)
    if not environment.config.sanitize:
        return _pipeline_stages(environment, instrumentation, progress)
    with sanitizer_armed(instrumentation):
        return _pipeline_stages(environment, instrumentation, progress)


def _pipeline_stages(
    environment: "Environment",
    instrumentation: Instrumentation | None,
    progress,
) -> "PipelineResult":
    """The checkpointed stage sequence behind :func:`run_pipeline`."""
    from ..checkpoint import (
        decode_alias_stage,
        decode_campaign_stage,
        decode_cfs_stage,
        encode_alias_stage,
        encode_campaign_stage,
        encode_cfs_stage,
    )

    def notify(message: str) -> None:
        if progress is not None:
            progress(message)

    effective = environment.config
    if instrumentation is not None and environment.fault_injector is not None:
        # Fault counters land on the run's metrics snapshot.
        environment.fault_injector.instrumentation = instrumentation
    store = _open_store(effective, environment, instrumentation, progress)

    corpus = None
    if store is not None and effective.resume:
        payload = store.load_stage("campaign")
        if payload is not None:
            try:
                traces, issues, queries = decode_campaign_stage(payload)
            except (KeyError, TypeError, ValueError) as error:
                notify(f"checkpoint: campaign stage undecodable ({error}); recomputing")
            else:
                environment.engine.restore_issue_state(issues)
                environment.platforms.looking_glasses.restore_query_state(
                    queries
                )
                corpus = TraceCorpus()
                corpus.extend(traces)
                notify(f"resume: loaded campaign stage ({len(corpus)} traces)")
    if corpus is None:
        corpus = environment.run_campaign(
            effective.platform_filter, instrumentation=instrumentation
        )
        if store is not None:
            store.write_stage(
                "campaign",
                encode_campaign_stage(
                    corpus.traces,
                    environment.engine.issue_baseline(),
                    environment.platforms.looking_glasses.query_state(),
                ),
            )
            notify(f"checkpoint: campaign stage written ({len(corpus)} traces)")

    result = None
    if store is not None and effective.resume:
        payload = store.load_stage("cfs")
        if payload is not None:
            alias_sets = None
            alias_payload = store.load_stage("alias")
            if alias_payload is not None:
                try:
                    alias_sets = decode_alias_stage(alias_payload)
                except (KeyError, TypeError, ValueError) as error:
                    notify(f"checkpoint: alias stage undecodable ({error})")
            try:
                result = decode_cfs_stage(payload, alias_sets=alias_sets)
            except (KeyError, TypeError, ValueError) as error:
                notify(f"checkpoint: cfs stage undecodable ({error}); recomputing")
                result = None
            else:
                notify(
                    f"resume: loaded cfs stage "
                    f"({len(result.interfaces)} interfaces)"
                )
    if result is None:
        result = environment.run_cfs(
            corpus,
            platform_filter=effective.platform_filter,
            instrumentation=instrumentation,
        )
        if store is not None:
            store.write_stage("alias", encode_alias_stage(result.alias_sets))
            store.write_stage("cfs", encode_cfs_stage(result))
            notify(
                f"checkpoint: cfs stage written "
                f"({len(result.interfaces)} interfaces)"
            )
    return PipelineResult(
        environment=environment, corpus=corpus, cfs_result=result
    )
