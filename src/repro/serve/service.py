"""The always-on map service: epoch ingest loop and snapshot lifecycle.

:class:`MapService` turns the batch pipeline into a long-lived daemon.
The initial campaign's probe plan — every sampling decision already
drawn — is partitioned into contiguous epochs that execute in plan
order, simulating a continuous traceroute feed.  After each epoch the
accumulated traces are folded into the incremental search state
(:class:`~repro.serve.ingest.StreamingCfs`), an interim
:class:`~repro.serve.snapshot.MapSnapshot` is built, durably published
through the checkpoint store (PR 5), and atomically swapped into the
read path (:class:`~repro.serve.query.QueryEngine`).  When the stream
is exhausted, a full CFS convergence pass — identical seeds and
substrates to the batch pipeline — produces the **final** snapshot,
whose fingerprint is byte-identical to a one-shot
:func:`repro.core.pipeline.run_pipeline` of the same config.

Snapshot lifecycle and versioning:

* each published snapshot is immutable and carries a content
  fingerprint (sha256 of its canonical map document, epoch metadata
  excluded);
* the durable copy lands in the checkpoint store as stage
  ``snapshot-epoch-<k>`` (or ``snapshot-final``), and the manifest's
  sha256 of that stage file is the snapshot's **watermark** — equal
  watermarks mean byte-identical durable payloads;
* the read path holds exactly one snapshot reference; a publish swaps
  it with a single assignment, so queries never observe a torn map.

Crash recovery: the stream checkpoint is append-only.  After epoch
``k`` the service writes one stage, ``stream-epoch-<k>``, holding only
that epoch's arrived traces plus the accounting the epoch changed (the
engine's issue-count deltas and the looking-glass query ledger, in the
campaign codec's layout), then rewrites the small ``stream`` index:
epoch count, fold boundaries, planned slice sizes and the sha256 of
every epoch stage in order.  The index is the commit record — an epoch
stage it does not list by digest is never read — so each epoch costs
what it adds, never the whole corpus again.  A restart with
``resume=True`` validates the index against its own plan, checks and
decodes every listed epoch stage before it touches any state, then
absorbs each epoch's accounting and replays the fold epoch by epoch —
reproducing the ingest state exactly — and re-publishes the last
epoch's snapshot before continuing the stream.  Any stage that is
missing, differs from its digest, fails to decode or disagrees with the
boundaries degrades to a fresh stream, and a stream (fresh or resumed)
drops the epoch stages at and past its start epoch that an earlier,
longer stream in the same directory left behind.  Probe-
perturbing fault plans disable stream resume (their failure draws come
from sequential per-run RNG streams that a restored engine cannot
replay), as does a probe-budget cap (the restarted driver's budget
ledger would restart at zero); both degrade to a fresh stream with a
warning, never a crash.  Epoch-level fault perturbations need no new
machinery: probes execute through the same engine and platforms the
injector is wired into, so outages and timeouts simply land on
whichever epoch's probes were in flight.

Resilience: every epoch execution and every durable publish runs under
the :class:`~repro.serve.supervise.ServiceSupervisor` — bounded
retries, poisoned-epoch quarantine (the service keeps answering from
the last good snapshot), publish-time integrity re-verification with
rollback — and the service's :class:`~repro.serve.health.ServiceHealth`
state machine (``ok``/``degraded``/``stale``/``recovering``) is
exposed through the ``health`` query verb and
:meth:`ServiceHandle.health`.  Service-layer fault plans
(``epoch_fail``/``snapshot_corrupt``) disable the mid-stream
checkpoint and resume: quarantine makes arrival order diverge from
plan order, which the stream stage's boundary bookkeeping assumes.
Quarantined epochs are drained injection-free once the stream ends and
the final convergence pass folds the full corpus in plan order, so the
final fingerprint still matches the fault-free batch run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from ..checkpoint import (
    CheckpointStore,
    config_fingerprint,
    decode_campaign_stage,
    encode_campaign_stage,
)
from ..checkpoint.stages import IssueState
from ..core.pipeline import (
    Environment,
    PipelineConfig,
    _open_store,
    build_environment,
)
from ..core.facility_db import FacilityDatabase
from ..inference.disruption import DisruptionDetector, DisruptionPolicy
from ..measurement.campaign import TraceCorpus
from ..measurement.traceroute import Traceroute
from ..obs import Instrumentation
from ..topology.churn import ChurnPlan, ChurnView, censor_trace, lagged_membership
from .health import HealthPolicy, ServiceHealth, snapshot_data_health
from .ingest import StreamingCfs, slice_epochs
from .query import QueryEngine
from .snapshot import MapSnapshot, build_snapshot, diff_snapshots
from .supervise import ServicePolicy, ServiceSupervisor

__all__ = ["MapService", "ServiceHandle"]

#: Checkpoint stage indexing the mid-stream resume state (the commit
#: record: epoch count, boundaries, slice sizes, epoch-stage digests).
STREAM_STAGE = "stream"
#: Name prefix of the per-epoch stages the index lists by digest.
STREAM_EPOCH_PREFIX = "stream-epoch-"


def _clean_int(value: Any) -> bool:
    """A genuine int — explicitly not a bool.

    A tampered stream stage carrying ``"epoch": true`` passes a naive
    ``isinstance(value, int)`` check (``bool`` subclasses ``int``) and
    then resumes from "epoch 1" that never ran; every count restored
    from a checkpoint goes through this instead.
    """
    return isinstance(value, int) and not isinstance(value, bool)


def _stream_shape_valid(
    epochs_done: Any, boundaries: Any, digests: Any
) -> bool:
    """Whether a stream index's epoch/boundary/digest bookkeeping is
    coherent.

    Boundaries are cumulative corpus sizes per completed epoch, so they
    must be genuine non-negative ints, non-decreasing (an epoch may
    fold zero traces, never remove any), one per completed epoch; so is
    one digest string per completed epoch.
    """
    return (
        _clean_int(epochs_done)
        and epochs_done >= 1
        and isinstance(boundaries, list)
        and len(boundaries) == epochs_done
        and all(_clean_int(b) and b >= 0 for b in boundaries)
        and all(
            boundaries[i] <= boundaries[i + 1]
            for i in range(len(boundaries) - 1)
        )
        and isinstance(digests, list)
        and len(digests) == epochs_done
        and all(isinstance(digest, str) for digest in digests)
    )


@dataclass(slots=True)
class ServiceHandle:
    """Typed result of one service run (the ``repro.api`` return type).

    Holds the published history and the live query engine; ``final`` is
    ``None`` when the stream was paused mid-way (``stop_after_epoch``).
    """

    #: The service that produced this handle (query engine, environment
    #: and checkpoint store remain live on it).
    service: "MapService"
    #: Every snapshot published by this run, in publish order.
    snapshots: list[MapSnapshot] = field(default_factory=list)
    #: The converged final snapshot, or ``None`` if the stream paused.
    final: MapSnapshot | None = None
    #: Whether this run restored mid-stream state from a checkpoint.
    resumed: bool = False

    @property
    def environment(self) -> Environment:
        """The simulated-Internet substrate behind the service."""
        return self.service.environment

    def query(self, line: str) -> dict[str, Any]:
        """Answer one query line against the live snapshot."""
        return self.service.engine.execute(line)

    def health(self) -> dict[str, Any]:
        """The service's health document (state, staleness, incidents)."""
        return self.service.health.report(self.service.engine.current())


class MapService:
    """A long-lived map service over one pipeline configuration."""

    def __init__(
        self,
        config: PipelineConfig | None = None,
        *,
        instrumentation: Instrumentation | None = None,
        progress: Callable[[str], None] | None = None,
        policy: ServicePolicy | None = None,
        disruption_policy: DisruptionPolicy | None = None,
    ) -> None:
        self._obs = instrumentation or Instrumentation()
        #: Thresholds for the churned-stream disruption detector.
        self.disruption_policy = disruption_policy or DisruptionPolicy()
        #: The live detector; populated by churned runs, ``None`` before.
        self.detector: DisruptionDetector | None = None
        self._progress = progress
        self.environment = build_environment(config)
        self.config = self.environment.config
        if (
            instrumentation is not None
            and self.environment.fault_injector is not None
        ):
            self.environment.fault_injector.instrumentation = instrumentation
        #: Supervision knobs (retry budgets, retention, staleness).
        self.policy = policy or ServicePolicy()
        #: The health state machine behind the ``health`` query verb.
        self.health = ServiceHealth(
            instrumentation=self._obs,
            policy=HealthPolicy(stale_after=self.policy.stale_after),
        )
        #: The read path; live across the whole service lifetime.
        self.engine = QueryEngine(self._obs, health=self.health)
        #: Durable store (``None`` without ``config.checkpoint_dir``).
        self.store: CheckpointStore | None = _open_store(
            self.config, self.environment, instrumentation, progress
        )
        #: The resilience envelope around epoch ingest and publishes;
        #: replaced per :meth:`run_stream` call so quarantine state and
        #: the retention ring are per-run.
        self.supervisor = self._new_supervisor()

    def _new_supervisor(self) -> ServiceSupervisor:
        return ServiceSupervisor(
            self,
            policy=self.policy,
            health=self.health,
            instrumentation=self._obs,
            notify=self._notify,
        )

    # ------------------------------------------------------------------

    def _notify(self, message: str) -> None:
        if self._progress is not None:
            self._progress(message)

    def _stream_resumable(self) -> bool:
        """Whether mid-stream resume is sound under this config."""
        injector = self.environment.fault_injector
        if injector is not None and injector.plan.perturbs_probes:
            self._notify(
                "serve: probe-perturbing faults installed; "
                "stream resume disabled (fresh stream)"
            )
            return False
        if injector is not None and injector.plan.perturbs_serve:
            self._notify(
                "serve: service-layer faults installed; "
                "stream resume disabled (fresh stream)"
            )
            return False
        if self.config.campaign.resilience.max_probes is not None:
            self._notify(
                "serve: probe budget capped; stream resume disabled "
                "(fresh stream)"
            )
            return False
        return True

    def _try_resume(
        self,
        task_sizes: list[int],
        fold: StreamingCfs,
        corpus: TraceCorpus,
    ) -> tuple[int, MapSnapshot | None, list[int]]:
        """Restore mid-stream state from the ``stream`` index and the
        epoch stages it lists.

        Returns ``(epochs_done, last_snapshot, boundaries)`` —
        ``(0, None, [])`` when there is nothing (or nothing trustworthy)
        to restore.  Every listed epoch stage is digest-checked and
        decoded before anything is mutated, so a refused checkpoint
        leaves the engines untouched.  The fold is then replayed epoch
        by epoch along the recorded boundaries, so the restored ingest
        state is identical to the state the interrupted run held after
        its last completed epoch.
        """
        nothing = (0, None, [])
        if self.store is None or not self.config.resume:
            return nothing
        payload = self.store.load_stage(STREAM_STAGE)
        if payload is None:
            return nothing
        if not self._stream_resumable():
            return nothing
        if not isinstance(payload, dict):
            self._notify(
                "serve: stream stage has an unknown layout; starting fresh"
            )
            return nothing
        recorded_sizes = payload.get("task_sizes")
        if recorded_sizes != task_sizes:
            self._notify(
                "serve: checkpointed stream was planned differently "
                "(epochs or config changed); starting fresh"
            )
            return nothing
        epochs_done = payload.get("epoch")
        boundaries = payload.get("boundaries")
        digests = payload.get("epoch_digests")
        if not _stream_shape_valid(epochs_done, boundaries, digests):
            self._notify(
                "serve: stream stage has an unknown layout; starting fresh"
            )
            return nothing
        epochs = []
        start = 0
        for epoch, (boundary, digest) in enumerate(zip(boundaries, digests)):
            name = f"{STREAM_EPOCH_PREFIX}{epoch}"
            stage = (
                self.store.load_stage(name)
                if self.store.stage_digest(name) == digest
                else None
            )
            if stage is None:
                self._notify(
                    f"serve: {name} is missing or differs from the stream "
                    "index; starting fresh"
                )
                return nothing
            try:
                traces, issues, queries = decode_campaign_stage(stage)
            except (KeyError, TypeError, ValueError) as error:
                self._notify(
                    f"serve: {name} undecodable ({error}); starting fresh"
                )
                return nothing
            if len(traces) != boundary - start:
                self._notify(
                    "serve: stream stage boundaries disagree with its "
                    "corpus; starting fresh"
                )
                return nothing
            epochs.append((traces, issues))
            start = boundary
        engine = self.environment.engine
        for traces, issues in epochs:
            engine.absorb_issue_deltas(*issues)
            corpus.extend(traces)
            fold.fold(traces)
        # Each epoch stage carries the whole ledger; the last one wins.
        self.environment.platforms.looking_glasses.restore_query_state(queries)
        snapshot = self._interim_snapshot(fold, epochs_done - 1)
        self._obs.count("ingest.resumes")
        self._obs.emit(
            "ingest.resume",
            epoch=epochs_done,
            traces=len(corpus),
            fingerprint=snapshot.fingerprint,
        )
        self._notify(
            f"serve: resumed after epoch {epochs_done} "
            f"({len(corpus)} traces restored)"
        )
        return epochs_done, snapshot, list(boundaries)

    def _checkpoint_epoch(
        self, epoch: int, arrived: list[Traceroute], issues: IssueState
    ) -> IssueState:
        """Write ``stream-epoch-<epoch>``: the epoch's arrivals, the
        issue counts added since ``issues`` and the looking-glass
        ledger.  Returns the accounting the next epoch diffs against.
        """
        engine = self.environment.engine
        self.store.write_stage(
            f"{STREAM_EPOCH_PREFIX}{epoch}",
            encode_campaign_stage(
                arrived,
                engine.issue_deltas_since(issues),
                self.environment.platforms.looking_glasses.query_state(),
            ),
        )
        return engine.issue_baseline()

    def _commit_stream(
        self, epochs_done: int, boundaries: list[int], task_sizes: list[int]
    ) -> None:
        """Rewrite the ``stream`` index, naming by digest every epoch
        stage a resume may read."""
        self.store.write_stage(
            STREAM_STAGE,
            {
                "epoch": epochs_done,
                "boundaries": list(boundaries),
                "task_sizes": list(task_sizes),
                "epoch_digests": [
                    self.store.stage_digest(f"{STREAM_EPOCH_PREFIX}{epoch}")
                    for epoch in range(epochs_done)
                ],
            },
        )

    def _drop_stale_epoch_stages(self, start_epoch: int) -> None:
        """Retire epoch stages at or past ``start_epoch``.

        This stream rewrites those epochs; until it does, a stage left
        by an earlier, longer stream in the same directory would linger
        in the manifest (never read: no index lists it by digest).
        """
        for name in self.store.stage_names():
            if not name.startswith(STREAM_EPOCH_PREFIX):
                continue
            suffix = name[len(STREAM_EPOCH_PREFIX):]
            if suffix.isdigit() and int(suffix) >= start_epoch:
                self.store.drop_stage(name)

    def _interim_snapshot(self, fold: StreamingCfs, epoch: int) -> MapSnapshot:
        return build_snapshot(
            fold.interim_result(),
            epoch=epoch,
            final=False,
            seed=self.config.seed,
            config_fingerprint=config_fingerprint(self.config),
            traces_ingested=fold.traces_folded,
        )

    # ------------------------------------------------------------------

    def run_stream(
        self,
        epochs: int = 4,
        *,
        stop_after_epoch: int | None = None,
        churn: ChurnPlan | None = None,
    ) -> ServiceHandle:
        """Ingest the streamed campaign and publish snapshots.

        Executes the initial campaign's plan in ``epochs`` contiguous
        slices, publishing one interim snapshot per epoch, then runs
        the full convergence pass and publishes the final snapshot
        (fingerprint-identical to the batch pipeline's map).

        ``stop_after_epoch=k`` pauses the service after epoch ``k``'s
        snapshot is published (simulating a crash/shutdown mid-stream);
        the returned handle then has ``final=None`` and a later service
        with ``resume=True`` picks up from the checkpoint.

        ``churn`` switches the service into the **temporal** mode: the
        world moves under the stream according to the
        :class:`~repro.topology.churn.ChurnPlan`, each epoch re-plans
        and re-executes the full campaign against the churned reality,
        and the disruption detector watches the published snapshots.
        Passing ``churn=None`` (the default) runs the classic
        pre-sliced stream, bit-for-bit identical to before this mode
        existed — the two paths share no per-epoch state.
        """
        if churn is not None:
            return self._run_churned_stream(churn, epochs, stop_after_epoch)
        env = self.environment
        config = self.config
        obs = self._obs
        handle = ServiceHandle(service=self)
        names = config.platform_filter
        supervisor = self.supervisor = self._new_supervisor()
        injector = env.fault_injector
        # Quarantine makes arrival order diverge from plan order, which
        # the stream stage's boundary bookkeeping assumes — under
        # service-layer faults the mid-stream checkpoint is skipped
        # (resume is already disabled by ``_stream_resumable``).
        stream_checkpointing = self.store is not None and not (
            injector is not None and injector.plan.perturbs_serve
        )

        driver = env.new_driver(0, instrumentation=obs)
        plan = driver.plan_initial_campaign(env.target_asns)
        slices = slice_epochs(plan, epochs)
        task_sizes = [len(s) for s in slices]
        fold = StreamingCfs(env, instrumentation=obs)
        corpus = TraceCorpus()  # filtered traces, arrival order
        executed_total = 0
        #: epoch -> that epoch's filtered traces; the final convergence
        #: input is assembled from this in *plan* order, so a drained
        #: quarantined epoch lands exactly where the batch run put it.
        per_epoch: dict[int, list[Traceroute]] = {}

        start_epoch, resumed_snapshot, boundaries = self._try_resume(
            task_sizes, fold, corpus
        )
        restored_total = len(corpus)  # traces restored, 0 on fresh streams
        if start_epoch:
            handle.resumed = True
            assert resumed_snapshot is not None
            supervisor.publish(
                resumed_snapshot, f"snapshot-epoch-{start_epoch - 1}"
            )
            handle.snapshots.append(resumed_snapshot)
        if stream_checkpointing:
            self._drop_stale_epoch_stages(start_epoch)
        issues = env.engine.issue_baseline()

        for epoch in range(start_epoch, len(slices)):
            obs.count("ingest.epochs")
            obs.emit(
                "ingest.epoch.begin", epoch=epoch, probes=len(slices[epoch])
            )
            executed = supervisor.ingest_epoch(driver, epoch, slices[epoch])
            if executed is None:
                # Quarantined: nothing folds, the last good snapshot
                # keeps serving; the epoch is drained after the stream.
                continue
            executed_total += len(executed)
            arrived: list[Traceroute] = (
                executed
                if names is None
                else [t for t in executed if t.platform in names]
            )
            per_epoch[epoch] = arrived
            corpus.extend(arrived)
            fold.fold(arrived)
            boundaries.append(len(corpus))
            snapshot = self._interim_snapshot(fold, epoch)
            published = supervisor.publish(snapshot, f"snapshot-epoch-{epoch}")
            if stream_checkpointing:
                issues = self._checkpoint_epoch(epoch, arrived, issues)
            if published:
                handle.snapshots.append(snapshot)
                if stream_checkpointing:
                    self._commit_stream(epoch + 1, boundaries, task_sizes)
            obs.emit(
                "ingest.epoch.done",
                epoch=epoch,
                traces=len(arrived),
                total=len(corpus),
                fingerprint=snapshot.fingerprint,
                published=published,
            )
            if published:
                self._notify(
                    f"serve: epoch {epoch} published "
                    f"({len(arrived)} traces, {len(corpus)} total)"
                )
            if stop_after_epoch is not None and epoch >= stop_after_epoch:
                self._notify(f"serve: paused after epoch {epoch}")
                return handle

        # Drain quarantined epochs (injection-free) so the final
        # convergence pass sees the full corpus.
        for epoch in list(supervisor.quarantined):
            executed = supervisor.drain_epoch(driver, epoch, slices[epoch])
            executed_total += len(executed)
            per_epoch[epoch] = (
                executed
                if names is None
                else [t for t in executed if t.platform in names]
            )

        obs.emit(
            "ingest.stream.end",
            epochs=len(slices),
            traces=len(corpus),
            quarantined=len(supervisor.quarantined),
        )
        # Parity with the batch campaign's closing accounting.  Resumed
        # runs restored the corpus rather than re-probing, so their
        # executed counts cover only the replayed-forward epochs; the
        # restored trace count rides along so totals still reconcile.
        obs.count("campaign.initial_traces", executed_total)
        obs.emit(
            "campaign.initial",
            targets=len(env.target_asns),
            traces=executed_total,
            archives=True,
            restored=restored_total,
        )
        driver.budget.check()
        obs.emit("campaign.budget", **driver.budget.as_dict())

        # Full convergence over a copy: follow-ups must not pollute the
        # accumulated stream corpus (which the epoch stages checkpointed).
        # Assembled in plan order — restored prefix, then each executed
        # or drained epoch — which equals arrival order whenever nothing
        # was quarantined.
        final_input = TraceCorpus()
        final_input.extend(corpus.traces[:restored_total])
        for epoch in sorted(per_epoch):
            final_input.extend(per_epoch[epoch])
        total_streamed = len(final_input)
        result = env.run_cfs(
            final_input,
            platform_filter=config.platform_filter,
            instrumentation=obs,
        )
        final_snapshot = build_snapshot(
            result,
            epoch=len(slices),
            final=True,
            seed=config.seed,
            config_fingerprint=config_fingerprint(config),
            traces_ingested=total_streamed,
        )
        final_published = supervisor.publish(final_snapshot, "snapshot-final")
        if final_published:
            handle.snapshots.append(final_snapshot)
        # The converged map is correct by construction even when its
        # durable publish rolled back (the read path then keeps serving
        # the last good epoch snapshot, staleness annotated).
        handle.final = final_snapshot
        if final_published:
            self._notify(
                f"serve: final snapshot published "
                f"(fingerprint {final_snapshot.fingerprint[:12]}…)"
            )
        return handle

    # ------------------------------------------------------------------
    # Temporal mode: the world churns under the stream
    # ------------------------------------------------------------------

    def _lagged_db(
        self,
        view: ChurnView,
        cache: dict[Any, FacilityDatabase],
    ) -> FacilityDatabase:
        """The facility database as PeeringDB *believes* it at ``view``.

        AS departures stay listed until their ``db_epoch`` passes and
        lagged arrivals appear early — the paper's stale-constraint
        reality.  Views with the same lag state share one copy, and
        every copy shares the base's peering-LAN index
        (:meth:`FacilityDatabase.with_tables`), so a lag change costs a
        membership rebuild plus shallow table copies, never a new trie.
        """
        base = self.environment.facility_db
        if not view.db_hidden and not view.db_added:
            return base
        key = view.db_key
        cached = cache.get(key)
        if cached is not None:
            return cached
        database = base.with_tables(
            as_facilities=lagged_membership(base.as_facilities, view)
        )
        cache[key] = database
        return database

    def _run_churned_stream(
        self,
        churn: ChurnPlan,
        epochs: int,
        stop_after_epoch: int | None,
    ) -> ServiceHandle:
        """Epoch loop for the temporal mode.

        Differences from the classic stream, each deliberate:

        * **Per-epoch re-planning.**  Every epoch builds a fresh driver
          at the same seed offset and re-plans the full campaign — the
          probe panel is therefore stable across epochs (same targets,
          same sampling draws) while the *measurement substrate* keys
          per-trace noise by issue sequence, so repeated probes see
          fresh noise over the same paths.  Churn is then applied as a
          view over the executed traces: dark routers and downed links
          truncate exactly the hops the real world would have absorbed.
        * **Epoch-local folds.**  The cumulative fold can only gain
          links, so it structurally cannot show loss; the temporal mode
          folds each epoch into a fresh :class:`StreamingCfs` (against
          the lagged facility database) and publishes the epoch-local
          map — successive-snapshot diffing is the whole point, per
          arXiv:1911.04866.
        * **No convergence pass, no mid-stream checkpoint.**  A final
          batch-equivalent snapshot is meaningless when every epoch saw
          a different world (``handle.final`` stays ``None``), and the
          stream stage's boundary bookkeeping assumes one immutable
          plan, so checkpoint/resume is disabled here.
        * **Quarantined epochs are lost.**  Draining them later would
          replay a world that no longer exists; the detector simply
          does not observe those epochs (its streaks advance on
          observed epochs only).
        """
        if epochs < 1:
            raise ValueError(f"epochs must be at least 1, got {epochs}")
        if epochs > churn.epochs:
            raise ValueError(
                f"churn plan covers {churn.epochs} epochs, stream wants {epochs}"
            )
        env = self.environment
        config = self.config
        obs = self._obs
        handle = ServiceHandle(service=self)
        names = config.platform_filter
        supervisor = self.supervisor = self._new_supervisor()
        detector = DisruptionDetector(
            policy=self.disruption_policy, instrumentation=obs
        )
        self.detector = detector
        if self.config.resume:
            self._notify(
                "serve: churned streams cannot resume (the plan is "
                "re-drawn per epoch); running fresh"
            )

        db_cache: dict[Any, FacilityDatabase] = {}
        previous: MapSnapshot | None = None
        total_traces = 0
        for epoch in range(epochs):
            view = churn.view(epoch)
            for event in view.started:
                obs.count("churn.events")
                obs.emit(
                    "churn.event",
                    kind=event.kind,
                    epoch=event.epoch,
                    duration=event.duration,
                    facility_id=event.facility_id,
                    link_id=event.link_id,
                    asn=event.asn,
                    db_epoch=event.db_epoch,
                )
            obs.count("ingest.epochs")
            driver = env.new_driver(0, instrumentation=obs)
            plan = driver.plan_initial_campaign(env.target_asns)
            obs.emit(
                "ingest.replan",
                epoch=epoch,
                probes=len(plan),
                dark_routers=len(view.dark_routers),
                down_links=len(view.down_pairs),
            )
            obs.emit("ingest.epoch.begin", epoch=epoch, probes=len(plan))
            executed = supervisor.ingest_epoch(driver, epoch, plan)
            if executed is None:
                # Quarantined: this epoch's world was never observed.
                continue
            censored = [censor_trace(trace, view) for trace in executed]
            arrived: list[Traceroute] = (
                censored
                if names is None
                else [t for t in censored if t.platform in names]
            )
            total_traces += len(arrived)
            fold = StreamingCfs(
                env,
                instrumentation=obs,
                facility_db=self._lagged_db(view, db_cache),
            )
            fold.fold(arrived)
            snapshot = self._interim_snapshot(fold, epoch)
            published = supervisor.publish(snapshot, f"snapshot-epoch-{epoch}")
            obs.emit(
                "ingest.epoch.done",
                epoch=epoch,
                traces=len(arrived),
                total=total_traces,
                fingerprint=snapshot.fingerprint,
                published=published,
            )
            if published:
                handle.snapshots.append(snapshot)
                diff = (
                    diff_snapshots(previous, snapshot)
                    if previous is not None
                    else None
                )
                reports = detector.observe(
                    snapshot,
                    diff=diff,
                    data_health=snapshot_data_health(snapshot),
                )
                self.health.record_map_assessment(detector.status())
                for report in reports:
                    self._notify(
                        f"serve: disruption {report.kind} for facility "
                        f"{report.facility_id} at epoch {report.epoch} "
                        f"(score {report.score:.2f})"
                    )
                previous = snapshot
                self._notify(
                    f"serve: epoch {epoch} published ({len(arrived)} traces, "
                    f"{len(view.active)} active churn events)"
                )
            if stop_after_epoch is not None and epoch >= stop_after_epoch:
                self._notify(f"serve: paused after epoch {epoch}")
                return handle

        obs.emit(
            "ingest.stream.end",
            epochs=epochs,
            traces=total_traces,
            quarantined=len(supervisor.quarantined),
        )
        return handle
