"""Golden pins on the measurement substrate's output bytes.

The identity gates elsewhere compare engines with each other over one
substrate (incremental vs oracle CFS, stream vs batch, workers vs
serial), so a change to the substrate itself — the traceroute engine,
the IP-ID responder, the prefix tries, MIDAR — moves both sides at once
and passes.  These pins compare against fixed digests instead: the
small world at seed 0 must produce exactly these traces, alias sets,
and maps.  A substrate optimisation is only sound if every pin holds
unchanged.

Regenerate a digest only for a deliberate behaviour change, and say so
in the change log.
"""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

from repro.checkpoint import config_fingerprint, encode_campaign_stage
from repro.checkpoint.atomic import canonical_json
from repro.core import PipelineConfig, build_environment
from repro.faults import FaultPlan
from repro.measurement.traceroute import TracerouteConfig, TracerouteEngine
from repro.obs import Instrumentation
from repro.serve import MapService, build_snapshot
from repro.topology.churn import ChurnConfig, plan_churn

#: sha256 over every initial-campaign trace and hop (TTL, address, rtt repr);
#: a hop's TTL is its position in the trace plus one.
CORPUS_SHA256 = "32cab2df3fdc07926df7769332ac944b1a24239467e7a936553cfdaa20d10555"
CORPUS_TRACES = 2843
#: sha256 of the checkpoint payload for that campaign: the canonical JSON
#: of ``encode_campaign_stage`` (traces with their ``[ttl, address, rtt,
#: router]`` hop rows, plus the engine and looking-glass accounting).
CAMPAIGN_STAGE_SHA256 = (
    "d227831350b919ee686354850de59402e64fbe7414897903b4203776fe212b98"
)
#: MIDAR over the corpus's responsive addresses on a fresh environment.
ALIAS_SHA256 = "ce1dba0ffb0b867bf558c93b1e2be976cd3b369bdc8e7d9226bf885e419e2204"
ALIAS_SETS = 140
ALIAS_PROBES = 83341
#: One resolver over the lower 60% of the corpus's addresses, then all of
#: them: the second pass replays accepted pairs, hits the pair cache and
#: takes the corroboration shortcut (what batch and stream refreshes do).
REFRESH_SHA256 = (
    "58c5f81ca44e359037492641cc5bfa5488ecf98e7170e2f2960a2a68eb67bc64",
    "5d51c7bfc894414bd1d27de594ab5c04a373b9562a49851bffd87be467312f78",
)
REFRESH_PROBES = 89126
REFRESH_COUNTERS = {
    "midar.pairs_probed": 25271,
    "midar.pairs_accepted": 308,
    "midar.pair_cache_hits": 8449,
}
#: One resolve with a 3% alias false-negative fault rate: corroboration
#: re-merges every set a dropped pair would have split, so the sets equal
#: the clean run's, but the rejected pairs cost extra probes.
FAULTED_SHA256 = ALIAS_SHA256
FAULTED_PROBES = 83749
FAULTED_FALSE_NEGATIVES = 17
#: Content fingerprint of the batch map (campaign + CFS, small, seed 0).
BATCH_FINGERPRINT = (
    "619370b77b9baf62cf403d7c015194676fae8d0bbf9e68a7941e276a717e38d5"
)
#: Batch map fingerprints beyond the seed-0 small world: (scale, seed).
#: Both CFS engines share Step 1's crossing fold, so engine identity
#: alone cannot catch a fold bug; these pin its output directly.
MORE_BATCH_FINGERPRINTS = {
    ("small", 3): (
        "a346969a644e297395d6cacf9a6821540e6b765bbaa187601d61024d60c670c7"
    ),
    ("small", 4): (
        "da3f298ae4d8d65f4e52ff7c267398f53a609518009951ef046afa5329a78391"
    ),
    ("default", 0): (
        "46b9ce931ccd1a3b587c8a71e1e362389fd4de8ef7bddd198d40366b3d5a28c6"
    ),
}
#: Classic (non-Paris) traceroute over a fixed grid of sources x targets.
CLASSIC_SHA256 = "fa0e55c2a0183957232b66b4bc2d476e294bb892d8105ebd0421840231430859"
#: Per-epoch fingerprints of the classic stream (4 epochs): the interim
#: fold snapshots, then the final convergence pass (equal to batch).
#: The folds cross growth-triggered alias refreshes and moved-trace
#: re-parses.
STREAM_EPOCHS = 4
STREAM_FINGERPRINTS = (
    "dc0e944e68a080d7e388a4033f7d7b153dac23b5f0311b1c502c0540b59d0d1c",
    "8ffc8350080efbafef80ac1a5b625b7505ee5f68b146c4ecd1a4ebdfaca7ff5f",
    "b242715560280fabb2564f1725231517e37a14dc86bc3262f29ce0fb51fb7a8f",
    "13aa8f3612c529d5995f2f3c8b5f54cff2273bbee1eb384df45a912396106282",
    BATCH_FINGERPRINT,
)
#: Per-epoch fingerprints of the churned stream (plan seed 2, 4 epochs).
CHURN_EPOCHS = 4
CHURN_PLAN_SEED = 2
CHURN_FINGERPRINTS = (
    "91a3d6ccd37b11f28fd45d95b616a6fe58c00ce6139c995ea92cee368554c12c",
    "b5f1d8c3288596431343bf48c67f44ac0d2f5b92504c78c272774a4ac79741b3",
    "12b4d6e9b0219ee31f057cbd34cc7e5ae4af8588e01bf58ff0e9395197c7d2cf",
    "f9183b9e10c53a68d9647477802c4ce92f479877fe8cbba994c90fbb6436c9cd",
)


def _config() -> PipelineConfig:
    return PipelineConfig.small(seed=0)


def _corpus_digest(traces) -> str:
    digest = hashlib.sha256()
    for trace in traces:
        digest.update(
            f"{trace.source_id}|{trace.platform}|{trace.src_asn}|"
            f"{trace.dst_address}|{trace.reached}\n".encode()
        )
        for ttl, (address, rtt) in enumerate(
            zip(trace.addresses, trace.rtts), start=1
        ):
            digest.update(f"{ttl} {address} {rtt!r}\n".encode())
    return digest.hexdigest()


def _corpus_addresses(traces) -> list[int]:
    return sorted(
        {address for trace in traces for address in trace.responsive_addresses()}
    )


def _alias_digest(alias_sets) -> str:
    digest = hashlib.sha256()
    for members in sorted(sorted(group) for group in alias_sets.sets):
        digest.update((" ".join(map(str, members)) + "\n").encode())
    return digest.hexdigest()


def _batch_snapshot(env, corpus):
    """The final snapshot of a converged CFS run over ``corpus``."""
    return build_snapshot(
        env.run_cfs(corpus),
        epoch=0,
        final=True,
        seed=env.config.seed,
        config_fingerprint=config_fingerprint(env.config),
        traces_ingested=len(corpus),
    )


@pytest.fixture(scope="module")
def batch_run():
    """Initial campaign and converged CFS over one fresh environment."""
    env = build_environment(config=_config())
    corpus = env.run_campaign()
    initial = list(corpus.traces)
    stage = encode_campaign_stage(
        initial,
        env.engine.issue_baseline(),
        env.platforms.looking_glasses.query_state(),
    )
    stage_sha256 = hashlib.sha256(canonical_json(stage)).hexdigest()
    snapshot = _batch_snapshot(env, corpus)
    return initial, snapshot, stage_sha256


class TestSubstrateGolden:
    def test_initial_campaign_corpus(self, batch_run):
        initial, _, _ = batch_run
        assert len(initial) == CORPUS_TRACES
        assert _corpus_digest(initial) == CORPUS_SHA256

    def test_initial_campaign_checkpoint_payload(self, batch_run):
        _, _, stage_sha256 = batch_run
        assert stage_sha256 == CAMPAIGN_STAGE_SHA256

    def test_midar_over_corpus_addresses(self, batch_run):
        initial, _, _ = batch_run
        addresses = _corpus_addresses(initial)
        # A fresh environment: the IP-ID responder is stateful, and the
        # batch run above already probed the shared one.
        midar = build_environment(config=_config()).new_midar()
        alias_sets = midar.resolve(addresses)
        assert (len(alias_sets), midar.probes_sent) == (ALIAS_SETS, ALIAS_PROBES)
        assert _alias_digest(alias_sets) == ALIAS_SHA256

    def test_midar_refresh_reuses_pair_verdicts(self, batch_run):
        initial, _, _ = batch_run
        addresses = _corpus_addresses(initial)
        obs = Instrumentation()
        midar = build_environment(config=_config()).new_midar(instrumentation=obs)
        partial = midar.resolve(addresses[: len(addresses) * 6 // 10])
        full = midar.resolve(addresses)
        assert (_alias_digest(partial), _alias_digest(full)) == REFRESH_SHA256
        assert midar.probes_sent == REFRESH_PROBES
        assert {name: obs.counter(name) for name in REFRESH_COUNTERS} == (
            REFRESH_COUNTERS
        )

    def test_midar_with_alias_false_negatives(self, batch_run):
        initial, _, _ = batch_run
        config = dataclasses.replace(
            _config(), faults=FaultPlan(alias_false_negative=0.03)
        )
        env = build_environment(config=config)
        midar = env.new_midar()
        alias_sets = midar.resolve(_corpus_addresses(initial))
        assert _alias_digest(alias_sets) == FAULTED_SHA256
        assert midar.probes_sent == FAULTED_PROBES
        assert env.fault_injector.counts["fault.alias_false_negative"] == (
            FAULTED_FALSE_NEGATIVES
        )

    def test_batch_final_fingerprint(self, batch_run):
        _, snapshot, _ = batch_run
        assert snapshot.fingerprint == BATCH_FINGERPRINT

    @pytest.mark.parametrize(
        ("scale", "seed"), sorted(MORE_BATCH_FINGERPRINTS)
    )
    def test_more_batch_fingerprints(self, scale, seed):
        env = build_environment(
            config=PipelineConfig.for_scale(scale, seed=seed)
        )
        snapshot = _batch_snapshot(env, env.run_campaign())
        assert snapshot.fingerprint == MORE_BATCH_FINGERPRINTS[(scale, seed)]

    def test_classic_traceroute_grid(self):
        topology = build_environment(config=_config()).topology
        engine = TracerouteEngine(
            topology, config=TracerouteConfig(paris=False), seed=0
        )
        traces = [
            engine.trace(source, target)
            for source in sorted(topology.routers)[::37]
            for target in sorted(topology.interfaces)[::41]
        ]
        assert _corpus_digest(traces) == CLASSIC_SHA256

    def test_churned_epoch_fingerprints(self):
        service = MapService(_config())
        plan = plan_churn(
            service.environment.topology,
            CHURN_EPOCHS,
            ChurnConfig.moderate(),
            CHURN_PLAN_SEED,
        )
        handle = service.run_stream(CHURN_EPOCHS, churn=plan)
        fingerprints = tuple(s.fingerprint for s in handle.snapshots)
        assert fingerprints == CHURN_FINGERPRINTS

    def test_classic_stream_epoch_fingerprints(self):
        handle = MapService(_config()).run_stream(STREAM_EPOCHS)
        fingerprints = tuple(s.fingerprint for s in handle.snapshots)
        assert fingerprints == STREAM_FINGERPRINTS
