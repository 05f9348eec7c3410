"""CFS loop tests: convergence, soundness, ablation switches, finalize."""

from __future__ import annotations

import pytest

from repro.core.cfs import CfsConfig, ConstrainedFacilitySearch
from repro.core.facility_db import FacilityDatabase
from repro.core.types import InferredType, InterfaceStatus, PeeringKind
from repro.experiments.context import clone_corpus
from repro.validation.metrics import score_interfaces


class TestConvergence:
    def test_resolved_counts_monotonic(self, small_run):
        _, _, result = small_run
        resolved = [stats.resolved for stats in result.history]
        assert all(b >= a for a, b in zip(resolved, resolved[1:]))

    def test_substantial_resolution(self, small_run):
        _, _, result = small_run
        assert result.resolved_fraction() > 0.5

    def test_totals_consistent(self, small_run):
        _, _, result = small_run
        for stats in result.history:
            assert (
                stats.resolved
                + stats.unresolved_local
                + stats.unresolved_remote
                + stats.missing_data
                == stats.total_interfaces
            )

    def test_history_matches_iterations(self, small_run):
        _, _, result = small_run
        assert len(result.history) == result.iterations_run
        assert result.history[-1].iteration == result.iterations_run

    def test_followups_issued(self, small_run):
        _, _, result = small_run
        assert result.followup_traces > 0

    def test_diminishing_returns(self, small_run):
        """Early iterations resolve more than late ones (Figure 7)."""
        _, _, result = small_run
        history = result.history
        if len(history) < 12:
            pytest.skip("run converged too quickly to compare phases")
        early = history[4].resolved - history[0].resolved
        late = history[-1].resolved - history[-5].resolved
        assert early >= late


class _PerfectMapping:
    """An IP-to-ASN oracle with no longest-prefix errors."""

    def __init__(self, topology):
        self._topology = topology

    def lookup(self, address):
        if address not in self._topology.interfaces:
            return None
        return self._topology.true_asn_of_address(address)


class TestSoundness:
    def test_perfect_data_perfect_inferences(self, small_env):
        """The CFS soundness invariant: with a complete facility database
        *and* error-free IP-to-ASN mapping, every constraint set contains
        the truth, so every resolved interface resolves correctly."""
        from repro.core.cfs import ConstrainedFacilitySearch

        truth_db = FacilityDatabase.from_ground_truth(small_env.topology)
        corpus = small_env.run_campaign(seed_offset=70)
        search = ConstrainedFacilitySearch(
            facility_db=truth_db,
            ip_to_asn=_PerfectMapping(small_env.topology),
            alias_resolver=small_env.new_midar(),
            driver=small_env.new_driver(71),
            remote_detector=small_env.remote_detector(),
            config=CfsConfig(max_iterations=30),
        )
        result = search.run(corpus)
        report = score_interfaces(small_env.topology, result)
        assert report.total > 100
        assert report.facility_accuracy > 0.98

    def test_perfect_facility_data_realistic_mapping(self, small_env):
        """With complete facility data but real longest-prefix mapping,
        near-side-only constraints keep precision near-perfect: the
        unrepairable shared /31s (Section 4.1) shift boundaries and cost
        coverage, not correctness."""
        truth_db = FacilityDatabase.from_ground_truth(small_env.topology)
        corpus = small_env.run_campaign(seed_offset=72)
        result = small_env.run_cfs(
            corpus, facility_db=truth_db, seed_offset=72
        )
        report = score_interfaces(small_env.topology, result)
        assert report.facility_accuracy > 0.97

    def test_noisy_data_high_city_accuracy(self, small_run):
        env, _, result = small_run
        report = score_interfaces(env.topology, result)
        assert report.facility_accuracy > 0.7
        assert report.city_accuracy > 0.73


class TestRemoteInference:
    def test_remote_peers_detected(self, small_run):
        env, _, result = small_run
        truly_remote = {
            port.address
            for ixp in env.topology.ixps.values()
            for ports in ixp.member_ports.values()
            for port in ports
            if port.is_remote
        }
        flagged = {
            address for address, state in result.interfaces.items() if state.remote
        }
        observed_remote = truly_remote & set(result.interfaces)
        if not observed_remote:
            pytest.skip("no remote ports observed in this seed")
        recall = len(observed_remote & flagged) / len(observed_remote)
        assert recall > 0.6

    def test_remote_flags_mostly_correct(self, small_run):
        env, _, result = small_run
        flagged_ports = [
            address
            for address, state in result.interfaces.items()
            if state.remote and env.topology.ixp_of_address(address) is not None
        ]
        if len(flagged_ports) < 3:
            pytest.skip("too few remote-flagged ports in this seed")
        correct = 0
        for address in flagged_ports:
            iface = env.topology.interfaces[address]
            ixp = env.topology.ixps[iface.ixp_id]
            if ixp.is_remote_member(env.topology.routers[iface.router_id].asn):
                correct += 1
        assert correct / len(flagged_ports) > 0.5


class TestAblationSwitches:
    def _run(self, env, corpus, **config_overrides):
        from dataclasses import replace

        config = replace(env.config.cfs, max_iterations=25, **config_overrides)
        return env.run_cfs(
            clone_corpus(corpus),
            cfs_config=config,
            with_followups=config.use_followups,
            seed_offset=80,
        )

    def test_no_followups_runs_passively(self, small_run):
        env, corpus, _ = small_run
        result = self._run(env, corpus, use_followups=False)
        assert result.followup_traces == 0
        # Passive runs converge (quiesce) in very few iterations.
        assert result.iterations_run <= 5

    def test_followups_add_resolution(self, small_run):
        """The full run resolves at least as many interfaces as a
        passive replay over the same (follow-up-inclusive) corpus — the
        passive replay inherits the full run's probing but cannot add
        its own."""
        env, corpus, full_result = small_run
        passive = self._run(env, corpus, use_followups=False)
        assert len(full_result.resolved_interfaces()) >= len(
            passive.resolved_interfaces()
        )

    def test_no_alias_resolution_still_works(self, small_run):
        env, corpus, _ = small_run
        result = env.run_cfs(
            clone_corpus(corpus),
            with_alias_resolution=False,
            with_followups=False,
            seed_offset=81,
        )
        assert result.resolved_fraction() > 0.2


class TestFinalization:
    def test_links_cover_both_kinds(self, small_run):
        _, _, result = small_run
        kinds = {link.kind for link in result.links}
        assert kinds == {PeeringKind.PUBLIC, PeeringKind.PRIVATE}

    def test_public_links_have_exchange(self, small_run):
        _, _, result = small_run
        for link in result.links:
            if link.kind is PeeringKind.PUBLIC:
                assert link.ixp_id is not None
            else:
                assert link.ixp_id is None

    def test_inferred_types_cover_all_categories(self, small_run):
        _, _, result = small_run
        types = {link.inferred_type for link in result.links}
        assert InferredType.PUBLIC_LOCAL in types
        assert InferredType.CROSS_CONNECT in types

    def test_near_facility_matches_state(self, small_run):
        _, _, result = small_run
        for link in result.links:
            state = result.interfaces.get(link.near_address)
            if state is not None and state.resolved_facility is not None:
                assert link.near_facility == state.resolved_facility

    def test_statuses_exposed(self, small_run):
        _, _, result = small_run
        resolved = result.states_with_status(InterfaceStatus.RESOLVED)
        assert len(resolved) == len(result.resolved_interfaces())
