"""Unit tests for the fault plan and injector."""

from __future__ import annotations

import pytest

from repro.datasets.peeringdb import PeeringDBSnapshot
from repro.faults import (
    FaultInjector,
    FaultPlan,
    QueryTimeout,
    RateLimitExceeded,
    VantagePointOutage,
)
from repro.measurement.platforms import VantagePoint
from repro.measurement.traceroute import Traceroute


def _vp(vp_id: str = "atlas-0", asn: int = 64500) -> VantagePoint:
    return VantagePoint(
        vp_id=vp_id,
        platform="ripe-atlas",
        asn=asn,
        router_id=1,
        metro="Frankfurt",
        country="DE",
        region="Europe",
    )


def _trace(n_hops: int = 6) -> Traceroute:
    ttls = range(1, n_hops + 1)
    return Traceroute(
        source_id="atlas-0",
        platform="ripe-atlas",
        src_asn=64500,
        dst_address=9999,
        addresses=tuple(1000 + ttl for ttl in ttls),
        rtts=tuple(float(ttl) for ttl in ttls),
        routers=(None,) * n_hops,
        reached=True,
    )


class TestFaultPlan:
    def test_zero_is_zero(self):
        assert FaultPlan.zero().is_zero
        assert not FaultPlan.zero().perturbs_datasets

    def test_moderate_matches_issue_profile(self):
        plan = FaultPlan.moderate()
        assert plan.hop_loss == pytest.approx(0.10)
        assert plan.vp_outage == pytest.approx(0.05)
        assert plan.netfac_stale == pytest.approx(0.05)
        assert not plan.is_zero
        assert plan.perturbs_datasets

    def test_rates_validated(self):
        with pytest.raises(ValueError, match="hop_loss"):
            FaultPlan(hop_loss=1.5)
        with pytest.raises(ValueError, match="vp_outage"):
            FaultPlan(vp_outage=-0.1)
        with pytest.raises(ValueError):
            FaultPlan.moderate().replace(lg_timeout=2.0)

    def test_scaled(self):
        plan = FaultPlan.moderate().scaled(0.5)
        assert plan.hop_loss == pytest.approx(0.05)
        assert FaultPlan.moderate().scaled(0.0).is_zero
        # Clamped, not rejected, when scaling past 1.
        assert FaultPlan(hop_loss=0.8).scaled(2.0).hop_loss == 1.0
        with pytest.raises(ValueError):
            FaultPlan.moderate().scaled(-1.0)

    def test_as_dict_round_trip(self):
        plan = FaultPlan.moderate()
        assert FaultPlan(**plan.as_dict()) == plan


class TestFaultInjector:
    def test_zero_plan_never_perturbs(self):
        injector = FaultInjector(FaultPlan.zero(), seed=3)
        trace = _trace()
        assert injector.perturb_trace(trace) is trace
        injector.check_vp(_vp())
        injector.check_looking_glass(64500)
        assert injector.alias_false_negative() is False
        assert injector.counts == {}

    def test_deterministic_across_instances(self):
        traces = [_trace(n) for n in (3, 5, 8, 6, 4)] * 4
        first = FaultInjector(FaultPlan(hop_loss=0.5), seed=7)
        second = FaultInjector(FaultPlan(hop_loss=0.5), seed=7)
        assert [first.perturb_trace(t) for t in traces] == [
            second.perturb_trace(t) for t in traces
        ]

    def test_hop_loss_blanks_hops(self):
        injector = FaultInjector(FaultPlan(hop_loss=1.0), seed=0)
        perturbed = injector.perturb_trace(_trace())
        assert all(address is None for address in perturbed.addresses)
        assert all(rtt is None for rtt in perturbed.rtts)
        assert not perturbed.reached
        assert injector.counts["fault.hop_lost"] == 6

    def test_truncation_shortens_trace(self):
        injector = FaultInjector(FaultPlan(trace_truncation=1.0), seed=1)
        original = _trace()
        perturbed = injector.perturb_trace(original)
        assert len(perturbed.addresses) < len(original.addresses)
        assert not perturbed.reached

    def test_vp_outage_raises(self):
        injector = FaultInjector(FaultPlan(vp_outage=1.0), seed=0)
        with pytest.raises(VantagePointOutage):
            injector.check_vp(_vp())
        assert injector.counts["fault.vp_outage"] == 1

    def test_lg_faults_raise(self):
        injector = FaultInjector(FaultPlan(lg_timeout=1.0), seed=0)
        with pytest.raises(QueryTimeout):
            injector.check_looking_glass(64500)
        injector = FaultInjector(FaultPlan(lg_rate_limit=1.0), seed=0)
        with pytest.raises(RateLimitExceeded):
            injector.check_looking_glass(64500)

    def test_fault_kinds_are_stable(self):
        assert VantagePointOutage.kind == "vp-outage"
        assert RateLimitExceeded.kind == "rate-limit"
        assert QueryTimeout.kind == "timeout"


class TestCorruptPeeringdb:
    @pytest.fixture(scope="class")
    def snapshot(self, small_topology) -> PeeringDBSnapshot:
        return PeeringDBSnapshot.build(small_topology, seed=2)

    def test_zero_plan_returns_same_object(self, snapshot):
        injector = FaultInjector(FaultPlan.zero(), seed=0)
        assert injector.corrupt_peeringdb(snapshot) is snapshot

    def test_netfac_missing_drops_rows(self, snapshot):
        injector = FaultInjector(FaultPlan(netfac_missing=1.0), seed=0)
        corrupted = injector.corrupt_peeringdb(snapshot)
        assert corrupted is not snapshot
        assert corrupted.netfac == []
        assert len(snapshot.netfac) > 0  # original untouched
        assert injector.counts["fault.netfac_dropped"] == len(snapshot.netfac)

    def test_netfac_stale_adds_contradictions(self, snapshot):
        injector = FaultInjector(FaultPlan(netfac_stale=1.0), seed=0)
        corrupted = injector.corrupt_peeringdb(snapshot)
        added = len(corrupted.netfac) - len(snapshot.netfac)
        assert added > 0
        assert injector.counts["fault.netfac_stale"] == added
        # Every added row contradicts the original snapshot.
        original = snapshot.as_facility_map()
        stale_rows = corrupted.netfac[len(snapshot.netfac) :]
        for row in stale_rows:
            assert row.facility_id not in original.get(row.asn, set())

    def test_ixfac_missing_drops_rows(self, snapshot):
        injector = FaultInjector(FaultPlan(ixfac_missing=1.0), seed=0)
        corrupted = injector.corrupt_peeringdb(snapshot)
        assert corrupted.ixfac == []
        assert len(snapshot.ixfac) > 0

    def test_other_tables_shared(self, snapshot):
        injector = FaultInjector(FaultPlan(netfac_missing=0.5), seed=0)
        corrupted = injector.corrupt_peeringdb(snapshot)
        assert corrupted.facilities is snapshot.facilities
        assert corrupted.ixlan is snapshot.ixlan
        assert corrupted.netixlan is snapshot.netixlan
        assert corrupted.quality is snapshot.quality
