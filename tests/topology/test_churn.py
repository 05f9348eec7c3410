"""Churn-plan tests: determinism, purity, censoring, database lag."""

from __future__ import annotations

import pytest

from repro.measurement.traceroute import Traceroute
from repro.topology.churn import (
    AS_ENTER,
    AS_LEAVE,
    FACILITY_POWER_LOSS,
    LINK_FLAP,
    ChurnConfig,
    ChurnEvent,
    ChurnPlan,
    apply_events,
    censor_trace,
    lagged_membership,
    plan_churn,
)

EPOCHS = 10


@pytest.fixture(scope="module")
def moderate_plan(small_topology):
    return plan_churn(small_topology, EPOCHS, ChurnConfig.moderate(), seed=7)


def _trace(hops, reached=True):
    return Traceroute(
        source_id="vp-0",
        platform="synthetic",
        src_asn=1,
        dst_address=99,
        addresses=tuple(100 + r for r in hops),
        rtts=(1.0,) * len(hops),
        routers=tuple(hops),
        reached=reached,
    )


class TestPlanChurn:
    def test_deterministic(self, small_topology, moderate_plan):
        again = plan_churn(
            small_topology, EPOCHS, ChurnConfig.moderate(), seed=7
        )
        assert again == moderate_plan

    def test_seed_sensitivity(self, small_topology, moderate_plan):
        other = plan_churn(
            small_topology, EPOCHS, ChurnConfig.moderate(), seed=8
        )
        assert other.events != moderate_plan.events

    def test_zero_config_is_quiet(self, small_topology):
        plan = plan_churn(small_topology, EPOCHS, ChurnConfig.zero(), seed=7)
        assert plan.events == ()
        assert plan.is_quiet
        assert all(plan.view(epoch).is_quiet for epoch in range(EPOCHS))

    def test_no_events_during_warmup(self, moderate_plan):
        warmup = moderate_plan.config.warmup_epochs
        assert all(event.epoch >= warmup for event in moderate_plan.events)

    def test_power_losses_complete_within_horizon(self, moderate_plan):
        duration = moderate_plan.config.outage_duration
        for event in moderate_plan.power_loss_events():
            assert event.epoch + duration <= EPOCHS

    def test_outage_targets_large_facilities(
        self, small_topology, moderate_plan
    ):
        counts: dict[int, int] = {}
        for link in small_topology.interconnections.values():
            for facility in (link.facility_a, link.facility_b):
                if facility is not None:
                    counts[facility] = counts.get(facility, 0) + 1
        floor = moderate_plan.config.min_facility_links
        for event in moderate_plan.power_loss_events():
            assert counts[event.facility_id] >= floor

    def test_view_range_validated(self, moderate_plan):
        with pytest.raises(ValueError):
            moderate_plan.view(EPOCHS)
        with pytest.raises(ValueError):
            moderate_plan.view(-1)

    def test_scaled_zero_is_quiet(self):
        assert ChurnConfig.moderate().scaled(0.0).is_zero

    def test_bad_rate_rejected(self):
        with pytest.raises(ValueError):
            ChurnConfig(link_flap_rate=1.5)
        with pytest.raises(ValueError):
            ChurnEvent(kind="meteor-strike", epoch=0, duration=1)


class TestApplyEvents:
    def test_pure_no_topology_mutation(self, small_topology):
        before = len(small_topology.routers)
        plan_churn(small_topology, EPOCHS, ChurnConfig.moderate(), seed=7)
        assert len(small_topology.routers) == before

    def test_power_loss_darkens_facility_routers(self, small_topology):
        plan = plan_churn(
            small_topology, EPOCHS, ChurnConfig.moderate(), seed=7
        )
        losses = plan.power_loss_events()
        if not losses:
            pytest.skip("seed drew no power loss")
        event = losses[0]
        routers = {
            router.router_id
            for router in small_topology.routers.values()
            if router.facility_id == event.facility_id
        }
        during = plan.view(event.epoch)
        assert routers <= during.dark_routers
        if event.epoch > 0:
            before = plan.view(event.epoch - 1)
            overlap = routers & before.dark_routers
            # The epoch before onset, the facility's routers are only
            # dark if some other event (an AS departure) darkened them.
            assert overlap < routers or not overlap

    def test_as_enter_perturbs_db_only(self, small_topology):
        events = (
            ChurnEvent(
                kind=AS_ENTER,
                epoch=2,
                duration=4,
                facility_id=3,
                asn=42,
                db_epoch=4,
            ),
        )
        early = apply_events(small_topology, events, 2)
        late = apply_events(small_topology, events, 4)
        assert early.dark_routers == frozenset()
        assert (42, 3) not in early.db_added
        assert (42, 3) in late.db_added
        assert late.dark_routers == frozenset()

    def test_lagged_membership(self, small_topology):
        events = (
            ChurnEvent(
                kind=AS_LEAVE,
                epoch=1,
                duration=5,
                facility_id=9,
                asn=7,
                db_epoch=3,
            ),
        )
        membership = {7: frozenset({9, 11})}
        fresh = lagged_membership(
            membership, apply_events(small_topology, events, 1)
        )
        stale = lagged_membership(
            membership, apply_events(small_topology, events, 3)
        )
        # Reality changed at epoch 1, the database learns at epoch 3.
        assert fresh[7] == frozenset({9, 11})
        assert stale[7] == frozenset({11})


class TestCensorTrace:
    def test_quiet_view_returns_trace_unchanged(self, small_topology):
        view = apply_events(small_topology, (), 0)
        trace = _trace([1, 2, 3])
        assert censor_trace(trace, view) is trace

    def test_dark_router_truncates(self, small_topology):
        events = (
            ChurnEvent(
                kind=FACILITY_POWER_LOSS, epoch=0, duration=1, facility_id=0
            ),
        )
        view = apply_events(small_topology, events, 0)
        dark = next(iter(view.dark_routers))
        bright = max(small_topology.routers) + 1
        censored = censor_trace(_trace([bright, dark, bright + 1]), view)
        assert len(censored.addresses) == 1
        assert censored.reached is False

    def test_down_pair_truncates_at_crossing(self, small_topology):
        link = next(iter(small_topology.interconnections.values()))
        events = (
            ChurnEvent(
                kind=LINK_FLAP, epoch=0, duration=1, link_id=link.link_id
            ),
        )
        view = apply_events(small_topology, events, 0)
        a, b = link.router_a, link.router_b
        censored = censor_trace(_trace([a, b]), view)
        assert len(censored.addresses) == 1
        assert censored.reached is False
        # The pair is undirected: the reverse crossing censors too.
        reverse = censor_trace(_trace([b, a]), view)
        assert len(reverse.addresses) == 1
