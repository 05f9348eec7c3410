"""Traceroute engine tests: hop semantics, loss, RTTs, helpers."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checkpoint import encode_campaign_stage
from repro.faults import FaultInjector, FaultPlan
from repro.measurement.traceroute import (
    Traceroute,
    TracerouteConfig,
    TracerouteEngine,
)
from repro.topology import InterfaceKind
from repro.topology.churn import ChurnConfig, censor_trace, plan_churn


@pytest.fixture(scope="module")
def lossless_engine(small_topology):
    return TracerouteEngine(
        small_topology,
        config=TracerouteConfig(hop_loss_prob=0.0),
        seed=1,
    )


def sample_targets(topology, n, seed=0):
    rng = random.Random(seed)
    routers = sorted(topology.routers)
    addresses = sorted(topology.interfaces)
    return [(rng.choice(routers), rng.choice(addresses)) for _ in range(n)]


class TestTraceSemantics:
    def test_reaches_destination(self, lossless_engine, small_topology):
        for src, dst in sample_targets(small_topology, 20, seed=1):
            trace = lossless_engine.trace(src, dst)
            assert trace.reached
            assert trace.addresses[-1] == dst

    def test_no_stars_when_lossless(self, lossless_engine, small_topology):
        for src, dst in sample_targets(small_topology, 10, seed=2):
            trace = lossless_engine.trace(src, dst)
            assert None not in trace.addresses

    def test_ttls_sequential(self, lossless_engine, small_topology):
        src, dst = sample_targets(small_topology, 1, seed=3)[0]
        trace = lossless_engine.trace(src, dst)
        # A hop's TTL is its position plus one; the checkpoint rows
        # spell it out.
        rows = encode_campaign_stage([trace], (0, {}), ({}, 0.0))["traces"][0][5]
        assert [row[0] for row in rows] == list(
            range(1, len(trace.addresses) + 1)
        )

    def test_hops_reply_from_ingress(self, lossless_engine, small_topology):
        """Every non-final hop address is an interface of the router that
        answered — the ingress-reply convention of Section 4.3."""
        for src, dst in sample_targets(small_topology, 15, seed=4):
            trace = lossless_engine.trace(src, dst)
            for address, router_id in zip(
                trace.addresses[:-1], trace.routers[:-1]
            ):
                iface = small_topology.interfaces[address]
                assert iface.router_id == router_id

    def test_ixp_crossing_shows_lan_address(self, lossless_engine, small_topology):
        """Paths crossing a public peering must show a peering-LAN hop."""
        found = False
        for src, dst in sample_targets(small_topology, 200, seed=5):
            trace = lossless_engine.trace(src, dst)
            for address in trace.addresses:
                if address is None:
                    continue
                iface = small_topology.interfaces.get(address)
                if iface is not None and iface.kind is InterfaceKind.IXP_LAN:
                    found = True
                    assert small_topology.ixp_of_address(address) is not None
        assert found

    def test_rtts_present_and_positive(self, lossless_engine, small_topology):
        src, dst = sample_targets(small_topology, 1, seed=6)[0]
        trace = lossless_engine.trace(src, dst)
        for rtt in trace.rtts:
            assert rtt is not None and rtt > 0

    def test_rtt_roughly_accumulates(self, lossless_engine, small_topology):
        """Later hops should not show wildly smaller RTTs than the total
        path base (jitter aside, propagation accumulates)."""
        src, dst = sample_targets(small_topology, 1, seed=7)[0]
        trace = lossless_engine.trace(src, dst)
        if len(trace.rtts) >= 3:
            assert trace.rtts[-1] >= trace.rtts[0] - 1.0

    def test_unroutable_destination(self, small_topology):
        engine = TracerouteEngine(small_topology, seed=8)
        trace = engine.trace(next(iter(small_topology.routers)), 1)
        assert not trace.reached
        assert trace.addresses == trace.rtts == trace.routers == ()

    def test_destination_on_source_router(self, lossless_engine, small_topology):
        router = next(iter(small_topology.routers.values()))
        trace = lossless_engine.trace(router.router_id, router.interfaces[0])
        assert trace.reached
        assert len(trace.addresses) == 1

    def test_loss_produces_stars(self, small_topology):
        engine = TracerouteEngine(
            small_topology,
            config=TracerouteConfig(hop_loss_prob=0.5),
            seed=9,
        )
        stars = 0
        for src, dst in sample_targets(small_topology, 30, seed=10):
            trace = engine.trace(src, dst)
            stars += trace.addresses.count(None)
        assert stars > 0

    def test_max_ttl_truncates(self, small_topology):
        engine = TracerouteEngine(
            small_topology,
            config=TracerouteConfig(hop_loss_prob=0.0, max_ttl=2),
            seed=11,
        )
        for src, dst in sample_targets(small_topology, 20, seed=12):
            trace = engine.trace(src, dst)
            assert len(trace.addresses) <= 2

    def test_counts_traces(self, small_topology):
        engine = TracerouteEngine(small_topology, seed=13)
        src, dst = sample_targets(small_topology, 1, seed=13)[0]
        engine.trace(src, dst)
        engine.trace(src, dst)
        assert engine.traces_issued == 2


class TestTracerouteHelpers:
    def test_responsive_addresses(self):
        trace = Traceroute(
            "t", "test", 1, 99, (10, None, 30), (1.0, None, 3.0), (1, 2, 3), True
        )
        assert trace.responsive_addresses() == [10, 30]


def _assert_aligned(trace):
    """The column invariants every trace keeps."""
    assert len(trace.addresses) == len(trace.rtts) == len(trace.routers)
    for address, rtt in zip(trace.addresses, trace.rtts):
        assert (address is None) == (rtt is None)


def _assert_prefix(cut, full):
    """``cut`` keeps a prefix of every column of ``full``; when it
    drops any hop it no longer reaches the destination."""
    hops = len(cut.addresses)
    assert hops <= len(full.addresses)
    assert cut.routers == full.routers[:hops]
    if hops < len(full.addresses):
        assert cut.reached is False


@pytest.fixture(scope="module")
def property_world(small_topology):
    """Shared forwarder, host and router targets, and churn views."""
    engine = TracerouteEngine(small_topology)
    interfaces = sorted(small_topology.interfaces.items())
    hosts = [a for a, i in interfaces if i.kind is InterfaceKind.HOST]
    others = [a for a, i in interfaces if i.kind is not InterfaceKind.HOST]
    plan = plan_churn(small_topology, 4, ChurnConfig.moderate(), seed=3)
    return engine.forwarder, sorted(small_topology.routers), hosts, others, plan


class TestColumnProperties:
    """Engine output, then fault injection and churn censoring, keep
    equal-length columns, stars with no RTT, and prefix truncation."""

    @settings(max_examples=60, deadline=None)
    @given(
        paris=st.booleans(),
        host=st.booleans(),
        pick=st.integers(min_value=0, max_value=10**6),
        max_ttl=st.integers(min_value=1, max_value=10),
        hop_loss_prob=st.sampled_from((0.0, 0.3)),
        truncation=st.sampled_from((0.0, 0.5, 1.0)),
        injected_loss=st.sampled_from((0.0, 0.5)),
        epoch=st.integers(min_value=0, max_value=3),
        seed=st.integers(min_value=0, max_value=99),
    )
    def test_columns_aligned_through_every_layer(
        self, small_topology, property_world, paris, host, pick, max_ttl,
        hop_loss_prob, truncation, injected_loss, epoch, seed,
    ):
        forwarder, routers, hosts, others, plan = property_world
        src = routers[pick % len(routers)]
        targets = hosts if host else others
        dst = targets[pick % len(targets)]

        def run(ttl_limit):
            config = TracerouteConfig(
                hop_loss_prob=hop_loss_prob, max_ttl=ttl_limit, paris=paris
            )
            engine = TracerouteEngine(
                small_topology, forwarder=forwarder, config=config, seed=seed
            )
            return engine.trace(src, dst)

        full = run(30)
        cut = run(max_ttl)
        for trace in (full, cut):
            _assert_aligned(trace)
        assert len(cut.addresses) <= max_ttl + 1
        _assert_prefix(cut, full)
        assert cut.addresses == full.addresses[: len(cut.addresses)]
        assert cut.rtts == full.rtts[: len(cut.rtts)]

        injector = FaultInjector(
            FaultPlan(trace_truncation=truncation, hop_loss=injected_loss),
            seed=seed,
        )
        perturbed = injector.perturb_trace(full)
        _assert_aligned(perturbed)
        _assert_prefix(perturbed, full)
        for address, original in zip(perturbed.addresses, full.addresses):
            assert address is None or address == original

        censored = censor_trace(full, plan.views[epoch])
        _assert_aligned(censored)
        _assert_prefix(censored, full)
        assert censored.addresses == full.addresses[: len(censored.addresses)]
        assert censored.rtts == full.rtts[: len(censored.rtts)]
