"""Paris vs classic traceroute semantics over ECMP backbones."""

from __future__ import annotations

import random

import pytest

from repro.measurement.traceroute import TracerouteConfig, TracerouteEngine
from repro.topology import Forwarder


@pytest.fixture(scope="module")
def forwarder(small_topology):
    return Forwarder(small_topology)


def routers_with_ecmp(topology, forwarder, limit=400, seed=0):
    """(src, dst, flows...) triples whose intra-AS path is flow-sensitive."""
    rng = random.Random(seed)
    routers = sorted(topology.routers)
    addresses = sorted(topology.interfaces)
    found = []
    for _ in range(limit):
        src = rng.choice(routers)
        dst = rng.choice(addresses)
        path_a = forwarder.router_path(src, dst, flow_id=1)
        path_b = forwarder.router_path(src, dst, flow_id=2)
        if path_a is None or path_b is None:
            continue
        if [h.router_id for h in path_a] != [h.router_id for h in path_b]:
            found.append((src, dst))
    return found


class TestEcmpForwarding:
    def test_same_flow_same_path(self, small_topology, forwarder):
        rng = random.Random(1)
        routers = sorted(small_topology.routers)
        addresses = sorted(small_topology.interfaces)
        for _ in range(30):
            src = rng.choice(routers)
            dst = rng.choice(addresses)
            first = forwarder.router_path(src, dst, flow_id=7)
            second = forwarder.router_path(src, dst, flow_id=7)
            assert first == second

    def test_equal_cost_paths_have_equal_length(self, small_topology, forwarder):
        diverging = routers_with_ecmp(small_topology, forwarder)
        if not diverging:
            pytest.skip("no ECMP diversity in this seed")
        for src, dst in diverging[:10]:
            path_a = forwarder.router_path(src, dst, flow_id=1)
            path_b = forwarder.router_path(src, dst, flow_id=2)
            assert len(path_a) == len(path_b)
            assert path_a[-1].router_id == path_b[-1].router_id

    def test_flow_divergence_exists(self, small_topology, forwarder):
        """Backbone chords must create real ECMP diversity."""
        assert routers_with_ecmp(small_topology, forwarder)


class TestParisSemantics:
    def test_paris_trace_consistent_across_repeats(self, small_topology):
        engine = TracerouteEngine(
            small_topology,
            config=TracerouteConfig(hop_loss_prob=0.0, paris=True),
            seed=2,
        )
        forwarder = engine.forwarder
        diverging = routers_with_ecmp(small_topology, forwarder)
        if not diverging:
            pytest.skip("no ECMP diversity in this seed")
        src, dst = diverging[0]
        first = engine.trace(src, dst).routers
        second = engine.trace(src, dst).routers
        assert first == second

    def test_paris_hops_form_real_adjacencies(self, small_topology):
        engine = TracerouteEngine(
            small_topology,
            config=TracerouteConfig(hop_loss_prob=0.0, paris=True),
            seed=3,
        )
        rng = random.Random(3)
        for _ in range(20):
            src = rng.choice(sorted(small_topology.routers))
            dst = rng.choice(sorted(small_topology.interfaces))
            trace = engine.trace(src, dst)
            previous = src
            for router_id in trace.routers:
                neighbors = {
                    adj.neighbor_router
                    for adj in small_topology.adjacencies(previous)
                }
                assert router_id in neighbors or router_id == previous
                previous = router_id

    def test_classic_can_stitch_paths(self, small_topology):
        """Classic mode must exhibit the artifact Paris fixes: on some
        ECMP-diverse pair, consecutive reported hops are NOT adjacent
        routers (the probe hopped between parallel paths)."""
        engine = TracerouteEngine(
            small_topology,
            config=TracerouteConfig(hop_loss_prob=0.0, paris=False),
            seed=4,
        )
        forwarder = engine.forwarder
        diverging = routers_with_ecmp(small_topology, forwarder, limit=800)
        if not diverging:
            pytest.skip("no ECMP diversity in this seed")
        artifact_found = False
        for src, dst in diverging:
            trace = engine.trace(src, dst)
            previous = src
            for router_id in trace.routers:
                neighbors = {
                    adj.neighbor_router
                    for adj in small_topology.adjacencies(previous)
                }
                if router_id not in neighbors and router_id != previous:
                    artifact_found = True
                previous = router_id
            if artifact_found:
                break
        assert artifact_found

    def test_classic_still_reaches_destination(self, small_topology):
        engine = TracerouteEngine(
            small_topology,
            config=TracerouteConfig(hop_loss_prob=0.0, paris=False),
            seed=5,
        )
        rng = random.Random(5)
        reached = 0
        for _ in range(20):
            src = rng.choice(sorted(small_topology.routers))
            dst = rng.choice(sorted(small_topology.interfaces))
            if engine.trace(src, dst).reached:
                reached += 1
        assert reached >= 15
