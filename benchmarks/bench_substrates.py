"""Micro-benchmarks of the substrate hot paths.

These are conventional pytest-benchmark timings (many rounds) for the
operations the pipeline leans on: longest-prefix lookups, route-table
computation, traceroute issuing, and alias-resolution probing.
"""

from __future__ import annotations

import random

import pytest

from repro.api import MidarResolver
from repro.api import IpidResponder
from repro.api import TracerouteEngine
from repro.api import RouteComputer
from repro.api import MAX_IPV4, LongestPrefixMatcher, Prefix


@pytest.fixture(scope="module")
def lpm_table():
    rng = random.Random(1)
    trie: LongestPrefixMatcher[int] = LongestPrefixMatcher()
    for index in range(5000):
        length = rng.randint(8, 28)
        network = rng.randrange(0, MAX_IPV4) & (
            (MAX_IPV4 << (32 - length)) & MAX_IPV4
        )
        trie.insert(Prefix(network, length), index)
    probes = [rng.randrange(0, MAX_IPV4) for _ in range(1000)]
    return trie, probes


def test_lpm_lookup(benchmark, lpm_table):
    trie, probes = lpm_table

    def lookup_batch():
        hits = 0
        for address in probes:
            if trie.lookup(address) is not None:
                hits += 1
        return hits

    hits = benchmark(lookup_batch)
    assert hits > 0


def test_route_table_computation(benchmark, bench_env):
    topology = bench_env.topology
    destinations = sorted(topology.ases)[:20]

    def compute():
        routes = RouteComputer(topology)
        for dest in destinations:
            routes.routes_to(dest)
        return routes

    benchmark.pedantic(compute, rounds=3, iterations=1)


def test_traceroute_throughput(benchmark, bench_env):
    topology = bench_env.topology
    engine = TracerouteEngine(topology, seed=99)
    rng = random.Random(3)
    routers = sorted(topology.routers)
    addresses = sorted(topology.interfaces)
    pairs = [
        (rng.choice(routers), rng.choice(addresses)) for _ in range(100)
    ]

    def run_batch():
        reached = 0
        for src, dst in pairs:
            if engine.trace(src, dst).reached:
                reached += 1
        return reached

    reached = benchmark.pedantic(run_batch, rounds=3, iterations=1)
    assert reached > 50


def test_midar_resolution(benchmark, bench_env):
    topology = bench_env.topology
    addresses = sorted(topology.interfaces)[:800]

    def resolve():
        responder = IpidResponder(topology, seed=7)
        resolver = MidarResolver(responder)
        return resolver.resolve(addresses)

    sets = benchmark.pedantic(resolve, rounds=2, iterations=1)
    assert len(sets) > 0
