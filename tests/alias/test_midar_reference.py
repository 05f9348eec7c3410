"""The fused MIDAR kernel against a probe-by-probe reference.

:class:`ReferenceMidar` is the straightforward implementation of the
four MIDAR stages: estimation trains and interleaved elimination trains
sent one :meth:`IpidResponder.probe` call at a time, candidate pairs
listed up front, per-address strides from :func:`velocity_estimate`.
:meth:`MidarResolver.resolve` advances the responder's counter cells
inline instead, and must be indistinguishable from it: the same alias
sets, the same probe bill, the same counters and fault draws, and a
responder left in the same state.

Seeded worlds never let a random-mode or host address through
estimation (their velocities are implausibly high), so the permissive
configurations below lift ``max_plausible_velocity`` and shorten the
estimation train until they do — the only way to exercise the kernel's
``probe()`` fallback inside elimination.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.alias.midar import (
    AliasSets,
    MidarConfig,
    MidarResolver,
    UnionFind,
    velocity_estimate,
)
from repro.faults import FaultInjector, FaultPlan
from repro.measurement.ipid import IPID_MODULUS, IpidResponder
from repro.obs import Instrumentation
from repro.topology import IPIDMode
from repro.topology.network import InterfaceKind

#: Lets random-mode and host addresses through estimation.
PERMISSIVE = MidarConfig(
    estimation_train=2,
    velocity_ratio_bound=1.5,
    max_plausible_velocity=float(IPID_MODULUS),
)
COUNTERS = (
    "midar.pair_cache_hits",
    "midar.pairs_probed",
    "midar.pairs_accepted",
    "midar.fault_false_negatives",
    "midar.probes_sent",
)


class ReferenceMidar:
    """MIDAR probe by probe, with pair verdicts kept across resolves."""

    def __init__(self, responder, config, instrumentation, fault_injector=None):
        self._responder = responder
        self.config = config
        self._obs = instrumentation
        self._faults = fault_injector
        self.probes_sent = 0
        self._rejected_pairs: set[tuple[int, int]] = set()
        self._accepted_pairs: set[tuple[int, int]] = set()
        #: Every address probed in elimination, in probe order.
        self.eliminated: list[int] = []

    def _estimate(self, addresses):
        velocities = {}
        for address in addresses:
            train = self._responder.probe_train(
                address, self.config.estimation_train
            )
            self.probes_sent += len(train)
            samples = [s for s in train if s is not None]
            if len(samples) < self.config.estimation_train:
                continue
            if all(s == samples[0] for s in samples):
                continue
            velocity = velocity_estimate(samples)
            if velocity is None or velocity > self.config.max_plausible_velocity:
                continue
            velocities[address] = velocity
        return velocities

    def _sieve(self, velocities):
        ranked = sorted(velocities.items(), key=lambda item: (item[1], item[0]))
        bound = self.config.velocity_ratio_bound
        candidates = []
        for i, (address_a, velocity_a) in enumerate(ranked):
            for address_b, velocity_b in ranked[i + 1 :]:
                if velocity_b > velocity_a * bound:
                    break
                candidates.append((address_a, address_b))
        return candidates

    def _eliminate(self, a, b, velocity_a, velocity_b):
        expected_stride = velocity_a + velocity_b
        tolerance = 0.8 + 0.05 * expected_stride
        for _ in range(self.config.elimination_rounds):
            samples_a: list[int] = []
            samples_b: list[int] = []
            last = None
            total_advance = 0
            for _ in range(self.config.elimination_train):
                for samples, address in ((samples_a, a), (samples_b, b)):
                    sample = self._responder.probe(address)
                    self.probes_sent += 1
                    self.eliminated.append(address)
                    if sample is None:
                        return False
                    if last is not None:
                        step = (sample - last) % IPID_MODULUS
                        if step == 0:
                            return False
                        total_advance += step
                        if total_advance >= IPID_MODULUS:
                            return False
                    last = sample
                    samples.append(sample)
            for samples in (samples_a, samples_b):
                stride = velocity_estimate(samples)
                if stride is None or abs(stride - expected_stride) > tolerance:
                    return False
        return True

    def resolve(self, addresses):
        probes_before = self.probes_sent
        velocities = self._estimate(sorted(set(addresses)))
        union_find = UnionFind()
        for address in velocities:
            union_find.add(address)
        for pair in self._accepted_pairs:
            if pair[0] in velocities and pair[1] in velocities:
                union_find.union(*pair)
        for a, b in self._sieve(velocities):
            pair = (a, b) if a < b else (b, a)
            if pair in self._rejected_pairs or pair in self._accepted_pairs:
                self._obs.count("midar.pair_cache_hits")
                continue
            if union_find.find(a) == union_find.find(b):
                continue
            self._obs.count("midar.pairs_probed")
            if self._eliminate(a, b, velocities[a], velocities[b]):
                if self._faults is not None and self._faults.alias_false_negative():
                    self._rejected_pairs.add(pair)
                    self._obs.count("midar.fault_false_negatives")
                    continue
                union_find.union(a, b)
                self._accepted_pairs.add(pair)
                self._obs.count("midar.pairs_accepted")
            else:
                self._rejected_pairs.add(pair)
        self._obs.count("midar.probes_sent", self.probes_sent - probes_before)
        return AliasSets.from_groups(union_find.groups())


def _run(resolver_class, topology, seed, config, batches, false_negative_rate):
    """Resolve each batch in turn on one resolver over a fresh responder;
    return what the resolver reports plus the responder's next probes."""
    responder = IpidResponder(topology, seed=seed)
    obs = Instrumentation()
    injector = (
        FaultInjector(FaultPlan(alias_false_negative=false_negative_rate), seed=seed)
        if false_negative_rate
        else None
    )
    resolver = resolver_class(responder, config, obs, injector)
    results = [sorted(map(sorted, resolver.resolve(batch).sets)) for batch in batches]
    every = sorted(set().union(*batches))
    # The next probes read each counter back: they prove the kernel
    # wrote every advanced cell back into the responder.
    after = [responder.probe(address) for address in every + every]
    counters = {name: obs.counter(name) for name in COUNTERS}
    faults = dict(injector.counts) if injector is not None else {}
    return results, resolver.probes_sent, counters, faults, after, resolver


def _kernel(responder, config, obs, injector):
    return MidarResolver(
        responder, config=config, instrumentation=obs, fault_injector=injector
    )


def _router_addresses(topology, router_ids):
    """Every interface of the given routers, hosts included."""
    return [
        address
        for address, interface in sorted(topology.interfaces.items())
        if interface.router_id in router_ids
    ]


@pytest.fixture(scope="module")
def router_ids(small_topology):
    return sorted(small_topology.routers)


class TestKernelMatchesReference:
    def test_random_and_host_addresses_reach_elimination(self, small_topology):
        """The permissive configuration is not vacuous: random-mode and
        host addresses pass estimation and get probed pairwise."""
        topology = small_topology
        addresses = sorted(topology.interfaces)[::3]
        expected = _run(ReferenceMidar, topology, 3, PERMISSIVE, [addresses], 0)
        eliminated = set(expected[-1].eliminated)

        def unpredictable(address):
            interface = topology.interfaces[address]
            router = topology.routers[interface.router_id]
            return (
                interface.kind is InterfaceKind.HOST
                or topology.ases[router.asn].ipid_mode is IPIDMode.RANDOM
            )

        assert any(unpredictable(address) for address in eliminated)
        assert any(not unpredictable(address) for address in eliminated)
        observed = _run(_kernel, topology, 3, PERMISSIVE, [addresses], 0)
        assert observed[:5] == expected[:5]

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        picks=st.lists(st.integers(min_value=0, max_value=10**6), max_size=30),
        split=st.floats(min_value=0.0, max_value=1.0),
        strangers=st.lists(st.integers(min_value=1, max_value=255), max_size=3),
        config=st.sampled_from(
            [
                PERMISSIVE,
                MidarConfig(),
                MidarConfig(
                    estimation_train=3,
                    elimination_rounds=2,
                    elimination_train=3,
                    velocity_ratio_bound=3.0,
                    max_plausible_velocity=float(IPID_MODULUS),
                ),
                # Wide enough to pair counter with random addresses.
                dataclasses.replace(PERMISSIVE, velocity_ratio_bound=1e4),
                MidarConfig(elimination_rounds=1, elimination_train=2),
            ]
        ),
        false_negative_rate=st.sampled_from([0.0, 0.3]),
    )
    @settings(max_examples=60, deadline=None)
    def test_same_sets_probes_counters_and_cells(
        self,
        small_topology,
        router_ids,
        seed,
        picks,
        split,
        strangers,
        config,
        false_negative_rate,
    ):
        chosen = {router_ids[pick % len(router_ids)] for pick in picks}
        # Addresses the topology does not know answer no probe at all.
        addresses = _router_addresses(small_topology, chosen) + strangers
        first = addresses[: int(len(addresses) * split)]
        batches = [first, addresses]
        observed = _run(
            _kernel, small_topology, seed, config, batches, false_negative_rate
        )
        expected = _run(
            ReferenceMidar, small_topology, seed, config, batches, false_negative_rate
        )
        assert observed[:5] == expected[:5]
