"""IP-ID responder tests: counter behaviours per operator mode."""

from __future__ import annotations

from random import Random

import pytest

from repro.measurement.ipid import IPID_MODULUS, IpidResponder
from repro.topology import IPIDMode
from repro.topology.network import InterfaceKind


def routers_with_mode(topology, mode, min_interfaces=2):
    result = []
    for router in topology.routers.values():
        if topology.ases[router.asn].ipid_mode is not mode:
            continue
        usable = [
            a
            for a in router.interfaces
            if topology.interfaces[a].kind
            not in (InterfaceKind.LOOPBACK, InterfaceKind.HOST)
        ]
        if len(usable) >= min_interfaces:
            result.append((router, usable))
    return result


@pytest.fixture(scope="module")
def responder(small_topology):
    return IpidResponder(small_topology, seed=42)


class TestProbeBasics:
    def test_unknown_address(self, responder):
        assert responder.probe(1) is None

    def test_values_in_16bit_range(self, small_topology):
        responder = IpidResponder(small_topology, seed=1)
        for address in list(small_topology.interfaces)[:100]:
            sample = responder.probe(address)
            if sample is not None:
                assert 0 <= sample < IPID_MODULUS

    def test_probe_train_length(self, small_topology, responder):
        address = next(iter(small_topology.interfaces))
        assert len(responder.probe_train(address, 5)) == 5


class TestModes:
    def test_shared_counter_monotonic_across_interfaces(self, small_topology):
        responder = IpidResponder(small_topology, seed=2)
        pairs = routers_with_mode(small_topology, IPIDMode.SHARED_COUNTER)
        assert pairs
        router, interfaces = pairs[0]
        a, b = interfaces[0], interfaces[1]
        samples = [responder.probe(addr) for addr in (a, b, a, b, a, b)]
        assert all(s is not None for s in samples)
        advance = 0
        for prev, cur in zip(samples, samples[1:]):
            step = (cur - prev) % IPID_MODULUS
            assert step > 0
            advance += step
        assert advance < IPID_MODULUS

    def test_unresponsive_mode(self, small_topology):
        responder = IpidResponder(small_topology, seed=3)
        pairs = routers_with_mode(small_topology, IPIDMode.UNRESPONSIVE, 1)
        if not pairs:
            pytest.skip("no unresponsive routers in this seed")
        _, interfaces = pairs[0]
        assert responder.probe(interfaces[0]) is None

    def test_constant_mode(self, small_topology):
        responder = IpidResponder(small_topology, seed=4)
        pairs = routers_with_mode(small_topology, IPIDMode.CONSTANT, 1)
        if not pairs:
            pytest.skip("no constant-IPID routers in this seed")
        _, interfaces = pairs[0]
        assert responder.probe_train(interfaces[0], 4) == [0, 0, 0, 0]

    def test_random_mode_not_monotonic(self, small_topology):
        responder = IpidResponder(small_topology, seed=5)
        pairs = routers_with_mode(small_topology, IPIDMode.RANDOM, 1)
        if not pairs:
            pytest.skip("no random-IPID routers in this seed")
        _, interfaces = pairs[0]
        samples = responder.probe_train(interfaces[0], 12)
        advance = sum(
            (cur - prev) % IPID_MODULUS for prev, cur in zip(samples, samples[1:])
        )
        assert advance >= IPID_MODULUS  # wraps: not one slow counter

    def test_per_interface_counters_independent(self, small_topology):
        responder = IpidResponder(small_topology, seed=6)
        pairs = routers_with_mode(small_topology, IPIDMode.PER_INTERFACE)
        if not pairs:
            pytest.skip("no per-interface routers in this seed")
        _, interfaces = pairs[0]
        a, b = interfaces[0], interfaces[1]
        # Each interface's own train is monotonic...
        train_a = [responder.probe(a) for _ in range(4)]
        advance_a = sum(
            (cur - prev) % IPID_MODULUS for prev, cur in zip(train_a, train_a[1:])
        )
        assert advance_a < IPID_MODULUS
        # ...but the two counters start at unrelated offsets.
        sample_b = responder.probe(b)
        assert sample_b is not None

    def test_velocity_stable_per_router(self, small_topology):
        responder = IpidResponder(small_topology, seed=7)
        pairs = routers_with_mode(small_topology, IPIDMode.SHARED_COUNTER)
        router, interfaces = pairs[0]
        train = [responder.probe(interfaces[0]) for _ in range(6)]
        steps = [
            (cur - prev) % IPID_MODULUS for prev, cur in zip(train, train[1:])
        ]
        assert max(steps) - min(steps) <= 1  # float accumulation quantised


def _reference_samples(topology, seed, addresses):
    """IP-ID samples from a per-call classifier: every probe walks
    interface -> router -> AS -> mode afresh, with the responder's RNG
    draws in the responder's order.  The oracle for the memoised
    dispatch in :meth:`IpidResponder.probe`."""
    rng = Random(seed)
    router_counter: dict[int, float] = {}
    router_velocity: dict[int, float] = {}
    iface_counter: dict[int, float] = {}
    iface_velocity: dict[int, float] = {}
    samples = []
    for address in addresses:
        interface = topology.interfaces.get(address)
        if interface is None:
            samples.append(None)
            continue
        router = topology.routers[interface.router_id]
        if interface.kind is InterfaceKind.HOST:
            samples.append(rng.randrange(IPID_MODULUS))
            continue
        mode = topology.ases[router.asn].ipid_mode
        if mode is IPIDMode.UNRESPONSIVE:
            samples.append(None)
        elif mode is IPIDMode.CONSTANT:
            samples.append(0)
        elif mode is IPIDMode.RANDOM:
            samples.append(rng.randrange(IPID_MODULUS))
        else:
            key = address if mode is IPIDMode.PER_INTERFACE else router.router_id
            counters, velocities = (
                (iface_counter, iface_velocity)
                if mode is IPIDMode.PER_INTERFACE
                else (router_counter, router_velocity)
            )
            counter = counters.get(key)
            if counter is None:
                counter = float(rng.randrange(IPID_MODULUS))
                velocities[key] = rng.uniform(1.0, 9.0)
            counter += velocities[key]
            counters[key] = counter
            samples.append(int(counter) % IPID_MODULUS)
    return samples


class TestDispatchMemo:
    def test_mixed_modes_match_per_call_classification(self, small_topology):
        picks: list[int] = []
        for mode in IPIDMode:
            found = routers_with_mode(small_topology, mode)
            assert found, f"small topology lacks a {mode.value} router"
            picks.extend(found[0][1][:2])  # two interfaces of one router
        hosts = [
            address
            for address, interface in sorted(small_topology.interfaces.items())
            if interface.kind is InterfaceKind.HOST
        ]
        picks.extend(hosts[:2])
        picks.append(1)  # not an interface of the topology
        # Interleave repeats, so memo hits mix with first-time lookups.
        addresses = picks + picks[::-1] + picks[::2] + picks
        responder = IpidResponder(small_topology, seed=9)
        observed = [responder.probe(address) for address in addresses]
        assert observed == _reference_samples(small_topology, 9, addresses)
        assert any(sample is None for sample in observed)
        assert 0 in observed
