"""MIDAR tests: bounds test, union-find, resolver precision/recall."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.alias.midar import (
    AliasSets,
    MidarConfig,
    MidarResolver,
    UnionFind,
    monotonic_mod_sequence,
    repair_ip_to_asn,
    velocity_estimate,
)
from repro.measurement.ipid import IPID_MODULUS, IpidResponder
from repro.topology import IPIDMode
from repro.topology.network import InterfaceKind


class TestMonotonicBoundsTest:
    def test_strictly_increasing_passes(self):
        assert monotonic_mod_sequence([1, 5, 9, 200])

    def test_single_wrap_passes(self):
        assert monotonic_mod_sequence([65000, 65500, 100, 700])

    def test_repeat_fails(self):
        assert not monotonic_mod_sequence([5, 5, 9])

    def test_full_cycle_fails(self):
        # Total advance exceeding the modulus cannot be one counter.
        assert not monotonic_mod_sequence([0, 60000, 50000, 60000])

    def test_short_sequences_pass(self):
        assert monotonic_mod_sequence([])
        assert monotonic_mod_sequence([42])

    @given(
        start=st.integers(min_value=0, max_value=IPID_MODULUS - 1),
        steps=st.lists(st.integers(min_value=1, max_value=50), min_size=1, max_size=30),
    )
    @settings(max_examples=150)
    def test_true_counter_always_passes(self, start, steps):
        samples = [start]
        for step in steps:
            samples.append((samples[-1] + step) % IPID_MODULUS)
        assert monotonic_mod_sequence(samples)

    @given(
        start=st.integers(min_value=0, max_value=IPID_MODULUS - 1),
        steps=st.lists(
            st.integers(min_value=1, max_value=50), min_size=2, max_size=30
        ),
    )
    @settings(max_examples=100)
    def test_velocity_estimate_matches_mean_step(self, start, steps):
        samples = [start]
        for step in steps:
            samples.append((samples[-1] + step) % IPID_MODULUS)
        estimate = velocity_estimate(samples)
        assert estimate == pytest.approx(sum(steps) / len(steps))

    def test_velocity_estimate_rejects_non_monotonic(self):
        assert velocity_estimate([5, 5, 5]) is None

    def test_velocity_estimate_short(self):
        assert velocity_estimate([1]) is None


class TestUnionFind:
    def test_union_and_find(self):
        uf = UnionFind()
        uf.union(1, 2)
        uf.union(2, 3)
        assert uf.find(1) == uf.find(3)
        assert uf.find(4) != uf.find(1)

    def test_groups(self):
        uf = UnionFind()
        uf.union("a", "b")
        uf.add("c")
        groups = uf.groups()
        assert {"a", "b"} in groups
        assert {"c"} in groups

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=30),
                st.integers(min_value=0, max_value=30),
            ),
            max_size=60,
        )
    )
    @settings(max_examples=100)
    def test_matches_naive_equivalence(self, unions):
        uf = UnionFind()
        naive: dict[int, set[int]] = {}

        def naive_union(a, b):
            group_a = naive.setdefault(a, {a})
            group_b = naive.setdefault(b, {b})
            if group_a is group_b:
                return
            merged = group_a | group_b
            for member in merged:
                naive[member] = merged

        for a, b in unions:
            uf.union(a, b)
            naive_union(a, b)
        for a, b in unions:
            assert (uf.find(a) == uf.find(b)) == (naive[a] is naive[b])


class TestAliasSets:
    def test_from_groups_drops_singletons(self):
        sets = AliasSets.from_groups([{1, 2}, {3}])
        assert len(sets) == 1
        assert sets.aliases_of(1) == frozenset({1, 2})
        assert sets.aliases_of(3) == frozenset({3})

    def test_are_aliases(self):
        sets = AliasSets.from_groups([{1, 2}, {4, 5}])
        assert sets.are_aliases(1, 2)
        assert not sets.are_aliases(1, 4)
        assert not sets.are_aliases(1, 99)


class TestMidarConfig:
    @pytest.mark.parametrize(
        "field, value", [("elimination_rounds", 0), ("elimination_train", 1)]
    )
    def test_rejects_elimination_that_cannot_test(self, field, value):
        with pytest.raises(ValueError, match=field):
            MidarConfig(**{field: value})


class TestResolver:
    @pytest.fixture(scope="class")
    def resolution(self, small_topology):
        responder = IpidResponder(small_topology, seed=50)
        resolver = MidarResolver(responder)
        addresses = [
            address
            for address, iface in small_topology.interfaces.items()
            if iface.kind not in (InterfaceKind.LOOPBACK, InterfaceKind.HOST)
        ]
        return resolver.resolve(addresses), addresses

    def test_no_false_merges(self, resolution, small_topology):
        sets, _ = resolution
        for alias_set in sets.sets:
            routers = {
                small_topology.interfaces[a].router_id for a in alias_set
            }
            assert len(routers) == 1, alias_set

    def test_high_recall_on_shared_counter_routers(self, resolution, small_topology):
        sets, addresses = resolution
        probed = set(addresses)
        recovered = 0
        eligible = 0
        for router in small_topology.routers.values():
            if small_topology.ases[router.asn].ipid_mode is not IPIDMode.SHARED_COUNTER:
                continue
            usable = [a for a in router.interfaces if a in probed]
            if len(usable) < 2:
                continue
            eligible += 1
            if all(sets.are_aliases(usable[0], other) for other in usable[1:]):
                recovered += 1
        assert eligible > 0
        assert recovered / eligible > 0.85

    def test_unresponsive_routers_not_resolved(self, resolution, small_topology):
        sets, _ = resolution
        for alias_set in sets.sets:
            router = small_topology.router_of_address(next(iter(alias_set)))
            mode = small_topology.ases[router.asn].ipid_mode
            assert mode is IPIDMode.SHARED_COUNTER

    def test_pair_memory_reused_across_resolves(self, small_topology):
        responder = IpidResponder(small_topology, seed=51)
        resolver = MidarResolver(responder)
        addresses = list(small_topology.interfaces)[:300]
        first = resolver.resolve(addresses)
        probes_after_first = resolver.probes_sent
        second = resolver.resolve(addresses)
        # Re-resolving re-estimates velocities but skips verdicts already
        # reached, so the probe bill collapses.
        assert resolver.probes_sent - probes_after_first < probes_after_first / 2
        # Corroboration is monotone: accepted pairs stay accepted (a
        # second pass may discover additional aliases, never lose any).
        for alias_set in first.sets:
            members = sorted(alias_set)
            for other in members[1:]:
                assert second.are_aliases(members[0], other)


class TestAsnRepair:
    def test_majority_vote(self):
        sets = AliasSets.from_groups([{1, 2, 3}])
        mapping = {1: 100, 2: 100, 3: 200}
        repaired = repair_ip_to_asn(sets, mapping)
        assert repaired == {1: 100, 2: 100, 3: 100}

    def test_tie_keeps_original(self):
        sets = AliasSets.from_groups([{1, 2}])
        mapping = {1: 100, 2: 200}
        assert repair_ip_to_asn(sets, mapping) == mapping

    def test_none_values_not_voted_or_repaired(self):
        sets = AliasSets.from_groups([{1, 2, 3}])
        mapping = {1: 100, 2: 100, 3: None}
        repaired = repair_ip_to_asn(sets, mapping)
        assert repaired[3] is None

    def test_unaffected_addresses_untouched(self):
        sets = AliasSets.from_groups([{1, 2}])
        mapping = {1: 100, 2: 100, 9: 300}
        assert repair_ip_to_asn(sets, mapping)[9] == 300

    def test_repairs_shared_p2p_mapping(self, small_topology):
        """End to end: raw LPM errors on shared /31s shrink after repair."""
        from repro.datasets.cymru import CymruService

        cymru = CymruService(small_topology, seed=52)
        responder = IpidResponder(small_topology, seed=52)
        resolver = MidarResolver(responder)
        addresses = [
            address
            for address, iface in small_topology.interfaces.items()
            if iface.kind not in (InterfaceKind.LOOPBACK, InterfaceKind.HOST)
        ]
        sets = resolver.resolve(addresses)
        raw = {a: cymru.lookup(a) for a in addresses}
        repaired = repair_ip_to_asn(sets, raw)

        def errors(mapping):
            return sum(
                1
                for address in addresses
                if mapping[address] is not None
                and small_topology.interfaces[address].kind
                is InterfaceKind.PRIVATE_P2P
                and mapping[address]
                != small_topology.true_asn_of_address(address)
            )

        assert errors(repaired) < errors(raw)
