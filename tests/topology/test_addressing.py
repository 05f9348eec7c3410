"""IPv4 addressing tests: parsing, prefixes, allocation, LPM trie."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.topology.addressing import (
    MAX_IPV4,
    LongestPrefixMatcher,
    PoolExhaustedError,
    Prefix,
    PrefixAllocator,
    int_to_ip,
    ip_to_int,
)

addresses = st.integers(min_value=0, max_value=MAX_IPV4)


def prefix_strategy(min_len=0, max_len=32):
    return st.tuples(
        addresses, st.integers(min_value=min_len, max_value=max_len)
    ).map(
        lambda pair: Prefix(
            pair[0] & ((MAX_IPV4 << (32 - pair[1])) & MAX_IPV4 if pair[1] else 0),
            pair[1],
        )
    )


class TestIpConversions:
    @pytest.mark.parametrize(
        "dotted,value",
        [
            ("0.0.0.0", 0),
            ("255.255.255.255", MAX_IPV4),
            ("10.0.0.1", (10 << 24) + 1),
            ("192.168.1.1", (192 << 24) + (168 << 16) + (1 << 8) + 1),
        ],
    )
    def test_known_values(self, dotted, value):
        assert ip_to_int(dotted) == value
        assert int_to_ip(value) == dotted

    @given(addresses)
    @settings(max_examples=200)
    def test_roundtrip(self, value):
        assert ip_to_int(int_to_ip(value)) == value

    @pytest.mark.parametrize(
        "bad",
        ["1.2.3", "1.2.3.4.5", "256.0.0.1", "a.b.c.d", "1.2.3.-4", "01.2.3.4", ""],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            ip_to_int(bad)

    @pytest.mark.parametrize("bad", [-1, MAX_IPV4 + 1])
    def test_int_to_ip_range(self, bad):
        with pytest.raises(ValueError):
            int_to_ip(bad)


class TestPrefix:
    def test_parse(self):
        prefix = Prefix.parse("10.0.0.0/8")
        assert prefix.network == 10 << 24
        assert prefix.length == 8
        assert str(prefix) == "10.0.0.0/8"

    def test_parse_rejects_non_cidr(self):
        with pytest.raises(ValueError):
            Prefix.parse("10.0.0.0")

    def test_host_bits_rejected(self):
        with pytest.raises(ValueError):
            Prefix(ip_to_int("10.0.0.1"), 8)

    def test_bad_length(self):
        with pytest.raises(ValueError):
            Prefix(0, 33)

    def test_contains(self):
        prefix = Prefix.parse("192.168.0.0/16")
        assert ip_to_int("192.168.5.5") in prefix
        assert ip_to_int("192.169.0.0") not in prefix

    def test_first_last_num(self):
        prefix = Prefix.parse("10.0.0.0/30")
        assert prefix.first == ip_to_int("10.0.0.0")
        assert prefix.last == ip_to_int("10.0.0.3")
        assert prefix.num_addresses == 4

    def test_hosts_regular_skips_network_broadcast(self):
        prefix = Prefix.parse("10.0.0.0/30")
        assert list(prefix.hosts()) == [
            ip_to_int("10.0.0.1"),
            ip_to_int("10.0.0.2"),
        ]

    def test_hosts_slash31_uses_both(self):
        prefix = Prefix.parse("10.0.0.0/31")
        assert len(list(prefix.hosts())) == 2

    def test_hosts_slash32(self):
        prefix = Prefix.parse("10.0.0.7/32")
        assert list(prefix.hosts()) == [ip_to_int("10.0.0.7")]

    def test_subnets(self):
        prefix = Prefix.parse("10.0.0.0/24")
        subnets = list(prefix.subnets(26))
        assert len(subnets) == 4
        assert subnets[0] == Prefix.parse("10.0.0.0/26")
        assert subnets[-1] == Prefix.parse("10.0.0.192/26")

    def test_subnets_invalid_length(self):
        with pytest.raises(ValueError):
            list(Prefix.parse("10.0.0.0/24").subnets(23))

    def test_contains_prefix_and_overlap(self):
        big = Prefix.parse("10.0.0.0/8")
        small = Prefix.parse("10.1.0.0/16")
        other = Prefix.parse("11.0.0.0/8")
        assert big.contains_prefix(small)
        assert not small.contains_prefix(big)
        assert big.overlaps(small) and small.overlaps(big)
        assert not big.overlaps(other)

    @given(prefix_strategy(max_len=28), addresses)
    @settings(max_examples=200)
    def test_contains_matches_mask_math(self, prefix, address):
        expected = (address >> (32 - prefix.length)) == (
            prefix.network >> (32 - prefix.length)
        ) if prefix.length else True
        assert (address in prefix) == expected

    def test_zero_prefix_contains_everything(self):
        default = Prefix(0, 0)
        assert 0 in default
        assert MAX_IPV4 in default
        assert default.num_addresses == 1 << 32


class TestPrefixAllocator:
    def test_sequential_subnets_disjoint(self):
        allocator = PrefixAllocator(Prefix.parse("10.0.0.0/16"))
        taken = [allocator.allocate_prefix(24) for _ in range(4)]
        for i, a in enumerate(taken):
            for b in taken[i + 1 :]:
                assert not a.overlaps(b)

    def test_alignment_after_smaller_allocation(self):
        allocator = PrefixAllocator(Prefix.parse("10.0.0.0/16"))
        allocator.allocate_prefix(31)
        aligned = allocator.allocate_prefix(24)
        assert aligned.network % aligned.num_addresses == 0

    def test_allocations_stay_in_pool(self):
        pool = Prefix.parse("10.0.0.0/20")
        allocator = PrefixAllocator(pool)
        for _ in range(10):
            assert pool.contains_prefix(allocator.allocate_prefix(26))

    def test_exhaustion(self):
        allocator = PrefixAllocator(Prefix.parse("10.0.0.0/30"))
        allocator.allocate_prefix(31)
        allocator.allocate_prefix(31)
        with pytest.raises(PoolExhaustedError):
            allocator.allocate_prefix(31)

    def test_cannot_allocate_larger_than_pool(self):
        allocator = PrefixAllocator(Prefix.parse("10.0.0.0/24"))
        with pytest.raises(ValueError):
            allocator.allocate_prefix(16)

    def test_allocate_address(self):
        allocator = PrefixAllocator(Prefix.parse("10.0.0.0/24"))
        first = allocator.allocate_address()
        second = allocator.allocate_address()
        assert first != second

    def test_remaining_decreases(self):
        allocator = PrefixAllocator(Prefix.parse("10.0.0.0/24"))
        before = allocator.remaining
        allocator.allocate_prefix(28)
        assert allocator.remaining == before - 16


class TestLongestPrefixMatcher:
    def test_lookup_prefers_longest(self):
        trie = LongestPrefixMatcher()
        trie.insert(Prefix.parse("10.0.0.0/8"), "big")
        trie.insert(Prefix.parse("10.1.0.0/16"), "small")
        assert trie.lookup(ip_to_int("10.1.2.3")) == "small"
        assert trie.lookup(ip_to_int("10.2.2.3")) == "big"

    def test_miss_returns_none(self):
        trie = LongestPrefixMatcher()
        trie.insert(Prefix.parse("10.0.0.0/8"), "x")
        assert trie.lookup(ip_to_int("11.0.0.1")) is None

    def test_replace_value(self):
        trie = LongestPrefixMatcher()
        prefix = Prefix.parse("10.0.0.0/8")
        trie.insert(prefix, "old")
        trie.insert(prefix, "new")
        assert trie.lookup(ip_to_int("10.0.0.1")) == "new"
        assert len(trie) == 1

    def test_default_route(self):
        trie = LongestPrefixMatcher()
        trie.insert(Prefix(0, 0), "default")
        assert trie.lookup(ip_to_int("200.1.2.3")) == "default"

    def test_lookup_prefix_returns_match(self):
        trie = LongestPrefixMatcher()
        trie.insert(Prefix.parse("192.168.0.0/16"), 7)
        match = trie.lookup_prefix(ip_to_int("192.168.3.4"))
        assert match == (Prefix.parse("192.168.0.0/16"), 7)

    def test_lookup_rejects_out_of_range(self):
        trie = LongestPrefixMatcher()
        with pytest.raises(ValueError):
            trie.lookup(-1)

    def test_insert_invalidates_memoised_lookup(self):
        trie = LongestPrefixMatcher()
        trie.insert(Prefix.parse("10.0.0.0/8"), "big")
        address = ip_to_int("10.1.2.3")
        assert trie.lookup(address) == "big"
        trie.insert(Prefix.parse("10.1.0.0/16"), "small")
        assert trie.lookup(address) == "small"

    def test_insert_invalidates_memoised_miss(self):
        trie = LongestPrefixMatcher()
        address = ip_to_int("10.1.2.3")
        assert trie.lookup(address) is None
        trie.insert(Prefix.parse("10.0.0.0/8"), "big")
        assert trie.lookup(address) == "big"

    @pytest.mark.parametrize("address", [-1, MAX_IPV4 + 1])
    def test_out_of_range_raises_on_every_call(self, address):
        trie = LongestPrefixMatcher()
        trie.insert(Prefix(0, 0), "default")
        for _ in range(3):
            with pytest.raises(ValueError):
                trie.lookup(address)

    def test_covers(self):
        trie = LongestPrefixMatcher()
        trie.insert(Prefix.parse("10.0.0.0/8"), 1)
        assert trie.covers(ip_to_int("10.9.9.9"))
        assert not trie.covers(ip_to_int("11.0.0.0"))

    @given(
        st.lists(prefix_strategy(min_len=1, max_len=28), min_size=1, max_size=20),
        addresses,
    )
    @settings(max_examples=200)
    def test_matches_brute_force(self, prefixes, address):
        trie = LongestPrefixMatcher()
        table = {}
        for index, prefix in enumerate(prefixes):
            trie.insert(prefix, index)
            table[prefix] = index  # later insert wins, as in the trie
        expected = None
        best_length = -1
        for prefix, value in table.items():
            if address in prefix and prefix.length > best_length:
                best_length = prefix.length
                expected = value
        assert trie.lookup(address) == expected
