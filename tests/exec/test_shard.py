"""Unit tests for the shard planner and named RNG substreams."""

from __future__ import annotations

import pytest

from repro.exec import plan_shards, stable_key, substream


class TestStableKey:
    def test_fixed_by_bytes_alone(self):
        # CRC-32 of the UTF-8 bytes: pinned values guard against any
        # accidental switch to the hash-randomised builtin ``hash()``.
        assert stable_key("") == 0
        assert stable_key("ripe-atlas:vp-001") == stable_key("ripe-atlas:vp-001")
        assert stable_key("a") != stable_key("b")

    def test_substream_is_named_not_sequential(self):
        # The same name always yields the same stream, independent of
        # how many other streams were drawn before it.
        first = substream("trace", 0, "vp-1", 167837954, 0).random()
        substream("other", 1).random()  # unrelated draw in between
        again = substream("trace", 0, "vp-1", 167837954, 0).random()
        assert first == again
        assert substream("trace", 0, "vp-1", 167837954, 1).random() != first


class TestPlanShards:
    def test_preserves_order_and_indices(self):
        items = [f"item-{i}" for i in range(40)]
        shards = plan_shards(items, 4, key=lambda item: item)
        covered = {}
        for shard in shards:
            assert list(shard.item_indices) == sorted(shard.item_indices)
            for position, item in zip(shard.item_indices, shard.items):
                covered[position] = item
        assert covered == {i: items[i] for i in range(40)}

    def test_equal_keys_share_a_shard(self):
        items = list(range(20))
        shards = plan_shards(items, 5, key=lambda item: f"vp-{item % 3}")
        shard_of_key: dict[int, int] = {}
        for shard in shards:
            for item in shard.items:
                # All items with one key land in exactly one shard
                # (shards may host several keys; keys never split).
                assert shard_of_key.setdefault(item % 3, shard.index) == shard.index

    def test_assignment_independent_of_item_order(self):
        items = [f"k{i}" for i in range(30)]
        forward = plan_shards(items, 4, key=str)
        reverse = plan_shards(list(reversed(items)), 4, key=str)
        by_key_fwd = {
            item: shard.index for shard in forward for item in shard.items
        }
        # Shard *membership* is a pure function of the key; only the
        # positional bookkeeping follows the input order.
        groups_fwd = {
            frozenset(shard.items) for shard in forward
        }
        groups_rev = {
            frozenset(shard.items) for shard in reverse
        }
        assert groups_fwd == groups_rev
        assert len(by_key_fwd) == 30

    def test_empty_shards_dropped_and_reindexed(self):
        shards = plan_shards(["a", "b"], 16, key=str)
        assert [shard.index for shard in shards] == list(range(len(shards)))
        assert 1 <= len(shards) <= 2

    def test_single_shard_is_identity(self):
        items = ["x", "y", "z"]
        (shard,) = plan_shards(items, 1, key=str)
        assert shard.items == ("x", "y", "z")
        assert shard.item_indices == (0, 1, 2)

    def test_rejects_nonpositive_shards(self):
        with pytest.raises(ValueError, match="at least 1"):
            plan_shards(["a"], 0, key=str)
