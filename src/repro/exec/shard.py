"""Seeded shard planning and named RNG substreams.

Parallel execution must not change a single output byte, which rules
out anything order- or timing-dependent:

* work is split by a **stable key** (CRC-32 of a caller-chosen string,
  never the PYTHONHASHSEED-randomised builtin ``hash``), so the same
  plan shards identically in every process and on every run;
* items keep their **original indices** through the shard, so the
  parent can merge results back into plan order no matter which shard
  finished first;
* randomness inside a shard comes from a **named substream**
  (``substream("shard", name, index)`` style) derived from string
  parts, never from a shared sequential stream whose state would
  depend on how work interleaves.

The planner is pure bookkeeping — it never touches the items.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from random import Random
from typing import Callable, Sequence, TypeVar

from ..sanitize import tag_rng

__all__ = ["Shard", "plan_shards", "stable_key", "substream"]

T = TypeVar("T")


def stable_key(text: str) -> int:
    """A process-stable 32-bit key for ``text``.

    The builtin ``hash()`` of a string varies per process under hash
    randomisation; CRC-32 is fixed by the bytes alone, so shard
    assignment survives forks, restarts, and resumed runs.
    """
    return zlib.crc32(text.encode("utf-8"))


def substream(*parts: object) -> Random:
    """A named RNG substream, e.g. ``substream("shard", name, index)``.

    Derived from the colon-joined string rendering of ``parts`` —
    ``random.Random`` seeds from strings deterministically — so every
    (name, index) pair owns an independent stream regardless of how
    many other streams were consumed before it.

    Under the sanitizer the stream is stamped with its derivation, so
    draw chokepoints can assert provenance (``assert_rng``).
    """
    key = ":".join(str(part) for part in parts)
    return tag_rng(Random(key), key)


@dataclass(frozen=True, slots=True)
class Shard:
    """One unit of parallel work: items plus their plan positions."""

    #: Position in the shard plan (merge order).
    index: int
    #: The items assigned to this shard, in original relative order.
    items: tuple
    #: Original plan index of each item (aligned with ``items``).
    item_indices: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.items)


def plan_shards(
    items: Sequence[T],
    shards: int,
    key: Callable[[T], str],
) -> list[Shard]:
    """Partition ``items`` into at most ``shards`` shards by key.

    Items with equal ``key`` strings land in the same shard (CRC-32 of
    the key modulo the shard count), and every shard preserves the
    items' original relative order.  Empty shards are dropped, so the
    returned list may be shorter than ``shards``.
    """
    if shards < 1:
        raise ValueError(f"shards must be at least 1, got {shards}")
    buckets: list[list[int]] = [[] for _ in range(shards)]
    for index, item in enumerate(items):
        buckets[stable_key(key(item)) % shards].append(index)
    planned: list[Shard] = []
    for bucket in buckets:
        if not bucket:
            continue
        planned.append(
            Shard(
                index=len(planned),
                items=tuple(items[i] for i in bucket),
                item_indices=tuple(bucket),
            )
        )
    return planned

