"""MIDAR-style alias resolution via the monotonic bounds test.

Section 4.1 resolves 25,756 peering interfaces into routers with MIDAR
(Keys et al., ToN 2013).  The idea: many routers stamp outgoing packets
from one shared, monotonically increasing IP-ID counter.  If interleaved
probe responses from two addresses are consistent with a *single*
increasing (mod 2^16) counter of plausible velocity, the addresses are
aliases of one router.

Pipeline stages, mirroring MIDAR:

1. **Estimation** — probe each address with a short train; discard
   unresponsive targets, constant-zero responders, and targets whose
   implied counter velocity is implausibly high (random IP-IDs).
2. **Sieving** — only pairs with overlapping velocity ranges are worth
   the pairwise test (keeps probing sub-quadratic in spirit).
3. **Elimination** — interleaved probe trains per candidate pair; the
   monotonic bounds test must pass in *every* round.
4. **Corroboration** — union-find merge of surviving pairs into alias
   sets.

The resolver also performs the IP-to-ASN repair of Section 4.1: alias
sets whose members longest-prefix-map to different ASNs (shared
point-to-point subnets) are reassigned to the majority ASN.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..measurement.ipid import IPID_MODULUS, IpidResponder
from ..obs import Instrumentation

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from ..faults.injector import FaultInjector

__all__ = [
    "monotonic_mod_sequence",
    "velocity_estimate",
    "UnionFind",
    "AliasSets",
    "MidarConfig",
    "MidarResolver",
    "repair_ip_to_asn",
]


def monotonic_mod_sequence(samples: list[int], modulus: int = IPID_MODULUS) -> bool:
    """True if ``samples`` can be one increasing counter mod ``modulus``.

    The counter may wrap, but the *total* advance across the train must
    stay under one full cycle — the monotonic bounds test's core check.
    A train shorter than two samples is vacuously monotonic.
    """
    if len(samples) < 2:
        return True
    total_advance = 0
    for previous, current in zip(samples, samples[1:]):
        step = (current - previous) % modulus
        if step == 0:
            return False  # a shared counter always advances between probes
        total_advance += step
        if total_advance >= modulus:
            return False
    return True


def velocity_estimate(samples: list[int], modulus: int = IPID_MODULUS) -> float | None:
    """Mean IP-ID advance per probe, or ``None`` if not monotonic."""
    if len(samples) < 2:
        return None
    if not monotonic_mod_sequence(samples, modulus):
        return None
    total = sum(
        (current - previous) % modulus
        for previous, current in zip(samples, samples[1:])
    )
    return total / (len(samples) - 1)


class UnionFind:
    """Disjoint sets over arbitrary hashable items (path compression)."""

    def __init__(self) -> None:
        self._parent: dict[object, object] = {}
        self._rank: dict[object, int] = {}

    def add(self, item: object) -> None:
        """Ensure ``item`` is tracked as its own set if unseen."""
        if item not in self._parent:
            self._parent[item] = item
            self._rank[item] = 0

    def find(self, item: object) -> object:
        """Representative of ``item``'s set (path-compressed)."""
        self.add(item)
        root = item
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[item] != root:
            self._parent[item], item = root, self._parent[item]
        return root

    def union(self, a: object, b: object) -> None:
        """Merge the sets containing ``a`` and ``b``."""
        root_a, root_b = self.find(a), self.find(b)
        if root_a == root_b:
            return
        if self._rank[root_a] < self._rank[root_b]:
            root_a, root_b = root_b, root_a
        self._parent[root_b] = root_a
        if self._rank[root_a] == self._rank[root_b]:
            self._rank[root_a] += 1

    def groups(self) -> list[set]:
        """All disjoint sets as a list of membership sets."""
        by_root: dict[object, set] = {}
        for item in self._parent:
            by_root.setdefault(self.find(item), set()).add(item)
        return list(by_root.values())


@dataclass(slots=True)
class AliasSets:
    """Resolved alias sets plus a per-address index."""

    sets: list[frozenset[int]] = field(default_factory=list)
    _index: dict[int, int] = field(default_factory=dict)

    @classmethod
    def from_groups(cls, groups: list[set[int]]) -> "AliasSets":
        """Build alias sets from raw groups, dropping singletons."""
        result = cls()
        for group in sorted(groups, key=lambda g: min(g)):
            if len(group) < 2:
                continue
            set_id = len(result.sets)
            result.sets.append(frozenset(group))
            for address in group:
                result._index[address] = set_id
        return result

    def aliases_of(self, address: int) -> frozenset[int]:
        """All known aliases of ``address`` (including itself)."""
        set_id = self._index.get(address)
        if set_id is None:
            return frozenset((address,))
        return self.sets[set_id]

    def are_aliases(self, a: int, b: int) -> bool:
        """True if both addresses sit in the same alias set."""
        set_a = self._index.get(a)
        return set_a is not None and set_a == self._index.get(b)

    def __len__(self) -> int:
        return len(self.sets)


@dataclass(frozen=True, slots=True)
class MidarConfig:
    """Probing and acceptance knobs."""

    #: Probes per address in the estimation stage.
    estimation_train: int = 5
    #: Interleaved rounds per candidate pair in elimination.
    elimination_rounds: int = 3
    #: Probes per address per elimination round.
    elimination_train: int = 4
    #: Velocity ratio above which two addresses cannot share a counter.
    #: Aliases observe the *same* counter, so their measured velocities
    #: match closely; a tight bound keeps pairwise probing tractable.
    velocity_ratio_bound: float = 1.15
    #: Velocities above this are treated as random IP-ID (not usable).
    max_plausible_velocity: float = 2000.0

    def __post_init__(self) -> None:
        # Fewer rounds accept every candidate pair unprobed; a shorter
        # train has no per-address stride and rejects every pair.
        if self.elimination_rounds < 1:
            raise ValueError("elimination_rounds must be at least 1")
        if self.elimination_train < 2:
            raise ValueError("elimination_train must be at least 2")


class MidarResolver:
    """Runs the MIDAR stages against an :class:`IpidResponder`."""

    def __init__(
        self,
        responder: IpidResponder,
        config: MidarConfig | None = None,
        instrumentation: Instrumentation | None = None,
        fault_injector: "FaultInjector | None" = None,
    ) -> None:
        self._responder = responder
        self.config = config or MidarConfig()
        self._obs = instrumentation or Instrumentation()
        self._faults = fault_injector
        self.probes_sent = 0
        # Pair verdicts persist across resolve() calls: re-running the
        # pipeline's periodic alias refresh only probes pairs involving
        # newly observed addresses (MIDAR similarly reuses run state
        # between its corroboration rounds).  ``_decided_pairs`` holds
        # every verdict, ``_accepted_pairs`` the passing subset.
        self._decided_pairs: set[tuple[int, int]] = set()
        self._accepted_pairs: set[tuple[int, int]] = set()

    def resolve(self, addresses: list[int]) -> AliasSets:
        """Group ``addresses`` into alias sets.

        One fused loop runs all four stages.  Counter addresses are
        probed by advancing the responder's cells inline (the same
        ``counter + velocity`` float addition :meth:`IpidResponder.probe`
        performs); every other address goes through ``probe``.  Probes,
        their order and every RNG draw are exactly those of probing
        each pair with :meth:`IpidResponder.probe`, train by train.
        """
        config = self.config
        responder = self._responder
        probe = responder.probe
        route = responder.route
        counters = responder.counters
        cell_velocities = responder.velocities
        modulus = IPID_MODULUS
        probes = 0

        # -- stage 1: estimation ---------------------------------------
        # Velocity per usable address; unusable addresses are dropped.
        estimation_train = config.estimation_train
        velocities: dict[int, float] = {}
        cells: dict[int, int] = {}
        for address in sorted(set(addresses)):
            # First contact creates the address's cell (an RNG draw)
            # exactly where its first probe would.
            dispatch = route(address)
            probes += estimation_train
            if dispatch is None:
                continue  # not an interface: no reply to any probe
            cell = dispatch[1]
            if cell >= 0:
                samples = []
                counter = counters[cell]
                step = cell_velocities[cell]
                for _ in range(estimation_train):
                    counter += step
                    samples.append(int(counter) % modulus)
                counters[cell] = counter
            else:
                samples = [probe(address) for _ in range(estimation_train)]
                if None in samples:
                    continue  # unresponsive (Google-style) targets
            if all(s == samples[0] for s in samples):
                continue  # constant IP-ID
            velocity = velocity_estimate(samples)
            if velocity is None or velocity > config.max_plausible_velocity:
                continue  # random IP-ID
            velocities[address] = velocity
            cells[address] = cell

        union_find = UnionFind()
        for address in velocities:
            union_find.add(address)
        #: Addresses in a union of two or more: only a pair of these can
        #: already be merged transitively.
        merged: set[int] = set()
        for pair in self._accepted_pairs:
            if pair[0] in velocities and pair[1] in velocities:
                union_find.union(*pair)
                merged.update(pair)

        # -- stages 2-4: sieve, elimination, corroboration -------------
        # A sliding window over velocity-sorted addresses: only pairs
        # within the configured ratio can share one counter, which
        # keeps elimination far below the naive quadratic probe count.
        ranked = sorted(velocities.items(), key=lambda item: (item[1], item[0]))
        ranked_addresses = [address for address, _ in ranked]
        ranked_velocities = [velocity for _, velocity in ranked]
        ranked_cells = [cells[address] for address in ranked_addresses]
        bound = config.velocity_ratio_bound
        rounds = config.elimination_rounds
        train = config.elimination_train
        decided = self._decided_pairs
        accepted = self._accepted_pairs
        faults = self._faults
        cache_hits = probed = accepted_count = false_negatives = 0
        size = len(ranked)
        for i in range(size):
            a = ranked_addresses[i]
            velocity_a = ranked_velocities[i]
            cell_a = ranked_cells[i]
            step_a = cell_velocities[cell_a] if cell_a >= 0 else 0.0
            a_merged = a in merged
            ceiling = velocity_a * bound
            for j in range(i + 1, size):
                velocity_b = ranked_velocities[j]
                if velocity_b > ceiling:
                    break
                b = ranked_addresses[j]
                pair = (a, b) if a < b else (b, a)
                if pair in decided:
                    # Verdict cached from an earlier refresh: no re-probing.
                    cache_hits += 1
                    continue
                # Corroboration shortcut: if already merged transitively,
                # skip the probes (MIDAR does the same to bound probing).
                if (
                    a_merged
                    and b in merged
                    and union_find.find(a) == union_find.find(b)
                ):
                    continue
                probed += 1
                cell_b = ranked_cells[j]
                step_b = cell_velocities[cell_b] if cell_b >= 0 else 0.0
                # Elimination: interleaved trains a, b, a, b, ...; every
                # round must pass the monotonic bounds test, checked
                # incrementally.  Cells are read and written per probe,
                # so a shared router's pair advances one cell.  Only
                # counter and random-draw addresses pass estimation, so
                # ``probe`` always answers here.  Round one opens a, b,
                # a: for two unrelated counters the interleaved advance
                # almost always reaches a full cycle by a's second
                # sample, so most pairs stop after three probes.
                if cell_a >= 0:
                    counter = counters[cell_a] = counters[cell_a] + step_a
                    first = int(counter) % modulus
                else:
                    first = probe(a)
                if cell_b >= 0:
                    counter = counters[cell_b] = counters[cell_b] + step_b
                    second = int(counter) % modulus
                else:
                    second = probe(b)
                total = (second - first) % modulus
                if not total:
                    probes += 2
                    decided.add(pair)
                    continue
                if cell_a >= 0:
                    counter = counters[cell_a] = counters[cell_a] + step_a
                    third = int(counter) % modulus
                else:
                    third = probe(a)
                probes += 3
                advance = (third - second) % modulus
                total += advance
                if not advance or total >= modulus:
                    decided.add(pair)
                    continue
                # The rest of the rounds, probe by probe.
                expected_stride = velocity_a + velocity_b
                tolerance = 0.8 + 0.05 * expected_stride
                samples = [first, second, third]
                passed = True
                for round_index in range(rounds):
                    if round_index:
                        samples = []
                        total = 0
                    for position in range(len(samples), 2 * train):
                        address, cell = (b, cell_b) if position & 1 else (a, cell_a)
                        probes += 1
                        if cell >= 0:
                            counter = counters[cell] = (
                                counters[cell] + cell_velocities[cell]
                            )
                            sample = int(counter) % modulus
                        else:
                            sample = probe(address)
                        if samples:
                            advance = (sample - samples[-1]) % modulus
                            total += advance
                            if not advance or total >= modulus:
                                passed = False
                                break
                        samples.append(sample)
                    if not passed:
                        break
                    # Velocity consistency: when two addresses share
                    # one counter, probing them alternately makes each
                    # one's own samples advance at the combined rate
                    # ``velocity_a + velocity_b``.  Two independent
                    # counters that happen to be phase-aligned pass plain
                    # monotonicity but still advance at their solo rates
                    # — this check keeps MIDAR's false-positive rate
                    # negligible at scale.
                    strides = (
                        velocity_estimate(samples[0::2]),
                        velocity_estimate(samples[1::2]),
                    )
                    if any(
                        stride is None or abs(stride - expected_stride) > tolerance
                        for stride in strides
                    ):
                        passed = False
                        break
                if not passed:
                    decided.add(pair)
                    continue
                # Chaos layer: congestion can break an elimination train
                # and turn a true alias pair into a (cached!) rejection.
                if faults is not None and faults.alias_false_negative():
                    decided.add(pair)
                    false_negatives += 1
                    continue
                union_find.union(a, b)
                a_merged = True
                merged.add(a)
                merged.add(b)
                decided.add(pair)
                accepted.add(pair)
                accepted_count += 1

        obs = self._obs
        for name, value in (
            ("midar.pair_cache_hits", cache_hits),
            ("midar.pairs_probed", probed),
            ("midar.fault_false_negatives", false_negatives),
            ("midar.pairs_accepted", accepted_count),
        ):
            if value:
                obs.count(name, value)
        self.probes_sent += probes
        obs.count("midar.probes_sent", probes)
        result = AliasSets.from_groups(union_find.groups())
        obs.emit(
            "midar.resolve",
            addresses=len(addresses),
            usable=len(velocities),
            alias_sets=len(result),
            probes=probes,
        )
        return result


def repair_ip_to_asn(
    alias_sets: AliasSets, ip_to_asn: dict[int, int | None]
) -> dict[int, int | None]:
    """Majority-vote repair of IP-to-ASN conflicts within alias sets.

    Interfaces of one router must belong to one operator; when the
    longest-prefix mapping disagrees inside an alias set (shared
    point-to-point subnets), every member is reassigned to the ASN held
    by the majority of members, as proposed by Chang et al. and adopted
    in Section 4.1.  Ties keep the original mapping.
    """
    repaired = dict(ip_to_asn)
    for alias_set in alias_sets.sets:
        votes: dict[int, int] = {}
        for address in alias_set:
            asn = ip_to_asn.get(address)
            if asn is not None:
                votes[asn] = votes.get(asn, 0) + 1
        if len(votes) <= 1:
            continue
        ranked = sorted(votes.items(), key=lambda item: (-item[1], item[0]))
        if len(ranked) > 1 and ranked[0][1] == ranked[1][1]:
            continue  # tie: no repair
        majority = ranked[0][0]
        for address in alias_set:
            if ip_to_asn.get(address) is not None:
                repaired[address] = majority
    return repaired
