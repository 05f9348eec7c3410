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
from random import Random

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


class MidarResolver:
    """Runs the MIDAR stages against an :class:`IpidResponder`."""

    def __init__(
        self,
        responder: IpidResponder,
        config: MidarConfig | None = None,
        seed: int = 0,
        instrumentation: Instrumentation | None = None,
        fault_injector: "FaultInjector | None" = None,
    ) -> None:
        self._responder = responder
        self.config = config or MidarConfig()
        self._rng = Random(seed)
        self._obs = instrumentation or Instrumentation()
        self._faults = fault_injector
        self.probes_sent = 0
        # Pair verdicts persist across resolve() calls: re-running the
        # pipeline's periodic alias refresh only probes pairs involving
        # newly observed addresses (MIDAR similarly reuses run state
        # between its corroboration rounds).
        self._rejected_pairs: set[tuple[int, int]] = set()
        self._accepted_pairs: set[tuple[int, int]] = set()

    # -- stage 1 -------------------------------------------------------

    def _estimate(self, addresses: list[int]) -> dict[int, float]:
        """Velocity per usable address; unusable addresses are dropped."""
        velocities: dict[int, float] = {}
        for address in addresses:
            train = self._responder.probe_train(
                address, self.config.estimation_train
            )
            self.probes_sent += len(train)
            samples = [s for s in train if s is not None]
            if len(samples) < self.config.estimation_train:
                continue  # unresponsive (Google-style) targets
            if all(s == samples[0] for s in samples):
                continue  # constant IP-ID
            velocity = velocity_estimate(samples)
            if velocity is None or velocity > self.config.max_plausible_velocity:
                continue  # random IP-ID
            velocities[address] = velocity
        return velocities

    # -- stage 2 -------------------------------------------------------

    def _sieve(self, velocities: dict[int, float]) -> list[tuple[int, int]]:
        """Candidate pairs whose velocities could share one counter.

        A sliding window over velocity-sorted addresses: only pairs
        within the configured ratio are worth probing, which keeps the
        elimination stage far below the naive quadratic probe count.
        """
        ranked = sorted(velocities.items(), key=lambda item: (item[1], item[0]))
        bound = self.config.velocity_ratio_bound
        candidates: list[tuple[int, int]] = []
        for i, (address_a, velocity_a) in enumerate(ranked):
            ceiling = velocity_a * bound
            for address_b, velocity_b in ranked[i + 1 :]:
                if velocity_b > ceiling:
                    break
                candidates.append((address_a, address_b))
        return candidates

    # -- stage 3 -------------------------------------------------------

    def _eliminate(self, a: int, b: int, velocity_a: float, velocity_b: float) -> bool:
        """Interleaved monotonic bounds test; all rounds must pass.

        Besides pure monotonicity, the bounds test checks *velocity
        consistency*: when two addresses share one counter, probing them
        alternately makes each address's own samples advance at the
        combined rate ``velocity_a + velocity_b`` (every probe to either
        address ticks the shared counter).  Two independent counters that
        happen to be phase-aligned pass plain monotonicity, but each
        address still advances at its own solo rate — this check is what
        keeps MIDAR's false-positive rate negligible at scale.
        """
        expected_stride = velocity_a + velocity_b
        tolerance = 0.8 + 0.05 * expected_stride
        probe = self._responder.probe
        train = self.config.elimination_train
        sent = 0
        try:
            for _ in range(self.config.elimination_rounds):
                samples_a: list[int] = []
                samples_b: list[int] = []
                last: int | None = None
                total_advance = 0
                for _ in range(train):
                    for samples, address in ((samples_a, a), (samples_b, b)):
                        sample = probe(address)
                        sent += 1
                        if sample is None:
                            return False
                        # Incremental bounds check: abort the train as
                        # soon as monotonicity is violated (most
                        # non-alias pairs fail within the first few
                        # probes).
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
        finally:
            self.probes_sent += sent

    # -- pipeline ------------------------------------------------------

    def resolve(self, addresses: list[int]) -> AliasSets:
        """Group ``addresses`` into alias sets."""
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
                # Verdict cached from an earlier refresh: no re-probing.
                self._obs.count("midar.pair_cache_hits")
                continue
            # Corroboration shortcut: if already merged transitively,
            # skip the probes (MIDAR does the same to bound probing).
            if union_find.find(a) == union_find.find(b):
                continue
            self._obs.count("midar.pairs_probed")
            if self._eliminate(a, b, velocities[a], velocities[b]):
                # Chaos layer: congestion can break an elimination train
                # and turn a true alias pair into a (cached!) rejection.
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
        result = AliasSets.from_groups(union_find.groups())
        self._obs.emit(
            "midar.resolve",
            addresses=len(addresses),
            usable=len(velocities),
            alias_sets=len(result),
            probes=self.probes_sent - probes_before,
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
