"""Round-trip-time synthesis for traceroute hops.

RTTs matter to the pipeline in one place: remote-peering detection
(Section 4.2 uses the delay-based method of Castro et al. [14]).  A
router that holds an IXP peering-LAN address but sits in a building far
from the exchange shows an RTT step incompatible with metro-local
forwarding; repeated measurements at different times of day filter out
transient congestion.

The model: RTT to hop *k* is twice the accumulated great-circle
propagation delay along the forward router path, plus a fixed per-hop
processing cost, plus non-negative jitter (occasionally a heavy
"congestion spike", which is why the detector takes the minimum over
repeated samples).
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random

from ..topology.geo import GeoLocation, propagation_delay_ms

__all__ = ["RttModel", "RttConfig"]


@dataclass(frozen=True, slots=True)
class RttConfig:
    """Knobs of the delay model."""

    #: Fixed per-router forwarding/queueing cost (ms, one-way).
    per_hop_processing_ms: float = 0.08
    #: Upper bound of uniform measurement jitter added per sample (ms).
    jitter_ms: float = 0.5
    #: Probability a single sample is inflated by transient congestion.
    congestion_prob: float = 0.05
    #: Maximum congestion inflation (ms).
    congestion_ms: float = 40.0
    #: Baseline local-loop delay at the vantage point (ms).
    access_ms: float = 1.0


class RttModel:
    """Synthesises per-hop RTT samples from geographic router paths."""

    def __init__(self, config: RttConfig | None = None, seed: int = 0) -> None:
        self.config = config or RttConfig()
        self._rng = Random(seed)

    def path_rtt_ms(self, locations: list[GeoLocation]) -> float:
        """Deterministic base RTT along an ordered location path.

        ``locations`` is the geographic position of the source followed
        by every router up to and including the responding hop.
        """
        one_way = self.config.access_ms / 2.0
        for here, there in zip(locations, locations[1:]):
            one_way += self.step_one_way_ms(here, there)
        return 2.0 * one_way

    def sample_rtt_ms(self, locations: list[GeoLocation]) -> float:
        """One noisy RTT sample along the path (base + jitter + spikes)."""
        one_way = self.config.access_ms / 2.0
        for here, there in zip(locations, locations[1:]):
            one_way += self.step_one_way_ms(here, there)
        return self.sample_from_one_way(one_way)

    def step_one_way_ms(self, here: GeoLocation, there: GeoLocation) -> float:
        """One-way cost of extending a path by one router hop."""
        return (
            propagation_delay_ms(here.distance_km(there))
            + self.config.per_hop_processing_ms
        )

    def sample_from_one_way(
        self, one_way_ms: float, rng: Random | None = None
    ) -> float:
        """One noisy RTT sample given an accumulated one-way base.

        The traceroute engine accumulates the base incrementally along
        the path, so per-hop sampling stays O(1).  ``rng`` selects the
        jitter stream; the engine passes its keyed per-trace substream
        so a trace's noise never depends on unrelated probes, and
        ``None`` falls back to the model's own sequential stream.
        """
        draw = self._rng if rng is None else rng
        rtt = 2.0 * one_way_ms
        rtt += draw.uniform(0.0, self.config.jitter_ms)
        if draw.random() < self.config.congestion_prob:
            rtt += draw.uniform(0.0, self.config.congestion_ms)
        return rtt

    def min_sample_ms(self, one_way_ms: float, rng: Random, samples: int) -> float:
        """Fastest of ``samples`` noisy RTT samples (the reported RTT).

        The traceroute engine's per-hop kernel: bit-identical to
        ``min(sample_from_one_way(one_way_ms, rng) for _ in
        range(samples))`` — the same draws in the same order, the same
        float expressions (``random.uniform(0.0, b)`` is ``0.0 + (b -
        0.0) * random()``), and the first minimum kept — without a
        generator and two method calls per sample.
        """
        if samples < 1:
            raise ValueError(f"need at least one RTT sample, got {samples}")
        random = rng.random
        config = self.config
        jitter = config.jitter_ms - 0.0
        congestion_prob = config.congestion_prob
        congestion = config.congestion_ms - 0.0
        base = 2.0 * one_way_ms
        best = 0.0
        for index in range(samples):
            rtt = base + (0.0 + jitter * random())
            if random() < congestion_prob:
                rtt += 0.0 + congestion * random()
            if index == 0 or rtt < best:
                best = rtt
        return best

    def metro_local_bound_ms(self) -> float:
        """Upper bound on the RTT step between two hops in one metro.

        Used by the remote-peering detector: a step larger than this, in
        *every* repeated sample, is incompatible with the far hop being
        in the same metropolitan area as the near hop.
        """
        # Metro diameter is bounded by the grouping radius; allow fabric
        # transit plus processing and jitter headroom.
        metro_ms = 2.0 * (propagation_delay_ms(60.0) + 3 * self.config.per_hop_processing_ms)
        return metro_ms + self.config.jitter_ms + 1.0
