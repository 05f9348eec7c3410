"""CFS Step 1: identify public and private peerings in traceroute data.

Section 4.2, Step 1.  Given IP-to-ASN mapped traceroute paths:

* a hop sequence ``(IP_A, IP_e, IP_B)`` where ``IP_e`` falls inside the
  address space of an active IXP marks a **public** peering ``(A, B)``
  established over that exchange;
* a direct sequence ``(IP_A, IP_B)`` with the two addresses mapping to
  different ASes (and neither inside IXP space) marks a **private**
  interconnection — cross-connect, tethering, or remote private peering;
* sequences interrupted by unresponsive or unmapped hops are discarded
  (the paper drops paths where ``IP_e`` is unresolved or unresponsive).

The near-side interface of every crossing — and, for public peerings,
the far side's peering-LAN port — become the subjects of Steps 2-4.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from ..measurement.traceroute import Traceroute
from ..obs import Instrumentation
from .facility_db import FacilityDatabase
from .types import ObservedPeering, PeeringKind

__all__ = ["PeeringClassifier"]


class PeeringClassifier:
    """Extracts :class:`ObservedPeering` records from traceroutes."""

    def __init__(
        self,
        facility_db: FacilityDatabase,
        instrumentation: Instrumentation | None = None,
    ) -> None:
        self._db = facility_db
        self._obs = instrumentation or Instrumentation()

    # ------------------------------------------------------------------

    def extract(
        self,
        traces: Iterable[Traceroute],
        ip_to_asn: Mapping[int, int | None],
        into: dict[tuple, ObservedPeering] | None = None,
    ) -> dict[tuple, ObservedPeering]:
        """Parse ``traces`` and merge crossings into ``into``.

        Repeated sightings of the same crossing are merged: observation
        counts accumulate and the RTT step keeps its minimum (the paper
        repeats measurements at different times of day to shed transient
        congestion before the delay-based remote-peering test).
        """
        observations = into if into is not None else {}
        parsed = 0
        for trace in traces:
            parsed += 1
            addresses = trace.addresses
            rtts = trace.rtts
            for start, stop in self._responsive_runs(addresses):
                self._scan_run(
                    addresses, rtts, start, stop, ip_to_asn, observations,
                    dst_address=trace.dst_address,
                )
        self._obs.count("classify.traces_parsed", parsed)
        return observations

    @staticmethod
    def _responsive_runs(
        addresses: tuple[int | None, ...],
    ) -> list[tuple[int, int]]:
        """Maximal ``(start, stop)`` hop ranges of two or more
        consecutive responsive hops.

        An unresponsive hop hides a router, so adjacency across it is
        unknown and any crossing spanning it must be discarded.
        """
        runs: list[tuple[int, int]] = []
        start = 0
        for index, address in enumerate(addresses):
            if address is None:
                if index - start >= 2:
                    runs.append((start, index))
                start = index + 1
        if len(addresses) - start >= 2:
            runs.append((start, len(addresses)))
        return runs

    # ------------------------------------------------------------------

    def _scan_run(
        self,
        addresses: tuple[int | None, ...],
        rtts: tuple[float | None, ...],
        start: int,
        stop: int,
        ip_to_asn: Mapping[int, int | None],
        observations: dict[tuple, ObservedPeering],
        dst_address: int | None = None,
    ) -> None:
        """Record every crossing among hops ``start:stop``, a run of
        responsive hops."""
        ixp_of_address = self._db.ixp_of_address
        for index in range(start, stop - 1):
            near = addresses[index]
            middle = addresses[index + 1]
            middle_ixp = ixp_of_address(middle)
            if middle_ixp is not None:
                # Public peering candidate: (near, IXP hop, far).  The
                # far border router is consumed as the IXP hop, and the
                # scan continues from it.
                if index + 2 < stop:
                    self._record_public(
                        near,
                        rtts[index],
                        middle,
                        rtts[index + 1],
                        addresses[index + 2],
                        middle_ixp,
                        ip_to_asn,
                        observations,
                    )
                continue
            if middle == dst_address:
                # The destination answers the echo from the probed
                # address, not from its ingress interface — the crossing
                # type (and the real ingress) is unobservable, so no
                # constraint may be derived from this pair.
                continue
            if ixp_of_address(near) is None:
                self._record_private(
                    near,
                    rtts[index],
                    middle,
                    rtts[index + 1],
                    ip_to_asn,
                    observations,
                )

    # ------------------------------------------------------------------
    # Record builders
    # ------------------------------------------------------------------

    def _record_public(
        self,
        near_address: int,
        near_rtt: float | None,
        middle_address: int,
        middle_rtt: float | None,
        far_address: int,
        ixp_id: int,
        ip_to_asn: Mapping[int, int | None],
        observations: dict[tuple, ObservedPeering],
    ) -> None:
        near_asn = ip_to_asn.get(near_address)
        # The peering-LAN port belongs to the far border router, so its
        # (alias-repaired) mapping identifies the far AS most reliably —
        # essential when the hop after it is another exchange's LAN port
        # (multi-IXP routers, Section 5).  Fall back to the next hop.
        far_asn = ip_to_asn.get(middle_address)
        if far_asn is None or far_asn not in self._db.members_of(ixp_id):
            far_asn = ip_to_asn.get(far_address)
        if near_asn is None or far_asn is None or near_asn == far_asn:
            return
        self._obs.count("classify.crossings_public")
        rtt_step = (
            None
            if near_rtt is None or middle_rtt is None
            else middle_rtt - near_rtt
        )
        observation = ObservedPeering(
            kind=PeeringKind.PUBLIC,
            near_address=near_address,
            near_asn=near_asn,
            far_asn=far_asn,
            far_address=far_address,
            ixp_id=ixp_id,
            ixp_address=middle_address,
            min_rtt_step_ms=rtt_step,
        )
        self.merge(observations, observation)

    def _record_private(
        self,
        near_address: int,
        near_rtt: float | None,
        far_address: int,
        far_rtt: float | None,
        ip_to_asn: Mapping[int, int | None],
        observations: dict[tuple, ObservedPeering],
    ) -> None:
        near_asn = ip_to_asn.get(near_address)
        far_asn = ip_to_asn.get(far_address)
        if near_asn is None or far_asn is None or near_asn == far_asn:
            return
        self._obs.count("classify.crossings_private")
        rtt_step = (
            None if near_rtt is None or far_rtt is None else far_rtt - near_rtt
        )
        observation = ObservedPeering(
            kind=PeeringKind.PRIVATE,
            near_address=near_address,
            near_asn=near_asn,
            far_asn=far_asn,
            far_address=far_address,
            min_rtt_step_ms=rtt_step,
        )
        self.merge(observations, observation)

    @staticmethod
    def merge(
        observations: dict[tuple, ObservedPeering], observation: ObservedPeering
    ) -> None:
        """Fold one crossing record into ``observations``.

        Counts accumulate and the RTT step keeps its minimum; the first
        record's non-key fields win, so merging per-trace record batches
        in trace order is equivalent to one streaming pass.
        """
        key = observation.key()
        existing = observations.get(key)
        if existing is None:
            observations[key] = observation
            return
        steps = [
            step
            for step in (existing.min_rtt_step_ms, observation.min_rtt_step_ms)
            if step is not None
        ]
        observations[key] = ObservedPeering(
            kind=existing.kind,
            near_address=existing.near_address,
            near_asn=existing.near_asn,
            far_asn=existing.far_asn,
            far_address=existing.far_address,
            ixp_id=existing.ixp_id,
            ixp_address=existing.ixp_address,
            min_rtt_step_ms=min(steps) if steps else None,
            observations=existing.observations + observation.observations,
        )
