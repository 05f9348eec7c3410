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

from ..measurement.traceroute import TraceHop, Traceroute
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
            for run in self._responsive_runs(trace):
                self._scan_run(
                    run, ip_to_asn, observations, dst_address=trace.dst_address
                )
        self._obs.count("classify.traces_parsed", parsed)
        return observations

    @staticmethod
    def _responsive_runs(trace: Traceroute) -> list[list[TraceHop]]:
        """Maximal sub-paths of consecutive responsive hops.

        An unresponsive hop hides a router, so adjacency across it is
        unknown and any crossing spanning it must be discarded.
        """
        runs: list[list[TraceHop]] = []
        current: list[TraceHop] = []
        for hop in trace.hops:
            if hop.address is None:
                if len(current) >= 2:
                    runs.append(current)
                current = []
            else:
                current.append(hop)
        if len(current) >= 2:
            runs.append(current)
        return runs

    # ------------------------------------------------------------------

    def _scan_run(
        self,
        run: list[TraceHop],
        ip_to_asn: Mapping[int, int | None],
        observations: dict[tuple, ObservedPeering],
        dst_address: int | None = None,
    ) -> None:
        index = 0
        while index < len(run) - 1:
            near = run[index]
            middle = run[index + 1]
            assert near.address is not None and middle.address is not None
            middle_ixp = self._db.ixp_of_address(middle.address)
            if middle_ixp is not None:
                # Public peering candidate: (near, IXP hop, far).
                if index + 2 < len(run):
                    far = run[index + 2]
                    assert far.address is not None
                    self._record_public(
                        near.address,
                        near.rtt_ms,
                        middle.address,
                        middle.rtt_ms,
                        far.address,
                        middle_ixp,
                        ip_to_asn,
                        observations,
                    )
                # The far border router has been consumed as the IXP hop;
                # continue scanning from it.
                index += 1
                continue
            if middle.address == dst_address:
                # The destination answers the echo from the probed
                # address, not from its ingress interface — the crossing
                # type (and the real ingress) is unobservable, so no
                # constraint may be derived from this pair.
                index += 1
                continue
            if self._db.ixp_of_address(near.address) is None:
                self._record_private(
                    near.address,
                    near.rtt_ms,
                    middle.address,
                    middle.rtt_ms,
                    ip_to_asn,
                    observations,
                )
            index += 1

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
