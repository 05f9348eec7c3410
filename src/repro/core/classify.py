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

__all__ = ["CrossingBatch", "CrossingTally", "PeeringClassifier", "fold_crossings"]

#: One trace's crossings in hop order: ``(key, record)`` pairs, where
#: ``key`` is ``record.key()``.  A crossing the trace repeats appears
#: once per sighting; folding settles repeats.
CrossingBatch = list[tuple[tuple, ObservedPeering]]

_PUBLIC = PeeringKind.PUBLIC
_PRIVATE = PeeringKind.PRIVATE


class CrossingTally:
    """Running total of one crossing key over repeated sightings.

    The first record's non-key fields win; ``observations`` sums the
    records' counts and ``min_rtt_step_ms`` keeps the smallest known
    step (the paper repeats measurements at different times of day to
    shed transient congestion before the delay-based remote-peering
    test).  A repeat only bumps the two totals; :meth:`freeze` builds
    the merged :class:`ObservedPeering` when a reader asks for it.
    """

    __slots__ = ("first", "observations", "min_rtt_step_ms", "_frozen")

    def __init__(self, record: ObservedPeering) -> None:
        self.first = record
        self.observations = record.observations
        self.min_rtt_step_ms = record.min_rtt_step_ms
        #: The record as it stands, or ``None`` after a repeat changed it.
        self._frozen: ObservedPeering | None = record

    def add(self, record: ObservedPeering) -> None:
        """Fold one more sighting of this key."""
        self.observations += record.observations
        step = record.min_rtt_step_ms
        if step is not None and (
            self.min_rtt_step_ms is None or step < self.min_rtt_step_ms
        ):
            self.min_rtt_step_ms = step
        self._frozen = None

    def freeze(self) -> ObservedPeering:
        """The crossing as one record; a key seen once is its first
        record, and an unchanged tally returns the record it built
        last time."""
        frozen = self._frozen
        if frozen is None:
            first = self.first
            frozen = self._frozen = ObservedPeering(
                kind=first.kind,
                near_address=first.near_address,
                near_asn=first.near_asn,
                far_asn=first.far_asn,
                far_address=first.far_address,
                ixp_id=first.ixp_id,
                ixp_address=first.ixp_address,
                min_rtt_step_ms=self.min_rtt_step_ms,
                observations=self.observations,
            )
        return frozen


def fold_crossings(
    tallies: dict[tuple, CrossingTally], batch: CrossingBatch
) -> None:
    """Fold one trace's crossings into ``tallies``.

    New keys are appended, so folding batches in trace order yields the
    dict (keys, order, totals) of one streaming pass over the traces.
    """
    for key, record in batch:
        tally = tallies.get(key)
        if tally is None:
            tallies[key] = CrossingTally(record)
        else:
            tally.add(record)


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
        counts accumulate and the RTT step keeps its minimum.
        """
        observations = into if into is not None else {}
        tallies = {
            key: CrossingTally(record) for key, record in observations.items()
        }
        for batch in self.parse(traces, ip_to_asn):
            if batch is not None:
                fold_crossings(tallies, batch)
        for key, tally in tallies.items():
            observations[key] = tally.freeze()
        return observations

    def parse(
        self,
        traces: Iterable[Traceroute],
        ip_to_asn: Mapping[int, int | None],
    ) -> list[CrossingBatch | None]:
        """Each trace's crossings, one batch per trace in trace order.

        ``None`` stands for a trace crossing no peering (most of them),
        so a cache of batches holds no empty containers.
        """
        batches: list[CrossingBatch | None] = []
        crossings = public = 0
        found: CrossingBatch = []
        for trace in traces:
            addresses = trace.addresses
            rtts = trace.rtts
            for start, stop in self._responsive_runs(addresses):
                public += self._scan_run(
                    addresses, rtts, start, stop, ip_to_asn, found,
                    dst_address=trace.dst_address,
                )
            if found:
                crossings += len(found)
                batches.append(found)
                found = []
            else:
                batches.append(None)
        if batches:
            self._obs.count("classify.traces_parsed", len(batches))
        private = crossings - public
        if public:
            self._obs.count("classify.crossings_public", public)
        if private:
            self._obs.count("classify.crossings_private", private)
        return batches

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
        found: CrossingBatch,
        dst_address: int | None = None,
    ) -> int:
        """Append every crossing among hops ``start:stop``, a run of
        responsive hops, to ``found``; returns how many are public.

        Each hop's exchange is looked up once: a hop's lookup as the
        middle of one pair is reused as the near side of the next.
        """
        ixp_of_address = self._db.ixp_of_address
        asn_of = ip_to_asn.get
        public = 0
        near_ixp = ixp_of_address(addresses[start])
        for index in range(start, stop - 1):
            near = addresses[index]
            middle = addresses[index + 1]
            middle_ixp = ixp_of_address(middle)
            if middle_ixp is not None:
                # Public peering candidate: (near, IXP hop, far).  The
                # far border router is consumed as the IXP hop, and the
                # scan continues from it.
                if index + 2 < stop:
                    record = self._record_public(
                        near,
                        rtts[index],
                        middle,
                        rtts[index + 1],
                        addresses[index + 2],
                        middle_ixp,
                        ip_to_asn,
                    )
                    if record is not None:
                        found.append(
                            ((_PUBLIC, near, record.far_asn, middle_ixp, None),
                             record)
                        )
                        public += 1
            elif middle != dst_address and near_ixp is None:
                # The destination answers the echo from the probed
                # address, not from its ingress interface — the crossing
                # type (and the real ingress) is unobservable, so no
                # constraint may be derived from a pair ending there.
                near_asn = asn_of(near)
                far_asn = asn_of(middle)
                if (
                    near_asn is not None
                    and far_asn is not None
                    and near_asn != far_asn
                ):
                    near_rtt = rtts[index]
                    far_rtt = rtts[index + 1]
                    found.append(
                        (
                            (_PRIVATE, near, far_asn, None, middle),
                            ObservedPeering(
                                kind=_PRIVATE,
                                near_address=near,
                                near_asn=near_asn,
                                far_asn=far_asn,
                                far_address=middle,
                                min_rtt_step_ms=(
                                    None
                                    if near_rtt is None or far_rtt is None
                                    else far_rtt - near_rtt
                                ),
                            ),
                        )
                    )
            near_ixp = middle_ixp
        return public

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
    ) -> ObservedPeering | None:
        """The public crossing over ``ixp_id``, or ``None`` when either
        side is unmapped or both sides map to one AS."""
        near_asn = ip_to_asn.get(near_address)
        # The peering-LAN port belongs to the far border router, so its
        # (alias-repaired) mapping identifies the far AS most reliably —
        # essential when the hop after it is another exchange's LAN port
        # (multi-IXP routers, Section 5).  Fall back to the next hop.
        far_asn = ip_to_asn.get(middle_address)
        if far_asn is None or far_asn not in self._db.members_of(ixp_id):
            far_asn = ip_to_asn.get(far_address)
        if near_asn is None or far_asn is None or near_asn == far_asn:
            return None
        rtt_step = (
            None
            if near_rtt is None or middle_rtt is None
            else middle_rtt - near_rtt
        )
        return ObservedPeering(
            kind=_PUBLIC,
            near_address=near_address,
            near_asn=near_asn,
            far_asn=far_asn,
            far_address=far_address,
            ixp_id=ixp_id,
            ixp_address=middle_address,
            min_rtt_step_ms=rtt_step,
        )
