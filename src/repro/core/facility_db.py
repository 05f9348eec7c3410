"""Assembly of the AS/IXP-to-facility map (Section 3.1).

This is the knowledge base CFS searches over, built *only* from public
data sources:

* **AS -> facilities** — PeeringDB ``netfac`` bootstraps the map; NOC
  website listings fill the gaps Figure 2 quantifies;
* **IXP -> facilities** — PeeringDB ``ixfac`` plus IXP website facility
  lists (which recovered associations for 20 exchanges in the paper);
* **IXP peering LANs** — only exchanges passing the Section 3.1.2
  activeness filter are admitted; their prefixes feed the Step-1
  public-peering test;
* **IXP membership** — confirmed members (two or more sources), used by
  the tethering inference and follow-up targeting;
* **facility directory** — building-level facts (operator, metro,
  campus links) from the facility operators' own public directories.

City strings are canonicalised through the 5-mile metro grouping rule
before facilities are compared across sources.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..datasets.ixp_sources import IxpDataSources
from ..datasets.noc import NocWebsites
from ..datasets.normalize import LocationNormalizer
from ..datasets.peeringdb import PeeringDBSnapshot
from ..topology.addressing import LongestPrefixMatcher
from ..topology.facility import Facility, FacilityOperator

__all__ = ["FacilityDatabase"]

#: The association tables a derived database may replace; the
#: peering-LAN index is always shared (see ``with_tables``).
_TABLES = (
    "as_facilities",
    "ixp_facilities",
    "ixp_members",
    "active_ixps",
    "facility_metro",
    "campus",
)


@dataclass(slots=True)
class FacilityDatabase:
    """The assembled search space for Constrained Facility Search."""

    #: AS presence: asn -> facility ids.
    as_facilities: dict[int, frozenset[int]]
    #: IXP partnership: ixp id -> facility ids.
    ixp_facilities: dict[int, frozenset[int]]
    #: Confirmed membership: ixp id -> member ASNs.
    ixp_members: dict[int, frozenset[int]]
    #: Exchanges passing the activeness filter.
    active_ixps: frozenset[int]
    #: Canonical metro per facility.
    facility_metro: dict[int, str]
    #: Cross-connect reach: facility -> facilities on the same campus
    #: (always contains the facility itself).
    campus: dict[int, frozenset[int]]
    #: Peering-LAN lookup for Step 1.
    _ixp_lan_index: LongestPrefixMatcher[int] = field(
        default_factory=LongestPrefixMatcher
    )

    # ------------------------------------------------------------------

    @classmethod
    def assemble(
        cls,
        peeringdb: PeeringDBSnapshot,
        noc: NocWebsites,
        ixp_sources: IxpDataSources,
        normalizer: LocationNormalizer,
        facility_directory: dict[int, Facility],
        operator_directory: dict[int, FacilityOperator],
    ) -> "FacilityDatabase":
        """Build the database from the public sources.

        ``facility_directory``/``operator_directory`` carry only
        building-level facts (names, operators, campuses, coordinates) —
        the public marketing material of colocation companies — never
        tenant lists.
        """
        # --- facility metadata, city-normalised -----------------------
        facility_metro: dict[int, str] = {}
        for row in peeringdb.facilities:
            metro = normalizer.normalize_location(row.city, row.location)
            if metro is None:
                # Fall back to the operator directory's location field.
                directory_row = facility_directory.get(row.facility_id)
                metro = directory_row.metro if directory_row is not None else row.city
            facility_metro[row.facility_id] = metro
        for facility_id, facility in facility_directory.items():
            facility_metro.setdefault(facility_id, facility.metro)

        # --- campus reachability from the operator directory ----------
        campus: dict[int, frozenset[int]] = {}
        for facility_id, facility in facility_directory.items():
            operator = operator_directory.get(facility.operator_id)
            reachable = {facility_id}
            if operator is not None and operator.connects_campus_in(facility.metro):
                for other_id in operator.facility_ids:
                    other = facility_directory.get(other_id)
                    if other is not None and other.metro == facility.metro:
                        reachable.add(other_id)
            campus[facility_id] = frozenset(reachable)
        for facility_id in facility_metro:
            campus.setdefault(facility_id, frozenset((facility_id,)))

        # --- AS -> facilities: PeeringDB then NOC pages ---------------
        as_facilities: dict[int, set[int]] = {}
        for asn, facilities in peeringdb.as_facility_map().items():
            as_facilities.setdefault(asn, set()).update(facilities)
        for asn in noc.asns_with_pages():
            page = noc.page_for(asn)
            if page is not None:
                as_facilities.setdefault(asn, set()).update(page.facility_ids())
        # Detailed exchange websites (the AMS-IX class) publish each
        # member's connection facility; the paper folded these complete
        # lists into its map (Section 6 credits them for the highest
        # validation accuracy).
        for website in ixp_sources.detailed_websites():
            for member in website.member_details:
                if member.facility_id is not None:
                    as_facilities.setdefault(member.asn, set()).add(
                        member.facility_id
                    )

        # --- activeness filter and IXP -> facilities ------------------
        active_ixps = frozenset(ixp_sources.active_ixp_ids())
        ixp_facilities: dict[int, set[int]] = {}
        for ixp_id, facilities in peeringdb.ixp_facility_map().items():
            if ixp_id in active_ixps:
                ixp_facilities.setdefault(ixp_id, set()).update(facilities)
        for ixp_id, website in ixp_sources.websites.items():
            if ixp_id in active_ixps:
                ixp_facilities.setdefault(ixp_id, set()).update(
                    website.facility_ids
                )

        # --- membership ------------------------------------------------
        ixp_members: dict[int, frozenset[int]] = {}
        for ixp_id in active_ixps:
            ixp_members[ixp_id] = frozenset(
                ixp_sources.confirmed_members(ixp_id)
            )

        database = cls(
            as_facilities={
                asn: frozenset(facilities)
                for asn, facilities in as_facilities.items()
            },
            ixp_facilities={
                ixp_id: frozenset(facilities)
                for ixp_id, facilities in ixp_facilities.items()
            },
            ixp_members=ixp_members,
            active_ixps=active_ixps,
            facility_metro=facility_metro,
            campus=campus,
        )
        for ixp_id, prefixes in ixp_sources.pdb_prefixes.items():
            if ixp_id in active_ixps:
                for prefix in prefixes:
                    database._ixp_lan_index.insert(prefix, ixp_id)
        for ixp_id, website in ixp_sources.websites.items():
            if ixp_id in active_ixps:
                for prefix in website.prefixes:
                    database._ixp_lan_index.insert(prefix, ixp_id)
        return database

    @classmethod
    def from_ground_truth(cls, topology) -> "FacilityDatabase":
        """A *complete* database straight from the simulator's truth.

        Used by soundness tests and ablations: with perfect facility
        data every CFS constraint set contains the true facility, so a
        resolved interface can only resolve to the truth.
        """
        as_facilities = {
            asn: frozenset(record.facility_ids)
            for asn, record in topology.ases.items()
        }
        ixp_facilities = {}
        ixp_members = {}
        active = set()
        database = cls(
            as_facilities=as_facilities,
            ixp_facilities=ixp_facilities,
            ixp_members=ixp_members,
            active_ixps=frozenset(),
            facility_metro={
                fid: facility.metro
                for fid, facility in topology.facilities.items()
            },
            campus={
                fid: frozenset(topology.campus_facilities(fid))
                for fid in topology.facilities
            },
        )
        for ixp in topology.ixps.values():
            if not ixp.active:
                continue
            active.add(ixp.ixp_id)
            ixp_facilities[ixp.ixp_id] = frozenset(ixp.facility_ids)
            ixp_members[ixp.ixp_id] = frozenset(ixp.member_asns)
            for lan in ixp.peering_lans:
                database._ixp_lan_index.insert(lan, ixp.ixp_id)
        database.active_ixps = frozenset(active)
        return database

    # ------------------------------------------------------------------
    # Queries used by the CFS steps
    # ------------------------------------------------------------------

    def facilities_of(self, asn: int) -> frozenset[int]:
        """Known facility presence of an AS (may be empty)."""
        return self.as_facilities.get(asn, frozenset())

    def facilities_of_ixp(self, ixp_id: int) -> frozenset[int]:
        """Known partner facilities of an exchange (may be empty)."""
        return self.ixp_facilities.get(ixp_id, frozenset())

    def members_of(self, ixp_id: int) -> frozenset[int]:
        """Confirmed members of an exchange."""
        return self.ixp_members.get(ixp_id, frozenset())

    def ixps_of(self, asn: int) -> frozenset[int]:
        """Exchanges where an AS is a confirmed member."""
        return frozenset(
            ixp_id
            for ixp_id, members in self.ixp_members.items()
            if asn in members
        )

    def ixp_of_address(self, address: int) -> int | None:
        """Exchange owning the peering LAN covering ``address``."""
        return self._ixp_lan_index.lookup(address)

    def campus_of(self, facility_id: int) -> frozenset[int]:
        """Facilities cross-connectable from ``facility_id``."""
        return self.campus.get(facility_id, frozenset((facility_id,)))

    def metro_of(self, facility_id: int) -> str | None:
        """Canonical metro of a facility."""
        return self.facility_metro.get(facility_id)

    def metros_of(self, facilities: set[int] | frozenset[int]) -> set[str]:
        """Distinct metros spanned by a facility set."""
        metros = set()
        for facility_id in facilities:
            metro = self.metro_of(facility_id)
            if metro is not None:
                metros.add(metro)
        return metros

    # ------------------------------------------------------------------
    # Degradation (the Figure 8 robustness sweep)
    # ------------------------------------------------------------------

    def with_tables(self, **tables: Any) -> "FacilityDatabase":
        """A copy with some association tables replaced.

        Keywords name tables from ``as_facilities``, ``ixp_facilities``,
        ``ixp_members``, ``active_ixps``, ``facility_metro`` and
        ``campus``; every other table is shallow-copied.  The copy
        shares this database's peering-LAN index — derived views (the
        Figure 8 removals, PeeringDB lag) never change an exchange's
        prefixes — so every database derived from one base shares a
        single trie and its memoised lookups.
        """
        for name in _TABLES:
            if name not in tables:
                table = getattr(self, name)
                tables[name] = dict(table) if isinstance(table, dict) else table
        return FacilityDatabase(**tables, _ixp_lan_index=self._ixp_lan_index)

    def without_facilities(self, removed: set[int]) -> "FacilityDatabase":
        """A copy of the database with ``removed`` facilities erased from
        every association — the Figure 8 experiment's knob."""
        return self.with_tables(
            as_facilities={
                asn: frozenset(f for f in facilities if f not in removed)
                for asn, facilities in self.as_facilities.items()
            },
            ixp_facilities={
                ixp_id: frozenset(f for f in facilities if f not in removed)
                for ixp_id, facilities in self.ixp_facilities.items()
            },
            facility_metro={
                fid: metro
                for fid, metro in self.facility_metro.items()
                if fid not in removed
            },
            campus={
                fid: frozenset(f for f in group if f not in removed)
                for fid, group in self.campus.items()
                if fid not in removed
            },
        )

    def all_known_facilities(self) -> frozenset[int]:
        """Every facility referenced by any association."""
        known: set[int] = set()
        for facilities in self.as_facilities.values():
            known.update(facilities)
        for facilities in self.ixp_facilities.values():
            known.update(facilities)
        return frozenset(known)
