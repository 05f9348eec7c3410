"""PeeringDB snapshot simulator.

PeeringDB (Section 3.1) is the bootstrap dataset for the AS-to-facility
and IXP-to-facility maps, and its failure modes shape the whole paper:

* **netfac** (AS-at-facility) links are maintained by volunteers; the
  paper's Figure 2 found 1,424 missing AS-to-facility links across 61 of
  152 checked ASes, with 4 ASes listing no facility at all;
* **ixfac** (IXP-at-facility) associations are missing for some IXPs
  even when the facilities themselves are recorded (JPNAP Tokyo I);
* city fields are free text with inconsistent spellings, which the
  normalisation layer must repair;
* records for long-gone exchanges linger (the active-IXP filter of
  Section 3.1.2 exists because of this).

The snapshot is generated from ground truth by *removing* and *mangling*
information according to a per-AS maintenance-quality model, so dataset
incompleteness is reproducible and tunable (Figure 8 sweeps it).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from random import Random

from ..topology.addressing import Prefix
from ..topology.asn import ASRole
from ..topology.geo import GeoLocation
from ..topology.topology import Topology

__all__ = [
    "MaintenanceQuality",
    "PdbFacilityRow",
    "PdbNetFacRow",
    "PdbIxFacRow",
    "PdbIxLanRow",
    "PdbNetIxLanRow",
    "PeeringDBConfig",
    "PeeringDBSnapshot",
]


class MaintenanceQuality(enum.Enum):
    """How diligently an operator maintains its PeeringDB record."""

    #: Every facility presence is recorded.
    DILIGENT = "diligent"
    #: A sizeable fraction of netfac links is missing.
    LAZY = "lazy"
    #: The operator lists no facilities at all.
    ABSENT = "absent"


@dataclass(frozen=True, slots=True)
class PdbFacilityRow:
    """One ``fac`` record."""

    facility_id: int
    name: str
    city: str  # raw, possibly an alias spelling
    country: str
    location: GeoLocation


@dataclass(frozen=True, slots=True)
class PdbNetFacRow:
    """One ``netfac`` record: AS present at facility."""

    asn: int
    facility_id: int


@dataclass(frozen=True, slots=True)
class PdbIxFacRow:
    """One ``ixfac`` record: IXP partnered with facility."""

    ixp_id: int
    facility_id: int


@dataclass(frozen=True, slots=True)
class PdbIxLanRow:
    """One ``ixlan`` record: IXP peering-LAN prefix."""

    ixp_id: int
    name: str
    prefix: Prefix


@dataclass(frozen=True, slots=True)
class PdbNetIxLanRow:
    """One ``netixlan`` record: member port address at an IXP."""

    asn: int
    ixp_id: int
    address: int


@dataclass(frozen=True, slots=True)
class PeeringDBConfig:
    """Incompleteness knobs."""

    #: Share of ASes whose record is fully maintained.
    diligent_prob: float = 0.58
    #: Share of ASes with partially maintained records (the rest of the
    #: probability mass is ABSENT).
    lazy_prob: float = 0.36
    #: Fraction of netfac links a LAZY operator fails to record.
    lazy_dropout: float = 0.38
    #: Probability a LAZY operator still records at least one facility
    #: in each metro where it is present.  Operators advertise their
    #: *markets* reliably even when the per-building list is stale; this
    #: is why the paper's wrong inferences land in the right city.
    metro_anchor_prob: float = 0.85
    #: Probability an IXP's ixfac associations are entirely missing
    #: (the JPNAP case: facilities known, association absent).
    ixfac_missing_prob: float = 0.12
    #: Probability a single ixfac association is missing otherwise.
    ixfac_dropout: float = 0.08
    #: Probability a facility's city field uses an alias spelling.
    alias_city_prob: float = 0.30
    #: Probability a netixlan membership row is present.
    netixlan_coverage: float = 0.85


class PeeringDBSnapshot:
    """A generated PeeringDB dump."""

    def __init__(
        self,
        facilities: list[PdbFacilityRow],
        netfac: list[PdbNetFacRow],
        ixfac: list[PdbIxFacRow],
        ixlan: list[PdbIxLanRow],
        netixlan: list[PdbNetIxLanRow],
        quality: dict[int, MaintenanceQuality],
    ) -> None:
        self.facilities = facilities
        self.netfac = netfac
        self.ixfac = ixfac
        self.ixlan = ixlan
        self.netixlan = netixlan
        self.quality = quality
        self._fac_by_id = {row.facility_id: row for row in facilities}

    # ------------------------------------------------------------------

    @classmethod
    def build(
        cls,
        topology: Topology,
        config: PeeringDBConfig | None = None,
        seed: int = 0,
    ) -> "PeeringDBSnapshot":
        """Derive a snapshot from ground truth by injecting the paper's
        observed incompleteness patterns."""
        config = config or PeeringDBConfig()
        rng = Random(seed)

        facilities: list[PdbFacilityRow] = []
        for facility in topology.facilities.values():
            metro = topology.metros.resolve(facility.metro)
            city = facility.metro
            if metro.aliases and rng.random() < config.alias_city_prob:
                city = rng.choice(metro.aliases)
            facilities.append(
                PdbFacilityRow(
                    facility_id=facility.facility_id,
                    name=facility.name,
                    city=city,
                    country=facility.country,
                    location=facility.location,
                )
            )

        quality: dict[int, MaintenanceQuality] = {}
        netfac: list[PdbNetFacRow] = []
        for record in topology.ases.values():
            roll = rng.random()
            if roll < config.diligent_prob:
                quality[record.asn] = MaintenanceQuality.DILIGENT
            elif roll < config.diligent_prob + config.lazy_prob:
                quality[record.asn] = MaintenanceQuality.LAZY
            else:
                quality[record.asn] = MaintenanceQuality.ABSENT
            # Big well-known facilities operators keep current; CDNs are
            # diligent in practice because peering depends on it.
            if record.role is ASRole.CONTENT and quality[record.asn] is MaintenanceQuality.ABSENT:
                quality[record.asn] = MaintenanceQuality.LAZY
            q = quality[record.asn]
            if q is MaintenanceQuality.ABSENT:
                continue
            kept: set[int] = set()
            dropped_by_metro: dict[str, list[int]] = {}
            for facility_id in sorted(record.facility_ids):
                metro = topology.facilities[facility_id].metro
                if q is MaintenanceQuality.LAZY and rng.random() < config.lazy_dropout:
                    dropped_by_metro.setdefault(metro, []).append(facility_id)
                    continue
                kept.add(facility_id)
                dropped_by_metro.setdefault(metro, [])
            kept_metros = {topology.facilities[f].metro for f in kept}
            for metro, dropped in dropped_by_metro.items():
                if dropped and metro not in kept_metros:
                    if rng.random() < config.metro_anchor_prob:
                        kept.add(dropped[0])
            for facility_id in sorted(kept):
                netfac.append(PdbNetFacRow(asn=record.asn, facility_id=facility_id))

        ixfac: list[PdbIxFacRow] = []
        ixlan: list[PdbIxLanRow] = []
        netixlan: list[PdbNetIxLanRow] = []
        for ixp in topology.ixps.values():
            for lan in ixp.peering_lans:
                ixlan.append(PdbIxLanRow(ixp_id=ixp.ixp_id, name=ixp.name, prefix=lan))
            if rng.random() < config.ixfac_missing_prob:
                pass  # the JPNAP pattern: no ixfac rows at all
            else:
                for facility_id in sorted(ixp.facility_ids):
                    if rng.random() < config.ixfac_dropout:
                        continue
                    ixfac.append(PdbIxFacRow(ixp_id=ixp.ixp_id, facility_id=facility_id))
            for asn, ports in sorted(ixp.member_ports.items()):
                for port in ports:
                    if rng.random() < config.netixlan_coverage:
                        netixlan.append(
                            PdbNetIxLanRow(
                                asn=asn, ixp_id=ixp.ixp_id, address=port.address
                            )
                        )
        return cls(facilities, netfac, ixfac, ixlan, netixlan, quality)

    def replace_rows(
        self,
        *,
        netfac: list[PdbNetFacRow] | None = None,
        ixfac: list[PdbIxFacRow] | None = None,
    ) -> "PeeringDBSnapshot":
        """A copy of this snapshot with some tables swapped out.

        Used by the fault injector to corrupt association tables without
        mutating the snapshot the environment was built from.
        """
        return PeeringDBSnapshot(
            facilities=self.facilities,
            netfac=self.netfac if netfac is None else netfac,
            ixfac=self.ixfac if ixfac is None else ixfac,
            ixlan=self.ixlan,
            netixlan=self.netixlan,
            quality=self.quality,
        )

    # ------------------------------------------------------------------
    # Query helpers
    # ------------------------------------------------------------------

    def facility_row(self, facility_id: int) -> PdbFacilityRow | None:
        """The ``fac`` record for ``facility_id``, if present."""
        return self._fac_by_id.get(facility_id)

    def facilities_of_ixp(self, ixp_id: int) -> set[int]:
        """ixfac associations of one IXP."""
        return {row.facility_id for row in self.ixfac if row.ixp_id == ixp_id}

    def as_facility_map(self) -> dict[int, set[int]]:
        """All netfac associations keyed by ASN."""
        result: dict[int, set[int]] = {}
        for row in self.netfac:
            result.setdefault(row.asn, set()).add(row.facility_id)
        return result

    def ixp_facility_map(self) -> dict[int, set[int]]:
        """All ixfac associations keyed by IXP id."""
        result: dict[int, set[int]] = {}
        for row in self.ixfac:
            result.setdefault(row.ixp_id, set()).add(row.facility_id)
        return result

    def ixp_prefixes(self) -> dict[int, list[Prefix]]:
        """Peering-LAN prefixes keyed by IXP id."""
        result: dict[int, list[Prefix]] = {}
        for row in self.ixlan:
            result.setdefault(row.ixp_id, []).append(row.prefix)
        return result

    def members_of_ixp(self, ixp_id: int) -> set[int]:
        """netixlan member ASNs of one IXP."""
        return {row.asn for row in self.netixlan if row.ixp_id == ixp_id}
