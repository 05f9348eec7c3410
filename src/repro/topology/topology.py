"""The ground-truth Internet container.

A :class:`Topology` holds everything the builder generated — metros,
facilities, operators, IXPs, ASes, routers, interfaces, interconnections
— plus derived indexes used by routing, the measurement substrate, the
dataset simulators, and the experiment harnesses.

The inference pipeline (``repro.core``) never touches this object's
ground truth directly: it sees only traceroute output, public-dataset
views, and probe responses.  Experiments use the ground truth to score
inferences, which the paper could only do for small validation subsets
obtained from operators.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .addressing import LongestPrefixMatcher
from .asn import AutonomousSystem
from .facility import Facility, FacilityOperator
from .geo import GeoLocation, MetroCatalogue
from .ixp import IXP
from .links import BackboneLink, Interconnection, InterconnectionType, Relationship
from .network import Interface, InterfaceKind, Router

__all__ = ["Adjacency", "Topology", "SideType"]


#: Per-side interconnection categories used in Figures 9 and 10:
#: ``"public-local"``, ``"public-remote"``, ``"cross-connect"``,
#: ``"tethering"``.
SideType = str


@dataclass(frozen=True, slots=True)
class Adjacency:
    """One directed router-level adjacency.

    ``ingress_address`` is the interface of ``neighbor_router`` facing
    *us* — the address a traceroute records when the probe crosses into
    that router (replies come from the ingress interface, Section 4.3).
    """

    neighbor_router: int
    ingress_address: int
    egress_address: int
    kind: InterfaceKind
    link_id: int
    is_interconnection: bool


@dataclass(slots=True)
class Topology:
    """Generated ground truth plus derived indexes."""

    seed: int
    metros: MetroCatalogue
    operators: dict[int, FacilityOperator] = field(default_factory=dict)
    facilities: dict[int, Facility] = field(default_factory=dict)
    ases: dict[int, AutonomousSystem] = field(default_factory=dict)
    ixps: dict[int, IXP] = field(default_factory=dict)
    routers: dict[int, Router] = field(default_factory=dict)
    interfaces: dict[int, Interface] = field(default_factory=dict)
    interconnections: dict[int, Interconnection] = field(default_factory=dict)
    backbone_links: dict[int, BackboneLink] = field(default_factory=dict)

    # Derived indexes (populated by :meth:`finalize`).
    _adjacency: dict[int, list[Adjacency]] = field(default_factory=dict)
    _routers_by_asn: dict[int, list[int]] = field(default_factory=dict)
    _links_by_pair: dict[tuple[int, int], list[int]] = field(default_factory=dict)
    _as_neighbors: dict[int, dict[int, Relationship]] = field(default_factory=dict)
    _announced: LongestPrefixMatcher[int] = field(default_factory=LongestPrefixMatcher)
    _ixp_lan_index: LongestPrefixMatcher[int] = field(default_factory=LongestPrefixMatcher)
    _finalized: bool = False

    # ------------------------------------------------------------------
    # Construction-time registration
    # ------------------------------------------------------------------

    def add_interface(self, interface: Interface) -> None:
        """Register an interface and attach it to its router."""
        if interface.address in self.interfaces:
            raise ValueError(f"duplicate interface address {interface.ip}")
        router = self.routers.get(interface.router_id)
        if router is None:
            raise ValueError(f"unknown router {interface.router_id}")
        self.interfaces[interface.address] = interface
        router.add_interface(interface.address)

    # ------------------------------------------------------------------
    # Finalisation: build derived indexes
    # ------------------------------------------------------------------

    def finalize(self) -> None:
        """Build all derived indexes.  Call once after construction."""
        if self._finalized:
            raise RuntimeError("topology already finalized")
        self._build_router_indexes()
        self._build_adjacency()
        self._build_as_graph()
        self._build_prefix_indexes()
        self._finalized = True

    def _build_router_indexes(self) -> None:
        for router in self.routers.values():
            self._routers_by_asn.setdefault(router.asn, []).append(
                router.router_id
            )

    def _link_interface(self, router_id: int, link_id: int) -> Interface:
        """The private-p2p or backbone interface of ``router_id`` on link
        ``link_id``."""
        router = self.routers[router_id]
        for address in router.interfaces:
            iface = self.interfaces[address]
            if iface.link_id == link_id:
                return iface
        raise ValueError(
            f"router {router_id} has no interface on link {link_id}"
        )

    def _ixp_port_interface(self, router_id: int, ixp_id: int) -> Interface:
        """The (single) peering-LAN port of ``router_id`` at ``ixp_id``.

        One IXP port carries every public peering session of the member
        at that exchange, so the lookup is by IXP, not by link.
        """
        router = self.routers[router_id]
        for address in router.interfaces:
            iface = self.interfaces[address]
            if iface.kind is InterfaceKind.IXP_LAN and iface.ixp_id == ixp_id:
                return iface
        raise ValueError(
            f"router {router_id} has no port at IXP {ixp_id}"
        )

    def _build_adjacency(self) -> None:
        for link in self.backbone_links.values():
            iface_a = self._link_interface(link.router_a, link.link_id)
            iface_b = self._link_interface(link.router_b, link.link_id)
            self._adjacency.setdefault(link.router_a, []).append(
                Adjacency(
                    neighbor_router=link.router_b,
                    ingress_address=iface_b.address,
                    egress_address=iface_a.address,
                    kind=InterfaceKind.BACKBONE,
                    link_id=link.link_id,
                    is_interconnection=False,
                )
            )
            self._adjacency.setdefault(link.router_b, []).append(
                Adjacency(
                    neighbor_router=link.router_a,
                    ingress_address=iface_a.address,
                    egress_address=iface_b.address,
                    kind=InterfaceKind.BACKBONE,
                    link_id=link.link_id,
                    is_interconnection=False,
                )
            )
        for link in self.interconnections.values():
            if link.kind.is_private:
                kind = InterfaceKind.PRIVATE_P2P
                iface_a = self._link_interface(link.router_a, link.link_id)
                iface_b = self._link_interface(link.router_b, link.link_id)
            else:
                kind = InterfaceKind.IXP_LAN
                assert link.ixp_id is not None
                iface_a = self._ixp_port_interface(link.router_a, link.ixp_id)
                iface_b = self._ixp_port_interface(link.router_b, link.ixp_id)
            self._adjacency.setdefault(link.router_a, []).append(
                Adjacency(
                    neighbor_router=link.router_b,
                    ingress_address=iface_b.address,
                    egress_address=iface_a.address,
                    kind=kind,
                    link_id=link.link_id,
                    is_interconnection=True,
                )
            )
            self._adjacency.setdefault(link.router_b, []).append(
                Adjacency(
                    neighbor_router=link.router_a,
                    ingress_address=iface_a.address,
                    egress_address=iface_b.address,
                    kind=kind,
                    link_id=link.link_id,
                    is_interconnection=True,
                )
            )
            pair = (min(link.asn_a, link.asn_b), max(link.asn_a, link.asn_b))
            self._links_by_pair.setdefault(pair, []).append(link.link_id)

    def _build_as_graph(self) -> None:
        for link in self.interconnections.values():
            self._as_neighbors.setdefault(link.asn_a, {})
            self._as_neighbors.setdefault(link.asn_b, {})
            if link.relationship is Relationship.CUSTOMER_PROVIDER:
                # asn_a is the customer of asn_b.
                self._as_neighbors[link.asn_a][link.asn_b] = Relationship.CUSTOMER_PROVIDER
                self._as_neighbors[link.asn_b].setdefault(
                    link.asn_a, Relationship.CUSTOMER_PROVIDER
                )
            else:
                self._as_neighbors[link.asn_a].setdefault(
                    link.asn_b, Relationship.PEER_PEER
                )
                self._as_neighbors[link.asn_b].setdefault(
                    link.asn_a, Relationship.PEER_PEER
                )

    def _build_prefix_indexes(self) -> None:
        for asn, as_record in self.ases.items():
            for prefix in as_record.prefixes:
                self._announced.insert(prefix, asn)
        for ixp in self.ixps.values():
            for lan in ixp.peering_lans:
                self._ixp_lan_index.insert(lan, ixp.ixp_id)

    # ------------------------------------------------------------------
    # Ground-truth queries
    # ------------------------------------------------------------------

    def adjacencies(self, router_id: int) -> list[Adjacency]:
        """Directed adjacencies out of a router."""
        return self._adjacency.get(router_id, [])

    def routers_of(self, asn: int) -> list[int]:
        """Router ids operated by an AS."""
        return self._routers_by_asn.get(asn, [])

    def links_between(self, asn_a: int, asn_b: int) -> list[Interconnection]:
        """All interconnections between two ASes."""
        pair = (min(asn_a, asn_b), max(asn_a, asn_b))
        return [
            self.interconnections[lid]
            for lid in self._links_by_pair.get(pair, [])
        ]

    def as_neighbors(self, asn: int) -> dict[int, Relationship]:
        """Neighbour ASNs and the relationship on the ``asn`` side.

        ``CUSTOMER_PROVIDER`` entries mean *some* transit relationship
        exists with that neighbour; use :meth:`providers_of` /
        :meth:`customers_of` for direction.
        """
        return self._as_neighbors.get(asn, {})

    def providers_of(self, asn: int) -> set[int]:
        """Provider ASNs of ``asn``."""
        return self.ases[asn].transit_provider_asns

    def customers_of(self, asn: int) -> set[int]:
        """Customer ASNs of ``asn``."""
        return {
            other
            for other, record in self.ases.items()
            if asn in record.transit_provider_asns
        }

    def peers_of(self, asn: int) -> set[int]:
        """Settlement-free peer ASNs of ``asn``."""
        providers = self.providers_of(asn)
        customers = self.customers_of(asn)
        return {
            neighbor
            for neighbor in self.as_neighbors(asn)
            if neighbor not in providers and neighbor not in customers
        }

    def router_of_address(self, address: int) -> Router:
        """Ground-truth router owning ``address``."""
        return self.routers[self.interfaces[address].router_id]

    def true_asn_of_address(self, address: int) -> int:
        """The AS *operating* the router that owns ``address``.

        This may differ from the longest-prefix-match answer for shared
        point-to-point subnets and always differs for IXP-LAN addresses.
        """
        return self.router_of_address(address).asn

    def true_facility_of_address(self, address: int) -> int:
        """Ground-truth facility of the router owning ``address``."""
        return self.router_of_address(address).facility_id

    def announced_origin(self, address: int) -> int | None:
        """Longest-prefix-match origin ASN over announced prefixes."""
        return self._announced.lookup(address)

    def ixp_of_address(self, address: int) -> int | None:
        """IXP id whose peering LAN covers ``address``, if any."""
        return self._ixp_lan_index.lookup(address)

    def router_location(self, router_id: int) -> GeoLocation:
        """Street-level location of the router (its facility's)."""
        return self.facilities[self.routers[router_id].facility_id].location

    def facility_metro(self, facility_id: int) -> str:
        """Metro of a facility."""
        return self.facilities[facility_id].metro

    def side_type(self, link: Interconnection, asn: int) -> SideType:
        """Figure 9/10 category of ``asn``'s side of ``link``.

        Public peering is ``"public-local"`` or ``"public-remote"``
        depending on whether that member's IXP port goes through a
        reseller; private interconnects are ``"cross-connect"`` or
        ``"tethering"``.
        """
        if not link.involves(asn):
            raise ValueError(f"AS{asn} not on link {link.link_id}")
        if link.kind is InterconnectionType.PRIVATE_CROSS_CONNECT:
            return "cross-connect"
        if link.kind is InterconnectionType.TETHERING:
            return "tethering"
        assert link.ixp_id is not None
        if self.ixps[link.ixp_id].is_remote_member(asn):
            return "public-remote"
        return "public-local"

    def facilities_in_metro(self, metro: str) -> list[Facility]:
        """All facilities whose canonical metro is ``metro``."""
        return [f for f in self.facilities.values() if f.metro == metro]

    def campus_facilities(self, facility_id: int) -> set[int]:
        """Facilities cross-connectable from ``facility_id``.

        The facility itself, plus same-operator facilities in the same
        metro when the operator runs a connected campus there.
        """
        facility = self.facilities[facility_id]
        result = {facility_id}
        operator = self.operators[facility.operator_id]
        if operator.connects_campus_in(facility.metro):
            for other_id in operator.facility_ids:
                if self.facilities[other_id].metro == facility.metro:
                    result.add(other_id)
        return result

    def summary(self) -> dict[str, int]:
        """Headline sizes, for reporting and sanity checks."""
        return {
            "metros": len(self.metros),
            "operators": len(self.operators),
            "facilities": len(self.facilities),
            "ases": len(self.ases),
            "ixps": len(self.ixps),
            "routers": len(self.routers),
            "interfaces": len(self.interfaces),
            "interconnections": len(self.interconnections),
            "backbone_links": len(self.backbone_links),
        }
