"""Policy routing: valley-free AS paths and router-level forwarding.

Traceroute paths in the paper cross interdomain boundaries chosen by
BGP.  We reproduce the standard Gao-Rexford model:

* an AS prefers routes learned from customers over routes learned from
  peers over routes learned from providers;
* among routes of the same class it prefers the shortest AS path, then
  the lowest next-hop ASN (a deterministic tie-break);
* routes learned from customers are exported to everyone; routes learned
  from peers or providers are exported only to customers.

The resulting paths are valley-free: zero or more customer-to-provider
steps, at most one peer step, zero or more provider-to-customer steps.

Router-level expansion then picks, for each AS transition, the concrete
interconnection (hot-potato: the border link closest to where the packet
currently is) and walks the intra-AS backbone to it, emitting the
ingress interface of every router crossed — exactly the addresses a real
traceroute would record (Section 4.3: replies come from the ingress
interface, which is why the far side of an IXP crossing shows the
IXP-LAN address).
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass

from .geo import haversine_km
from .links import Interconnection
from .network import InterfaceKind
from .topology import Topology

__all__ = ["RouteClass", "AsRoute", "RouteComputer", "RouterHop", "Forwarder"]


#: Route classes in preference order (lower is better).
RouteClass = int
CUSTOMER_ROUTE: RouteClass = 0
PEER_ROUTE: RouteClass = 1
PROVIDER_ROUTE: RouteClass = 2


@dataclass(frozen=True, slots=True)
class AsRoute:
    """Best route of one AS toward a destination AS."""

    route_class: RouteClass
    as_path_length: int
    next_hop: int | None  # None at the origin


class RouteComputer:
    """Per-destination valley-free routing tables with memoisation."""

    def __init__(self, topology: Topology) -> None:
        self._topology = topology
        self._providers: dict[int, tuple[int, ...]] = {}
        self._customers: dict[int, tuple[int, ...]] = {}
        self._peers: dict[int, tuple[int, ...]] = {}
        for asn in topology.ases:
            self._providers[asn] = tuple(
                sorted(
                    p for p in topology.providers_of(asn)
                    if topology.links_between(asn, p)
                )
            )
        for asn in topology.ases:
            self._customers[asn] = tuple(
                sorted(
                    c
                    for c in topology.ases
                    if asn in self._providers.get(c, ())
                )
            )
        for asn in topology.ases:
            providers = set(self._providers[asn])
            customers = set(self._customers[asn])
            self._peers[asn] = tuple(
                sorted(
                    n
                    for n in topology.as_neighbors(asn)
                    if n not in providers and n not in customers
                )
            )
        self._tables: dict[int, dict[int, AsRoute]] = {}

    # ------------------------------------------------------------------

    def routes_to(self, dest_asn: int) -> dict[int, AsRoute]:
        """Best route of every AS toward ``dest_asn`` (may omit ASes with
        no valley-free route)."""
        table = self._tables.get(dest_asn)
        if table is None:
            table = self._compute(dest_asn)
            self._tables[dest_asn] = table
        return table

    def _compute(self, dest_asn: int) -> dict[int, AsRoute]:
        if dest_asn not in self._topology.ases:
            raise KeyError(f"unknown destination AS{dest_asn}")
        table: dict[int, AsRoute] = {
            dest_asn: AsRoute(CUSTOMER_ROUTE, 0, None)
        }

        # Phase 1 - customer routes: ascend provider edges from the origin.
        frontier = deque([dest_asn])
        while frontier:
            current = frontier.popleft()
            current_route = table[current]
            for provider in self._providers[current]:
                candidate = AsRoute(
                    CUSTOMER_ROUTE, current_route.as_path_length + 1, current
                )
                if self._better(candidate, table.get(provider)):
                    table[provider] = candidate
                    frontier.append(provider)

        # Phase 2 - peer routes: one lateral step from any AS holding a
        # customer route (those are the only routes exported to peers).
        customer_holders = [
            (route.as_path_length, asn)
            for asn, route in table.items()
            if route.route_class == CUSTOMER_ROUTE
        ]
        for path_length, asn in sorted(customer_holders):
            for peer in self._peers[asn]:
                candidate = AsRoute(PEER_ROUTE, path_length + 1, asn)
                if self._better(candidate, table.get(peer)):
                    table[peer] = candidate

        # Phase 3 - provider routes: descend provider->customer edges from
        # every AS that holds any route; a provider exports everything to
        # its customers.  Dijkstra on (path_length, asn) keeps the
        # shortest-then-lowest-ASN tie-break exact.
        heap: list[tuple[int, int]] = [
            (route.as_path_length, asn) for asn, route in table.items()
        ]
        heapq.heapify(heap)
        while heap:
            path_length, asn = heapq.heappop(heap)
            route = table.get(asn)
            if route is None or route.as_path_length < path_length:
                continue
            for customer in self._customers[asn]:
                candidate = AsRoute(PROVIDER_ROUTE, path_length + 1, asn)
                if self._better(candidate, table.get(customer)):
                    table[customer] = candidate
                    heapq.heappush(heap, (path_length + 1, customer))
        return table

    @staticmethod
    def _better(candidate: AsRoute, incumbent: AsRoute | None) -> bool:
        if incumbent is None:
            return True
        if candidate.route_class != incumbent.route_class:
            return candidate.route_class < incumbent.route_class
        if candidate.as_path_length != incumbent.as_path_length:
            return candidate.as_path_length < incumbent.as_path_length
        if candidate.next_hop is None or incumbent.next_hop is None:
            return False
        return candidate.next_hop < incumbent.next_hop

    def as_path(self, src_asn: int, dest_asn: int) -> list[int] | None:
        """The AS path BGP would select from ``src_asn`` to ``dest_asn``,
        inclusive of both ends; ``None`` when no valley-free route exists."""
        if src_asn == dest_asn:
            return [src_asn]
        table = self.routes_to(dest_asn)
        if src_asn not in table:
            return None
        path = [src_asn]
        current = src_asn
        while current != dest_asn:
            next_hop = table[current].next_hop
            if next_hop is None or next_hop in path:
                return None  # pragma: no cover - defensive
            path.append(next_hop)
            current = next_hop
        return path


@dataclass(frozen=True, slots=True)
class RouterHop:
    """One router crossed on a forwarding path.

    ``ingress_address`` is the interface facing the previous hop — what a
    TTL-expired reply would be sourced from.  It is ``None`` only for the
    source router itself.
    """

    router_id: int
    ingress_address: int | None
    ingress_kind: InterfaceKind | None
    link_id: int | None


class Forwarder:
    """Expands AS paths into concrete router paths over the topology."""

    def __init__(self, topology: Topology, routes: RouteComputer | None = None) -> None:
        self._topology = topology
        self._routes = routes or RouteComputer(topology)
        #: Backbone edges out of each router, built on first use (see
        #: :meth:`_backbone_edges`).
        self._backbone: dict[int, list[tuple[int, RouterHop]]] = {}
        #: All-predecessor BFS tree per source router, built on first
        #: use: router -> [(parent, hop into router), ...] over every
        #: router of the source's AS reachable on the backbone (the
        #: source itself has no entry).
        self._trees: dict[int, dict[int, list[tuple[int, RouterHop]]]] = {}
        self._distance_cache: dict[tuple[int, int], float] = {}
        #: Hot-potato exits, (router, this AS, next AS) -> (egress
        #: router, ingress router, crossing hop): a pure function of the
        #: immutable topology (about 700 keys on the small world).
        self._border_cache: dict[
            tuple[int, int, int], tuple[int, int, RouterHop]
        ] = {}

    @property
    def routes(self) -> RouteComputer:
        """The AS-level route computer in use."""
        return self._routes

    # ------------------------------------------------------------------

    def router_path(
        self, src_router: int, dest_address: int, flow_id: int = 0
    ) -> list[RouterHop] | None:
        """Forwarding path from ``src_router`` to ``dest_address``.

        Returns the ordered routers crossed, starting with the source
        (``ingress_address`` of the source is ``None``) and ending with
        the router owning ``dest_address``.  ``None`` when the
        destination is unknown or unroutable.

        ``flow_id`` models the transport header fields ECMP hashes on:
        equal-cost intra-AS paths are tie-broken per flow, so probes
        with identical flow ids follow one consistent path (Paris
        traceroute) while varying flow ids can zig-zag across parallel
        paths (the classic-traceroute artifact of Augustin et al.).
        """
        interface = self._topology.interfaces.get(dest_address)
        if interface is None:
            return None
        dest_router = self._topology.routers[interface.router_id]
        src = self._topology.routers[src_router]
        as_path = self._routes.as_path(src.asn, dest_router.asn)
        if as_path is None:
            return None

        path: list[RouterHop] = [RouterHop(src_router, None, None, None)]
        current_router = src_router
        for position in range(len(as_path) - 1):
            this_asn = as_path[position]
            next_asn = as_path[position + 1]
            border = self._border_step(current_router, this_asn, next_asn)
            if border is None:
                return None  # pragma: no cover - link always exists
            egress_router, ingress_router, crossing = border
            intra = self._intra_as_path(current_router, egress_router, flow_id)
            if intra is None:
                return None  # pragma: no cover - backbone is connected
            path.extend(intra)
            path.append(crossing)
            current_router = ingress_router
        intra = self._intra_as_path(current_router, dest_router.router_id, flow_id)
        if intra is None:
            return None  # pragma: no cover - backbone is connected
        path.extend(intra)
        return path

    # ------------------------------------------------------------------

    def _border_step(
        self, current_router: int, this_asn: int, next_asn: int
    ) -> tuple[int, int, RouterHop] | None:
        """Memoised hot-potato exit: (egress router, ingress router,
        crossing hop) of the border link :meth:`_select_border_link`
        picks from ``current_router``."""
        key = (current_router, this_asn, next_asn)
        border = self._border_cache.get(key)
        if border is None:
            link = self._select_border_link(current_router, this_asn, next_asn)
            if link is None:
                return None  # pragma: no cover - link always exists
            border = (
                link.side_of(this_asn)[0],
                link.side_of(next_asn)[0],
                self._crossing_hop(link, this_asn, next_asn),
            )
            self._border_cache[key] = border
        return border

    def _select_border_link(
        self, current_router: int, this_asn: int, next_asn: int
    ) -> Interconnection | None:
        """Hot-potato selection among parallel interconnections: leave the
        network at the border router geographically closest to the packet."""
        links = self._topology.links_between(this_asn, next_asn)
        if not links:
            return None

        def cost(link: Interconnection) -> tuple[float, int]:
            egress_router, _ = link.side_of(this_asn)
            return (self._router_distance(current_router, egress_router), link.link_id)

        return min(links, key=cost)

    def _router_distance(self, a: int, b: int) -> float:
        """Cached great-circle distance between two routers."""
        key = (a, b) if a < b else (b, a)
        distance = self._distance_cache.get(key)
        if distance is None:
            distance = haversine_km(
                self._topology.router_location(a),
                self._topology.router_location(b),
            )
            self._distance_cache[key] = distance
        return distance

    def _crossing_hop(
        self, link: Interconnection, this_asn: int, next_asn: int
    ) -> RouterHop:
        """The hop recorded when crossing an interconnection: the next
        AS's border router answers from its link-facing interface."""
        ingress_router, _ = link.side_of(next_asn)
        for adjacency in self._topology.adjacencies(ingress_router):
            if adjacency.is_interconnection and adjacency.link_id == link.link_id:
                # Adjacencies are directed out of ingress_router; its own
                # address on the link is the egress_address field.
                return RouterHop(
                    ingress_router,
                    adjacency.egress_address,
                    adjacency.kind,
                    link.link_id,
                )
        raise LookupError(
            f"router {ingress_router} lacks an interface on link {link.link_id}"
        )  # pragma: no cover - construction guarantees the interface

    def _backbone_edges(self, router_id: int) -> list[tuple[int, RouterHop]]:
        """Memoised backbone edges out of ``router_id``, sorted by
        neighbour for determinism: (neighbour, the hop a path records on
        reaching it — the neighbour answering from its ingress
        interface)."""
        edges = self._backbone.get(router_id)
        if edges is None:
            adjacencies = sorted(
                (
                    adj
                    for adj in self._topology.adjacencies(router_id)
                    if not adj.is_interconnection
                ),
                key=lambda adj: adj.neighbor_router,
            )
            edges = [
                (
                    adj.neighbor_router,
                    RouterHop(
                        adj.neighbor_router,
                        adj.ingress_address,
                        adj.kind,
                        adj.link_id,
                    ),
                )
                for adj in adjacencies
            ]
            self._backbone[router_id] = edges
        return edges

    def _predecessor_tree(
        self, src_router: int
    ) -> dict[int, list[tuple[int, RouterHop]]]:
        """Memoised single-source BFS over the backbone recording *all*
        minimal-distance predecessors of every reachable router, in
        FIFO discovery order (Brandes' single-source pass)."""
        tree = self._trees.get(src_router)
        if tree is not None:
            return tree
        tree = {}
        distance = {src_router: 0}
        frontier = deque([src_router])
        while frontier:
            current = frontier.popleft()
            next_distance = distance[current] + 1
            for neighbor, hop in self._backbone_edges(current):
                seen = distance.get(neighbor)
                if seen is None:
                    distance[neighbor] = next_distance
                    tree[neighbor] = [(current, hop)]
                    frontier.append(neighbor)
                elif seen == next_distance:
                    tree[neighbor].append((current, hop))
        self._trees[src_router] = tree
        return tree

    def _intra_as_path(
        self, src_router: int, dest_router: int, flow_id: int = 0
    ) -> list[RouterHop] | None:
        """Shortest backbone path (excluding ``src_router``, including
        ``dest_router``); hops carry backbone ingress interfaces.

        Walks back from ``dest_router`` over the source's memoised
        predecessor tree (:meth:`_predecessor_tree`), so one BFS per
        source serves every destination and flow.  When several
        shortest paths exist (backbone chords), the ECMP tie-break
        hashes ``flow_id`` with the router id, exactly like a per-flow
        hardware hash: stable for one flow, divergent across flows.
        """
        if src_router == dest_router:
            return []
        tree = self._predecessor_tree(src_router)
        if dest_router not in tree:
            return None
        hops: list[RouterHop] = []
        cursor = dest_router
        while cursor != src_router:
            choices = tree[cursor]
            cursor, hop = choices[hash((flow_id, cursor)) % len(choices)]
            hops.append(hop)
        hops.reverse()
        return hops
