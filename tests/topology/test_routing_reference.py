"""Router-level forwarding against a per-destination BFS reference.

:func:`reference_intra_as_path` is the straightforward implementation of
one intra-AS forwarding path: a breadth-first search from the source
recording every minimal-distance predecessor, which stops expanding at
the destination, then a walk back from the destination picking one
predecessor per router by the per-flow ECMP hash.
:class:`~repro.topology.routing.Forwarder` may share work across
destinations and flows however it likes, but every path it returns must
be the reference's, hop for hop — the traceroute corpus, and with it
every golden pin, is built from these paths.

The forwarder under test is called in interleaved orders (destination
outer, source inner; hypothesis-drawn triples on one long-lived
forwarder), so state a source keeps from one destination is read for
others.
"""

from __future__ import annotations

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PipelineConfig
from repro.topology import Forwarder, RouterHop, build_topology

#: ECMP flow ids: the Paris default, small, and 16-bit-hash sized.
FLOWS = (0, 1, 7, 40_503, 65_535)


def reference_backbone(topology) -> dict[int, list]:
    """Backbone adjacencies per router, sorted by neighbour."""
    backbone = {}
    for router_id in topology.routers:
        neighbors = [
            adj
            for adj in topology.adjacencies(router_id)
            if not adj.is_interconnection
        ]
        neighbors.sort(key=lambda adj: adj.neighbor_router)
        backbone[router_id] = neighbors
    return backbone


def reference_intra_as_path(
    backbone, src_router: int, dest_router: int, flow_id: int
) -> tuple[RouterHop, ...] | None:
    """Shortest backbone path from ``src_router`` (excluded) to
    ``dest_router`` (included), one BFS per call."""
    if src_router == dest_router:
        return ()
    distance = {src_router: 0}
    predecessors: dict[int, list] = {}
    frontier = deque([src_router])
    while frontier:
        current = frontier.popleft()
        if current == dest_router:
            continue
        for adjacency in backbone[current]:
            neighbor = adjacency.neighbor_router
            if neighbor not in distance:
                distance[neighbor] = distance[current] + 1
                predecessors[neighbor] = [(current, adjacency)]
                frontier.append(neighbor)
            elif distance[neighbor] == distance[current] + 1:
                predecessors[neighbor].append((current, adjacency))
    if dest_router not in distance:
        return None
    hops: list[RouterHop] = []
    cursor = dest_router
    while cursor != src_router:
        choices = predecessors[cursor]
        parent, adjacency = choices[hash((flow_id, cursor)) % len(choices)]
        hops.append(
            RouterHop(
                cursor,
                adjacency.ingress_address,
                adjacency.kind,
                adjacency.link_id,
            )
        )
        cursor = parent
    hops.reverse()
    return tuple(hops)


def reference_router_path(
    forwarder, topology, backbone, src_router: int, dest_address: int, flow_id: int
) -> tuple[RouterHop, ...] | None:
    """:meth:`Forwarder.router_path` with every intra-AS segment taken
    from :func:`reference_intra_as_path` (AS paths and hot-potato exits
    come from the forwarder, which is not under test here)."""
    interface = topology.interfaces.get(dest_address)
    if interface is None:
        return None
    dest_router = interface.router_id
    as_path = forwarder.routes.as_path(
        topology.routers[src_router].asn, topology.routers[dest_router].asn
    )
    if as_path is None:
        return None
    path = [RouterHop(src_router, None, None, None)]
    current = src_router
    for this_asn, next_asn in zip(as_path, as_path[1:]):
        egress, ingress, crossing = forwarder._border_step(
            current, this_asn, next_asn
        )
        intra = reference_intra_as_path(backbone, current, egress, flow_id)
        if intra is None:
            return None
        path.extend(intra)
        path.append(crossing)
        current = ingress
    intra = reference_intra_as_path(backbone, current, dest_router, flow_id)
    if intra is None:
        return None
    path.extend(intra)
    return tuple(path)


def small_world(seed: int):
    return build_topology(PipelineConfig.small(seed=seed).topology)


def as_tuple(path):
    return None if path is None else tuple(path)


@pytest.fixture(scope="module")
def worlds():
    """Seeds 0-2: (topology, backbone, one long-lived forwarder) each."""
    built = {}
    for seed in (0, 1, 2):
        topology = small_world(seed)
        built[seed] = (topology, reference_backbone(topology), Forwarder(topology))
    return built


class TestForwarderMatchesReference:
    def test_every_intra_as_pair_and_flow(self):
        """Every (source, destination) router pair inside one AS of the
        seed-0 world, on a fresh forwarder, destinations outermost."""
        topology = small_world(0)
        backbone = reference_backbone(topology)
        forwarder = Forwarder(topology)
        by_asn: dict[int, list[int]] = {}
        for router_id in sorted(topology.routers):
            by_asn.setdefault(topology.routers[router_id].asn, []).append(
                router_id
            )
        for flow_id in FLOWS:
            for routers in by_asn.values():
                for dest in routers:
                    for src in routers:
                        expected = reference_intra_as_path(
                            backbone, src, dest, flow_id
                        )
                        got = forwarder._intra_as_path(src, dest, flow_id)
                        assert as_tuple(got) == expected, (src, dest, flow_id)
        # The world must have equal-cost choices, or the ECMP tie-break
        # would go untested: some pair takes different paths per flow.
        assert any(
            len(
                {
                    as_tuple(forwarder._intra_as_path(src, dest, flow_id))
                    for flow_id in FLOWS
                }
            )
            > 1
            for routers in by_asn.values()
            for src in routers
            for dest in routers
        )

    def test_router_paths_over_a_grid(self):
        """Whole interdomain paths from a grid of sources to a grid of
        addresses, sources innermost so each source's state is revisited
        between other sources' calls."""
        topology = small_world(0)
        backbone = reference_backbone(topology)
        forwarder = Forwarder(topology)
        sources = sorted(topology.routers)[::11]
        targets = sorted(topology.interfaces)[::29]
        for flow_id in FLOWS[:3]:
            for dest_address in targets:
                for src in sources:
                    expected = reference_router_path(
                        forwarder, topology, backbone, src, dest_address, flow_id
                    )
                    got = forwarder.router_path(src, dest_address, flow_id)
                    assert as_tuple(got) == expected, (src, dest_address, flow_id)

    def test_unknown_destination(self):
        topology = small_world(0)
        forwarder = Forwarder(topology)
        src = min(topology.routers)
        assert forwarder.router_path(src, max(topology.interfaces) + 1) is None

    @given(
        seed=st.sampled_from([0, 1, 2]),
        triples=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=10**6),
                st.integers(min_value=0, max_value=10**6),
                st.integers(min_value=0, max_value=0xFFFF),
            ),
            min_size=1,
            max_size=12,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_drawn_triples(self, worlds, seed, triples):
        """Hypothesis-drawn (source router, destination address, flow)
        triples on one forwarder per world that lives across examples."""
        topology, backbone, forwarder = worlds[seed]
        routers = sorted(topology.routers)
        addresses = sorted(topology.interfaces)
        for src_pick, dest_pick, flow_id in triples:
            src = routers[src_pick % len(routers)]
            dest_address = addresses[dest_pick % len(addresses)]
            expected = reference_router_path(
                forwarder, topology, backbone, src, dest_address, flow_id
            )
            got = forwarder.router_path(src, dest_address, flow_id)
            assert as_tuple(got) == expected, (src, dest_address, flow_id)
