"""CFS Step 1 tests: crossing extraction from synthetic traceroutes."""

from __future__ import annotations

import pytest

from repro.core.classify import PeeringClassifier
from repro.core.types import PeeringKind
from repro.measurement.traceroute import Traceroute

from .conftest import A_SIDE, A_SIDE_2, B_BACKBONE, B_P2P, B_PORT, IXP_LAN


def trace(hops, src_asn=10, dst_address=0):
    """Build a Traceroute from (address, rtt) pairs; None = star.

    ``dst_address`` defaults to an address beyond the recorded hops, so
    the synthetic path reads as transit hops (no destination echo);
    tests of the echo rule pass the final hop explicitly.
    """
    pairs = [(None, None) if item is None else item for item in hops]
    return Traceroute(
        source_id="vp",
        platform="test",
        src_asn=src_asn,
        dst_address=dst_address,
        addresses=tuple(address for address, _ in pairs),
        rtts=tuple(rtt for _, rtt in pairs),
        routers=(None,) * len(pairs),
        reached=True,
    )


MAPPING = {
    A_SIDE: 10,
    A_SIDE_2: 10,
    B_PORT: 20,  # the repaired mapping of the peering-LAN port
    B_BACKBONE: 20,
    B_P2P: 20,  # repaired: operated by 20 though numbered from 10's space
}


class TestResponsiveRuns:
    def test_runs_never_span_a_star(self):
        addresses = (10, 20, 30, None, 50, None, 70, 80)
        runs = PeeringClassifier._responsive_runs(addresses)
        assert runs == [(0, 3), (6, 8)]
        for start, stop in runs:
            assert None not in addresses[start:stop]


class TestPublicExtraction:
    def test_triple_detected(self, toy_db):
        classifier = PeeringClassifier(toy_db)
        observations = classifier.extract(
            [trace([(A_SIDE, 1.0), (B_PORT, 1.6), (B_BACKBONE, 1.9)])], MAPPING
        )
        assert len(observations) == 1
        observation = next(iter(observations.values()))
        assert observation.kind is PeeringKind.PUBLIC
        assert observation.near_address == A_SIDE
        assert observation.near_asn == 10
        assert observation.far_asn == 20
        assert observation.ixp_id == 100
        assert observation.ixp_address == B_PORT
        assert observation.min_rtt_step_ms == pytest.approx(0.6)

    def test_far_asn_from_port_mapping(self, toy_db):
        """When the hop after the LAN port belongs to a third AS (the
        multi-IXP router case), the port's own mapping identifies the
        far peer."""
        classifier = PeeringClassifier(toy_db)
        mapping = dict(MAPPING)
        mapping[B_BACKBONE] = 30  # next hop already in another AS
        observations = classifier.extract(
            [trace([(A_SIDE, 1.0), (B_PORT, 1.6), (B_BACKBONE, 1.9)])], mapping
        )
        observation = next(iter(observations.values()))
        assert observation.far_asn == 20

    def test_far_asn_falls_back_to_next_hop(self, toy_db):
        """An unrepaired port (mapped to the IXP's ASN, not a member)
        falls back to the next hop's mapping."""
        classifier = PeeringClassifier(toy_db)
        mapping = dict(MAPPING)
        mapping[B_PORT] = 59100  # the exchange's ASN: not a member
        observations = classifier.extract(
            [trace([(A_SIDE, 1.0), (B_PORT, 1.6), (B_BACKBONE, 1.9)])], mapping
        )
        observation = next(iter(observations.values()))
        assert observation.far_asn == 20

    def test_trailing_port_hop_discarded(self, toy_db):
        classifier = PeeringClassifier(toy_db)
        observations = classifier.extract(
            [trace([(A_SIDE, 1.0), (B_PORT, 1.6)])], MAPPING
        )
        assert observations == {}

    def test_star_before_port_discards(self, toy_db):
        classifier = PeeringClassifier(toy_db)
        observations = classifier.extract(
            [trace([(A_SIDE, 1.0), None, (B_PORT, 1.6), (B_BACKBONE, 1.9)])],
            MAPPING,
        )
        # (port, backbone) is same-AS; the crossing itself was hidden.
        assert all(
            obs.kind is not PeeringKind.PUBLIC for obs in observations.values()
        )

    def test_unmapped_near_discarded(self, toy_db):
        classifier = PeeringClassifier(toy_db)
        mapping = dict(MAPPING)
        del mapping[A_SIDE]
        observations = classifier.extract(
            [trace([(A_SIDE, 1.0), (B_PORT, 1.6), (B_BACKBONE, 1.9)])], mapping
        )
        assert observations == {}


class TestPrivateExtraction:
    def test_pair_detected(self, toy_db):
        classifier = PeeringClassifier(toy_db)
        observations = classifier.extract(
            [trace([(A_SIDE, 1.0), (B_P2P, 1.4)])], MAPPING
        )
        observation = next(iter(observations.values()))
        assert observation.kind is PeeringKind.PRIVATE
        assert observation.near_address == A_SIDE
        assert observation.far_asn == 20
        assert observation.far_address == B_P2P
        assert observation.min_rtt_step_ms == pytest.approx(0.4)

    def test_same_asn_not_a_crossing(self, toy_db):
        classifier = PeeringClassifier(toy_db)
        observations = classifier.extract(
            [trace([(A_SIDE, 1.0), (A_SIDE_2, 1.2)])], MAPPING
        )
        assert observations == {}

    def test_port_hop_never_near_side_of_private(self, toy_db):
        """(LAN port, backbone) pairs are the far half of a public
        crossing, never a private link."""
        classifier = PeeringClassifier(toy_db)
        mapping = dict(MAPPING)
        mapping[B_PORT] = 59100  # unrepaired port
        observations = classifier.extract(
            [trace([(B_PORT, 1.6), (B_BACKBONE, 1.9)])], mapping
        )
        assert observations == {}

    def test_unresponsive_middle_breaks_pairing(self, toy_db):
        classifier = PeeringClassifier(toy_db)
        observations = classifier.extract(
            [trace([(A_SIDE, 1.0), None, (B_P2P, 1.4)])], MAPPING
        )
        assert observations == {}

    def test_destination_echo_never_classified(self, toy_db):
        """The probed destination answers from the probed address, so the
        crossing into its router is unobservable: no private observation
        may be derived from the final echo hop."""
        classifier = PeeringClassifier(toy_db)
        observations = classifier.extract(
            [trace([(A_SIDE, 1.0), (B_P2P, 1.4)], dst_address=B_P2P)], MAPPING
        )
        assert observations == {}

    def test_public_crossing_before_echo_still_counted(self, toy_db):
        """An IXP-LAN hop is a real ingress even when the next hop is the
        destination echo — the public crossing stays observable."""
        classifier = PeeringClassifier(toy_db)
        observations = classifier.extract(
            [
                trace(
                    [(A_SIDE, 1.0), (B_PORT, 1.6), (B_BACKBONE, 1.9)],
                    dst_address=B_BACKBONE,
                )
            ],
            MAPPING,
        )
        assert len(observations) == 1
        assert next(iter(observations.values())).kind is PeeringKind.PUBLIC


class TestMerging:
    def test_repeat_observations_merge(self, toy_db):
        classifier = PeeringClassifier(toy_db)
        traces = [
            trace([(A_SIDE, 1.0), (B_PORT, 9.0), (B_BACKBONE, 9.5)]),
            trace([(A_SIDE, 1.0), (B_PORT, 1.5), (B_BACKBONE, 2.0)]),
        ]
        observations = classifier.extract(traces, MAPPING)
        assert len(observations) == 1
        observation = next(iter(observations.values()))
        assert observation.observations == 2
        assert observation.min_rtt_step_ms == pytest.approx(0.5)

    def test_merge_into_existing_dict(self, toy_db):
        classifier = PeeringClassifier(toy_db)
        observations = classifier.extract(
            [trace([(A_SIDE, 1.0), (B_P2P, 1.4)])], MAPPING
        )
        classifier.extract(
            [trace([(A_SIDE, 1.0), (B_P2P, 1.2)])], MAPPING, into=observations
        )
        assert len(observations) == 1
        assert next(iter(observations.values())).observations == 2

    def test_distinct_links_not_merged(self, toy_db):
        classifier = PeeringClassifier(toy_db)
        observations = classifier.extract(
            [
                trace([(A_SIDE, 1.0), (B_P2P, 1.4)]),
                trace([(A_SIDE, 1.0), (B_PORT, 1.5), (B_BACKBONE, 2.0)]),
            ],
            MAPPING,
        )
        assert len(observations) == 2
        kinds = {obs.kind for obs in observations.values()}
        assert kinds == {PeeringKind.PUBLIC, PeeringKind.PRIVATE}


class TestEndToEndConsistency:
    def test_extracted_as_pairs_are_real_links(self, small_run):
        """Almost every extracted crossing names an AS pair that really
        interconnects.  (The near *interface* may be boundary-shifted
        when an unresponsive router defeats the alias repair — the
        paper's residual IP-to-ASN error class — but the pair holds.)"""
        env, corpus, result = small_run
        matched = 0
        total = 0
        for link in result.links:
            total += 1
            if env.topology.links_between(link.near_asn, link.far_asn):
                matched += 1
        assert total > 0
        assert matched / total > 0.95

    def test_near_interface_usually_owned_by_near_asn(self, small_run):
        env, corpus, result = small_run
        owned = 0
        total = 0
        for link in result.links:
            iface = env.topology.interfaces.get(link.near_address)
            if iface is None:
                continue
            total += 1
            if env.topology.routers[iface.router_id].asn == link.near_asn:
                owned += 1
        assert owned / total > 0.7
