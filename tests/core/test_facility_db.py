"""Facility database tests: assembly, queries, degradation."""

from __future__ import annotations

import pytest

from repro.core.facility_db import FacilityDatabase
from repro.topology.addressing import ip_to_int

from .conftest import IXP_LAN


class TestToyQueries:
    def test_facilities_of(self, toy_db):
        assert toy_db.facilities_of(10) == frozenset({1, 2, 5})
        assert toy_db.facilities_of(999) == frozenset()

    def test_facilities_of_ixp(self, toy_db):
        assert toy_db.facilities_of_ixp(100) == frozenset({1, 2, 4})
        assert toy_db.facilities_of_ixp(999) == frozenset()

    def test_members_and_ixps_of(self, toy_db):
        assert toy_db.members_of(100) == frozenset({10, 20, 30, 40})
        assert toy_db.ixps_of(10) == frozenset({100})
        assert toy_db.ixps_of(50) == frozenset()

    def test_ixp_of_address(self, toy_db):
        assert toy_db.ixp_of_address(IXP_LAN.first + 5) == 100
        assert toy_db.ixp_of_address(ip_to_int("10.0.0.1")) is None

    def test_campus_of(self, toy_db):
        assert toy_db.campus_of(1) == frozenset({1, 2})
        assert toy_db.campus_of(3) == frozenset({3})
        assert toy_db.campus_of(42) == frozenset({42})

    def test_metro_queries(self, toy_db):
        assert toy_db.metro_of(1) == "Frankfurt"
        assert toy_db.metro_of(42) is None
        assert toy_db.metros_of({1, 4}) == {"Frankfurt", "London"}

    def test_all_known_facilities(self, toy_db):
        assert toy_db.all_known_facilities() == frozenset({1, 2, 3, 4, 5})


class TestDegradation:
    def test_without_facilities_removes_everywhere(self, toy_db):
        degraded = toy_db.without_facilities({2})
        assert 2 not in degraded.facilities_of(10)
        assert 2 not in degraded.facilities_of_ixp(100)
        assert degraded.metro_of(2) is None
        assert 2 not in degraded.campus_of(1)

    def test_without_facilities_leaves_original_intact(self, toy_db):
        toy_db.without_facilities({1, 2, 3})
        assert toy_db.facilities_of(10) == frozenset({1, 2, 5})

    def test_remove_everything(self, toy_db):
        degraded = toy_db.without_facilities(set(toy_db.all_known_facilities()))
        assert degraded.facilities_of(10) == frozenset()
        assert degraded.facilities_of_ixp(100) == frozenset()


class TestAssembly:
    def test_assembled_from_environment(self, small_env):
        """The assembled database is a sound subset of ground truth plus
        the detailed-website augmentation."""
        database = small_env.facility_db
        topology = small_env.topology
        for asn, facilities in database.as_facilities.items():
            assert facilities <= frozenset(
                topology.ases[asn].facility_ids
            ), asn

    def test_assembled_ixp_facilities_subset(self, small_env):
        database = small_env.facility_db
        topology = small_env.topology
        for ixp_id, facilities in database.ixp_facilities.items():
            assert facilities <= frozenset(topology.ixps[ixp_id].facility_ids)

    def test_only_active_ixps_have_prefixes(self, small_env):
        database = small_env.facility_db
        topology = small_env.topology
        for ixp in topology.ixps.values():
            port_address = None
            for ports in ixp.member_ports.values():
                for port in ports:
                    port_address = port.address
                    break
                break
            lan_address = ixp.peering_lans[0].first + 1
            if ixp.active:
                # Active exchange LANs are recognisable (possibly absent
                # for an exchange that failed the noisy filter).
                assert database.ixp_of_address(lan_address) in (ixp.ixp_id, None)
            else:
                assert database.ixp_of_address(lan_address) is None

    def test_noc_pages_fill_pdb_gaps(self, small_env):
        """Every NOC-listed facility is in the assembled map even when
        PeeringDB omits it."""
        database = small_env.facility_db
        noc = small_env.noc
        pdb_map = small_env.peeringdb.as_facility_map()
        gained = 0
        for asn in noc.asns_with_pages():
            page = noc.page_for(asn)
            for facility_id in page.facility_ids():
                assert facility_id in database.facilities_of(asn)
                if facility_id not in pdb_map.get(asn, set()):
                    gained += 1
        assert gained > 0

    def test_from_ground_truth_complete(self, small_topology):
        database = FacilityDatabase.from_ground_truth(small_topology)
        for asn, record in small_topology.ases.items():
            assert database.facilities_of(asn) == frozenset(record.facility_ids)
        for ixp in small_topology.ixps.values():
            if ixp.active:
                assert database.facilities_of_ixp(ixp.ixp_id) == frozenset(
                    ixp.facility_ids
                )
                assert ixp.ixp_id in database.active_ixps
            else:
                assert ixp.ixp_id not in database.active_ixps

    def test_metros_canonicalised(self, small_env):
        """Every facility metro in the assembled DB is a canonical
        catalogue name, despite alias spellings in PeeringDB."""
        catalogue = small_env.topology.metros
        for facility_id, metro in small_env.facility_db.facility_metro.items():
            resolved = catalogue.get(metro)
            assert resolved is not None and resolved.name == metro


class TestDerivedTables:
    def test_with_tables_replaces_membership_and_shares_lan_index(self, toy_db):
        lagged = toy_db.with_tables(as_facilities={10: frozenset({5})})
        assert lagged.facilities_of(10) == frozenset({5})
        assert toy_db.facilities_of(10) == frozenset({1, 2, 5})
        assert lagged.facilities_of_ixp(100) == toy_db.facilities_of_ixp(100)
        assert lagged.ixp_members is not toy_db.ixp_members
        assert lagged._ixp_lan_index is toy_db._ixp_lan_index
        assert lagged.ixp_of_address(IXP_LAN.first + 5) == 100

    def test_without_facilities_shares_lan_index(self, toy_db):
        degraded = toy_db.without_facilities({2})
        assert degraded._ixp_lan_index is toy_db._ixp_lan_index

    def test_with_tables_rejects_unknown_names(self, toy_db):
        with pytest.raises(TypeError, match="_ixp_lan_index"):
            toy_db.with_tables(_ixp_lan_index=None)
