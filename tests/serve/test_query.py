"""The query protocol and the copy-on-write read path.

The torn-map test is the serving contract: snapshots swap under
concurrent queries and every answer must be internally consistent with
exactly one published version — never a mix of two.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import random
import sys
import threading
import time
import weakref

import pytest

from repro.obs import Instrumentation, MemorySink
from repro.serve import QueryEngine, ServiceHealth, query_snapshot
from repro.serve.query import _canonical, _parse
from repro.topology.addressing import MAX_IPV4, int_to_ip

#: Lines that must answer an error, never raise.
MALFORMED = (
    "",
    "   ",
    "bogus",
    "iface",
    "iface not-an-address",
    "link 1",
    "link a b",
    "tenants many",
)


def wire(snapshot, line):
    """The pure wire answer: what ``execute_line`` must return."""
    return json.dumps(query_snapshot(snapshot, line), sort_keys=True)


def spellings(snapshot):
    """Every memoisable key of ``snapshot``, each with several lines
    that must parse to it: dotted and integer address, upper-case verb,
    extra whitespace, reversed AS pair, leading-zero facility id."""
    for address in snapshot.interfaces:
        dotted = int_to_ip(address)
        yield [
            f"iface {dotted}",
            f"iface {address}",
            f"IFACE {dotted}",
            f"  iface \t {address}  ",
        ]
    for low, high in snapshot.links_by_aspair:
        yield [
            f"link {low} {high}",
            f"link {high} {low}",
            f"LINK {low} {high}",
            f" link   {high}\t{low} ",
        ]
    for facility in snapshot.facility_tenants:
        yield [
            f"tenants {facility}",
            f"tenants 0{facility}",
            f"Tenants {facility}",
            f"tenants   00{facility}  ",
        ]
    yield ["info", "INFO", "  info  "]


def spellings_flat(snapshot, count):
    """The first ``count`` lines of :func:`spellings` (all for ``None``)."""
    lines = [line for group in spellings(snapshot) for line in group]
    return lines[:count]


def memoised_queries(snapshot):
    """Every normalised query whose answer ``snapshot`` stores."""
    yield from (("iface", address) for address in snapshot.interfaces)
    yield from (("link", pair) for pair in snapshot.links_by_aspair)
    yield from (
        ("tenants", facility) for facility in snapshot.facility_tenants
    )
    yield ("info",)


def absent_lines(snapshot, count, seed):
    """``count`` lines each of absent addresses, AS pairs and facility
    ids on ``snapshot``, in assorted spellings: dotted and integer
    addresses, both AS orders, pairs of the map's own ASNs, negative
    and oversized ids."""
    rng = random.Random(f"absent:{seed}:{snapshot.fingerprint}")
    asns = sorted({asn for pair in snapshot.links_by_aspair for asn in pair})
    lines = []
    while len(lines) < count:
        address = rng.randrange(MAX_IPV4 + 1)
        if address not in snapshot.interfaces:
            spelling = int_to_ip(address) if len(lines) % 3 else address
            lines.append(f"iface {spelling}")
    pairs = 0
    while pairs < count:
        if pairs % 2:
            near, far = rng.choice(asns), rng.choice(asns)
        else:
            near, far = (rng.randrange(-(2**40), 2**40) for _ in range(2))
        if (min(near, far), max(near, far)) not in snapshot.links_by_aspair:
            lines.append(f"link {near} {far}")
            pairs += 1
    facilities = 0
    while facilities < count:
        facility = rng.choice(
            (rng.randrange(1000), rng.randrange(MAX_IPV4 + 1))
        )
        if facility not in snapshot.facility_tenants:
            lines.append(f"tenants {facility}")
            facilities += 1
    return lines


def memo_bound(snapshot):
    """At most one stored answer per indexed entity, plus ``info``."""
    return (
        len(snapshot.interfaces)
        + len(snapshot.links_by_aspair)
        + len(snapshot.facility_tenants)
        + 1
    )


def cold(snapshot):
    """A copy of ``snapshot`` with an empty answer memo (same content,
    same fingerprint: the memo is not content)."""
    copy = dataclasses.replace(snapshot)
    assert copy == snapshot and len(copy.answers) == 0
    return copy


class TestQueryProtocol:
    def test_iface_accepts_dotted_and_integer_forms(self, small_snapshot):
        address = next(iter(small_snapshot.interfaces))
        dotted = query_snapshot(small_snapshot, f"iface {int_to_ip(address)}")
        numeric = query_snapshot(small_snapshot, f"iface {address}")
        assert dotted == numeric
        assert dotted["found"] is True
        assert dotted["address"] == int_to_ip(address)
        assert dotted["owner_asn"] == small_snapshot.interfaces[address].owner_asn

    def test_iface_unknown_address_not_found(self, small_snapshot):
        absent = max(small_snapshot.interfaces) + 1
        response = query_snapshot(small_snapshot, f"iface {absent}")
        assert response["found"] is False
        assert response["fingerprint"] == small_snapshot.fingerprint

    def test_link_is_order_insensitive(self, small_snapshot):
        (low, high) = next(iter(small_snapshot.links_by_aspair))
        forward = query_snapshot(small_snapshot, f"link {low} {high}")
        backward = query_snapshot(small_snapshot, f"link {high} {low}")
        assert forward == backward
        assert forward["found"] is True
        assert len(forward["links"]) == len(
            small_snapshot.links_by_aspair[(low, high)]
        )

    def test_tenants_lists_facility_presence(self, small_snapshot):
        facility = next(iter(small_snapshot.facility_tenants))
        response = query_snapshot(small_snapshot, f"tenants {facility}")
        assert response["found"] is True
        assert tuple(response["tenants"]) == (
            small_snapshot.facility_tenants[facility]
        )

    def test_info_reports_version_and_sizes(self, small_snapshot):
        response = query_snapshot(small_snapshot, "info")
        assert response["epoch"] == small_snapshot.epoch
        assert response["fingerprint"] == small_snapshot.fingerprint
        assert response["interfaces"] == small_snapshot.stats["interfaces"]
        assert response["links"] == small_snapshot.stats["links"]

    def test_help_lists_commands(self, small_snapshot):
        response = query_snapshot(small_snapshot, "help")
        assert "iface <address>" in response["commands"]

    def test_errors_never_raise(self, small_snapshot):
        for line in MALFORMED:
            response = query_snapshot(small_snapshot, line)
            assert "error" in response
            assert response["fingerprint"] == small_snapshot.fingerprint


class TestQueryEngine:
    def test_no_snapshot_yet_is_an_error(self):
        engine = QueryEngine(Instrumentation())
        assert engine.current() is None
        assert engine.execute("info") == {"error": "no snapshot published yet"}

    def test_swap_switches_the_read_path(self, small_snapshot):
        obs = Instrumentation()
        engine = QueryEngine(obs)
        engine.swap(small_snapshot)
        assert engine.current() is small_snapshot
        response = engine.execute("info")
        assert response["fingerprint"] == small_snapshot.fingerprint
        assert obs.counter("serve.swaps") == 1
        assert obs.counter("serve.queries") == 1

    def test_execute_line_is_canonical_json(self, small_snapshot):
        engine = QueryEngine()
        engine.swap(small_snapshot)
        line = engine.execute_line("info")
        assert "\n" not in line
        document = json.loads(line)
        assert list(document) == sorted(document)


class TestAnswerMemo:
    """``execute_line`` serves found lookups from a per-snapshot memo of
    their wire text; every answer must still equal the pure rendering."""

    def test_every_spelling_equals_the_pure_answer_and_renders_once(
        self, small_snapshot, small_stream_handle
    ):
        versions = [small_snapshot, *small_stream_handle.snapshots]
        obs = Instrumentation()
        engine = QueryEngine(obs)
        asked = 0
        for version in map(cold, versions):
            engine.swap(version)
            keys = 0
            before = obs.counter("serve.answers.rendered")
            for lines in spellings(version):
                keys += 1
                for line in lines * 2:  # the second round is all hits
                    assert engine.execute_line(line) == wire(version, line)
                    asked += 1
            # Each normalised key rendered exactly once on this version.
            assert obs.counter("serve.answers.rendered") - before == keys
            assert len(version.answers) == keys == memo_bound(version)
        assert obs.counter("serve.queries") == asked

    def test_hits_emit_the_same_query_events(self, small_snapshot):
        """Memo hits and template fills emit the kind, found flag and
        epoch of the pure answer."""
        snapshot = cold(small_snapshot)
        address = next(iter(snapshot.interfaces))
        lines = [
            "info",
            f"iface {address}",
            f"iface {int_to_ip(address)}",
            *absent_lines(snapshot, 2, 0),
        ]
        sink = MemorySink()
        engine = QueryEngine(Instrumentation(sink))
        engine.swap(snapshot)
        for line in lines * 2:
            engine.execute_line(line)
        events = [event.payload for event in sink.by_name("serve.query")]
        expected = []
        for line in lines * 2:
            response = query_snapshot(small_snapshot, line)
            expected.append({
                "kind": response["query"],
                "found": response.get("found"),
                "epoch": small_snapshot.epoch,
            })
        assert events == expected

    def test_canonical_lines_parse_back_to_their_query(
        self, small_snapshot, small_stream_handle
    ):
        for version in (small_snapshot, *small_stream_handle.snapshots):
            for normalised in memoised_queries(version):
                assert _parse(_canonical(normalised)) == normalised

    def test_canonical_repeat_is_never_parsed(
        self, small_snapshot, monkeypatch
    ):
        snapshot = cold(small_snapshot)
        address = next(iter(snapshot.interfaces))
        pair = next(iter(snapshot.links_by_aspair))
        facility = next(iter(snapshot.facility_tenants))
        canonical = [
            f"iface {int_to_ip(address)}",
            f"link {pair[0]} {pair[1]}",
            f"tenants {facility}",
            "info",
        ]
        other = f"IFACE {address}"
        expected = {line: wire(snapshot, line) for line in [*canonical, other]}
        parsed = []

        def counting_parse(line):
            parsed.append(line)
            return _parse(line)

        monkeypatch.setattr("repro.serve.query._parse", counting_parse)
        engine = QueryEngine(Instrumentation())
        engine.swap(snapshot)
        for line in canonical:
            assert engine.execute_line(line) == expected[line]
            assert parsed == [line]
            assert engine.execute_line(line) == expected[line]
            assert parsed == [line]  # the repeat was one memo probe
            parsed.clear()
        # Another spelling parses once, then hits the stored answer.
        assert engine.execute_line(other) == expected[other]
        assert parsed == [other]

    def test_template_fills_equal_the_pure_answer(
        self, small_snapshot, small_stream_handle
    ):
        """Not-found lookups are filled from per-snapshot templates:
        10,000 absent keys of each verb per version, every one byte
        for byte the pure rendering, and none stored."""
        engine = QueryEngine(Instrumentation())
        for seed, version in enumerate(
            map(cold, (small_snapshot, *small_stream_handle.snapshots))
        ):
            engine.swap(version)
            for line in absent_lines(version, 10_000, seed):
                assert engine.execute_line(line) == wire(version, line)
            assert len(version.answers) == 0

    def test_misses_errors_and_health_are_never_stored(self, small_snapshot):
        snapshot = cold(small_snapshot)
        health = ServiceHealth()
        live = QueryEngine(Instrumentation(), health=health)
        bare = QueryEngine(Instrumentation())
        for engine in (live, bare):
            engine.swap(snapshot)
        for line in spellings_flat(snapshot, 40):
            live.execute_line(line)
        filled = len(snapshot.answers)
        assert 0 < filled <= memo_bound(snapshot)

        rng = random.Random(23)
        misses = 0
        while misses < 10_000:
            address = rng.randrange(2**32)
            if address in snapshot.interfaces:
                continue
            line = f"iface {int_to_ip(address) if misses % 2 else address}"
            assert live.execute_line(line) == wire(snapshot, line)
            misses += 1
        absent_pair = (10**9, 10**9 + 1)
        absent_facility = max(snapshot.facility_tenants) + 1
        facility = next(iter(snapshot.facility_tenants))
        others = [
            *MALFORMED,
            "help",
            f"link {absent_pair[0]} {absent_pair[1]}",
            f"tenants {absent_facility}",
            "tenants -5",
            "iface 99999999999999",
            "health",
            f"health {facility}",
            "health 1 2",
            "health sideways",
        ]
        for engine in (live, bare):
            for line in others:
                engine.execute_line(line)
        assert len(snapshot.answers) == filled

    def test_memo_dies_with_its_snapshot(self, small_stream_handle):
        """A long-running service swaps forever: no memo may outlive
        the last reference to its snapshot."""
        first, second = small_stream_handle.snapshots[:2]
        engine = QueryEngine(Instrumentation())
        snapshot = cold(first)
        engine.swap(snapshot)
        for line in spellings_flat(snapshot, 60):
            engine.execute_line(line)
        # The snapshot holds its memo strongly, so a dead memo means a
        # dead snapshot too.
        memo = weakref.ref(snapshot.answers)
        assert len(memo()) > 0
        engine.swap(second)
        del snapshot
        gc.collect()
        assert memo() is None


class TestTornMap:
    @staticmethod
    def _hammer(engine, snapshots, lines, ask, answers=0):
        """Four threads ask ``lines`` through ``ask`` while the main
        thread swaps ``engine`` through every version, at least 200
        times and until the threads gave ``answers`` answers (30 s at
        most); returns each thread's (line, answer) pairs."""
        stop = threading.Event()
        observed: list[list[tuple[str, object]]] = [[] for _ in range(4)]

        def hammer(slot: int) -> None:
            i = slot * len(lines) // len(observed)  # spread the threads
            while not stop.is_set():
                line = lines[i % len(lines)]
                observed[slot].append((line, ask(line)))
                i += 1

        threads = [
            threading.Thread(target=hammer, args=(slot,)) for slot in range(4)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            deadline = time.monotonic() + 30
            round_ = 0
            while round_ < 200 or (
                sum(map(len, observed)) < answers
                and time.monotonic() < deadline
            ):
                engine.swap(snapshots[round_ % len(snapshots)])
                round_ += 1
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=30)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        return observed

    def test_swaps_under_concurrent_queries_never_tear(
        self, small_stream_handle
    ):
        """Hammer the engine from threads while the main thread swaps
        through every published version; each answer must match a pure
        recomputation against the single version it names."""
        snapshots = list(small_stream_handle.snapshots)
        assert len(snapshots) >= 2
        versions = {(s.epoch, s.fingerprint): s for s in snapshots}
        engine = QueryEngine()
        engine.swap(snapshots[0])

        address = next(iter(snapshots[-1].interfaces))
        pair = next(iter(snapshots[-1].links_by_aspair))
        lines = ["info", f"iface {address}", f"link {pair[0]} {pair[1]}"]

        observed = self._hammer(engine, snapshots, lines, engine.execute)
        answered = 0
        for slot in observed:
            for line, response in slot:
                version = (response["epoch"], response["fingerprint"])
                assert version in versions  # a published version...
                # ...and the whole answer came from that one version.
                assert response == query_snapshot(versions[version], line)
                answered += 1
        assert answered > 0

    @pytest.mark.parametrize("memo", ["cold", "warm"])
    def test_wire_answers_never_tear(self, small_stream_handle, memo):
        """The same hammer over ``execute_line``: a memoised answer must
        come from, and be stored in, the one version it names."""
        snapshots = [cold(s) for s in small_stream_handle.snapshots]
        versions = {(s.epoch, s.fingerprint): s for s in snapshots}
        # Every key of the newest map, in every spelling, plus absent
        # keys of each verb: a cold memo keeps filling, and templates
        # keep being built, while the versions swap.
        lines = [
            *spellings_flat(snapshots[-1], None),
            "iface 1.2.3.4",
            *absent_lines(snapshots[-1], 20, 0),
        ]
        engine = QueryEngine()
        if memo == "warm":
            for snapshot in snapshots:
                engine.swap(snapshot)
                for line in lines:
                    engine.execute_line(line)
        engine.swap(snapshots[0])

        observed = self._hammer(
            engine,
            snapshots,
            lines,
            engine.execute_line,
            answers=len(lines) * len(snapshots),
        )
        answered = 0
        for slot in observed:
            for line, text in slot:
                document = json.loads(text)
                version = (document["epoch"], document["fingerprint"])
                assert version in versions
                assert text == wire(versions[version], line)
                answered += 1
        assert answered > 0
        for snapshot in snapshots:
            assert len(snapshot.answers) <= memo_bound(snapshot)
            for line in lines:
                # Whatever a racing fill stored is this version's text.
                assert served_from(snapshot, line) == wire(snapshot, line)


def served_from(snapshot, line):
    """What a fresh engine serves for ``line`` from ``snapshot`` as its
    memo stands (the stored text, if a fill stored one)."""
    engine = QueryEngine()
    engine.swap(snapshot)
    return engine.execute_line(line)


class TestAddressBounds:
    """Integer forms are re-bounded to [0, 2^32) — `isdigit` alone let
    oversized digit strings blow up inside `int_to_ip`."""

    def test_oversized_iface_integer_is_a_clean_error(self, small_snapshot):
        response = query_snapshot(small_snapshot, "iface 99999999999999")
        assert "bad address" in response["error"]
        assert response["fingerprint"] == small_snapshot.fingerprint

    def test_max_ipv4_is_still_a_valid_address(self, small_snapshot):
        response = query_snapshot(small_snapshot, "iface 4294967295")
        assert "error" not in response
        assert response["found"] is False

    def test_tenants_rejects_out_of_range_ids(self, small_snapshot):
        for bad in ("-5", "99999999999999"):
            response = query_snapshot(small_snapshot, f"tenants {bad}")
            assert "error" in response
            assert "found" not in response
        assert "outside [0, 2^32)" in query_snapshot(
            small_snapshot, "tenants 99999999999999"
        )["error"]

    def test_tenants_rejects_non_integer_ids(self, small_snapshot):
        response = query_snapshot(small_snapshot, "tenants five")
        assert response["error"] == "usage: tenants <facility-id>"


class TestHealthVerb:
    def test_snapshot_health_needs_a_live_service(self, small_snapshot):
        response = query_snapshot(small_snapshot, "health")
        assert "live service" in response["error"]

    def test_engine_answers_health_even_before_first_publish(self):
        from repro.serve import ServiceHealth

        engine = QueryEngine(Instrumentation(), health=ServiceHealth())
        response = engine.execute("health")
        assert response["state"] == "ok"
        assert response["epochs_behind"] == 0
        assert "error" not in response
        assert "fingerprint" not in response  # nothing published yet

    def test_engine_health_names_the_served_version(self, small_snapshot):
        from repro.serve import ServiceHealth

        engine = QueryEngine(Instrumentation(), health=ServiceHealth())
        engine.swap(small_snapshot)
        response = engine.execute("health")
        assert response["fingerprint"] == small_snapshot.fingerprint
        assert response["epoch"] == small_snapshot.epoch
        assert response["data"]["interfaces"] == len(small_snapshot.interfaces)

    def test_health_rejects_extra_arguments(self):
        from repro.serve import ServiceHealth

        engine = QueryEngine(Instrumentation(), health=ServiceHealth())
        error = engine.execute("health 1 2")["error"]
        assert error == "usage: health [facility-id]"

    def test_facility_health_reports_alarm_status(self, small_snapshot):
        from repro.serve import ServiceHealth

        health = ServiceHealth()
        health.record_map_assessment(
            {
                "assessment": "topology-change",
                "alarmed_facilities": [17],
                "active_alarms": 1,
                "observations": 4,
                "global_loss": 0.0,
                "fault_pressure": 0.0,
            }
        )
        engine = QueryEngine(Instrumentation(), health=health)
        engine.swap(small_snapshot)
        alarmed = engine.execute("health 17")
        assert alarmed["alarmed"] is True
        assert alarmed["assessment"] == "topology-change"
        assert alarmed["fingerprint"] == small_snapshot.fingerprint
        quiet = engine.execute("health 3")
        assert quiet["alarmed"] is False

    def test_facility_health_bounds_checked_like_tenants(self):
        from repro.serve import ServiceHealth

        engine = QueryEngine(Instrumentation(), health=ServiceHealth())
        # Same guard and error shape as the tenants argument: parse
        # failures are usage errors, out-of-range ids name the range.
        assert (
            engine.execute("health sideways")["error"]
            == "usage: health [facility-id]"
        )
        assert "outside [0, 2^32)" in engine.execute("health -1")["error"]
        assert (
            "outside [0, 2^32)" in engine.execute(f"health {2**32}")["error"]
        )
        # Before any publish the verb still answers for a valid id.
        response = engine.execute("health 5")
        assert response["alarmed"] is False
        assert "fingerprint" not in response
