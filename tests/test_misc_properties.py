"""Cross-cutting property tests and small utilities coverage."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.types import InferredType, InterfaceState, InterfaceStatus
from repro.experiments.context import clone_corpus, experiment_environment
from repro.experiments.formatting import format_table
from repro.export import interface_record
from repro.measurement.campaign import TraceCorpus
from repro.measurement.traceroute import Traceroute
from repro.topology.addressing import MAX_IPV4


addresses = st.integers(min_value=0, max_value=MAX_IPV4)
facility_ids = st.sets(st.integers(min_value=0, max_value=500), max_size=6)


class TestExportProperties:
    @given(
        address=addresses,
        candidates=facility_ids,
        status=st.sampled_from(list(InterfaceStatus)),
        inferred=st.sampled_from(list(InferredType)),
        remote=st.booleans(),
        owner=st.one_of(st.none(), st.integers(min_value=1, max_value=2**31)),
    )
    @settings(max_examples=150)
    def test_interface_record_always_json_serialisable(
        self, address, candidates, status, inferred, remote, owner
    ):
        state = InterfaceState(address=address, owner_asn=owner)
        state.candidates = set(candidates) or None
        state.status = status
        state.inferred_type = inferred
        state.remote = remote
        record = interface_record(state)
        encoded = json.dumps(record)
        decoded = json.loads(encoded)
        assert decoded["address"].count(".") == 3
        assert decoded["candidates"] == sorted(candidates)
        if len(candidates) == 1:
            assert decoded["facility"] == next(iter(candidates))
        else:
            assert decoded["facility"] is None


class TestFormatTable:
    def test_alignment_and_title(self):
        text = format_table(
            ["name", "count"],
            [["alpha", 1], ["b", 22]],
            title="Demo",
        )
        lines = text.splitlines()
        assert lines[0] == "Demo"
        assert "name" in lines[1] and "count" in lines[1]
        assert len(lines) == 5

    def test_empty_rows(self):
        text = format_table(["a"], [])
        assert "a" in text

    def test_wide_values_stretch_columns(self):
        text = format_table(["x"], [["very-long-value"]])
        header, rule, row = text.splitlines()
        assert len(rule) >= len("very-long-value")


class TestContextHelpers:
    def test_environment_cached(self):
        first = experiment_environment(seed=1234, small=True)
        second = experiment_environment(seed=1234, small=True)
        assert first is second

    def test_different_seed_different_environment(self):
        first = experiment_environment(seed=1234, small=True)
        other = experiment_environment(seed=1235, small=True)
        assert first is not other

    def test_clone_corpus_independent(self):
        corpus = TraceCorpus()
        trace = Traceroute(
            source_id="s",
            platform="p",
            src_asn=1,
            dst_address=5,
            addresses=(5,),
            rtts=(1.0,),
            routers=(None,),
            reached=True,
        )
        corpus.add(trace)
        clone = clone_corpus(corpus)
        clone.add(trace)
        assert len(corpus) == 1
        assert len(clone) == 2
