"""The one fork map, ``supervised_map``: ordering, context and fallbacks.

Crash, hang and retry handling live in ``test_supervise.py``; these
tests pin the plain map contract every caller relies on.
"""

from __future__ import annotations

import os

from repro.exec import fork_available, supervised_map


def _affine(context, payload):
    # Module-level so the fork path can reference it from children.
    return context["scale"] * payload + context["offset"]


def _tag_with_pid(context, payload):
    return (payload, os.getpid())


class TestSerialPaths:
    def test_workers_one_runs_serial_without_fallback(self):
        reasons = []
        result = supervised_map(
            _affine,
            [1, 2, 3],
            workers=1,
            context={"scale": 10, "offset": 5},
            fallback=reasons.append,
        )
        assert result == [15, 25, 35]
        assert reasons == []

    def test_too_few_payloads_reports_fallback(self):
        reasons = []
        result = supervised_map(
            _affine,
            [7],
            workers=4,
            context={"scale": 2, "offset": 0},
            fallback=reasons.append,
        )
        assert result == [14]
        assert reasons == ["too_few_payloads"]

    def test_empty_payloads(self):
        assert supervised_map(_affine, [], workers=4, context={}) == []


class TestForkPath:
    def test_results_in_submission_order(self):
        if not fork_available():  # pragma: no cover - linux containers fork
            return
        payloads = list(range(8))
        parallel = supervised_map(
            _affine,
            payloads,
            workers=2,
            context={"scale": 3, "offset": 1},
        )
        serial = [_affine({"scale": 3, "offset": 1}, p) for p in payloads]
        assert parallel == serial

    def test_work_runs_in_child_processes(self):
        if not fork_available():  # pragma: no cover
            return
        tagged = supervised_map(
            _tag_with_pid, list(range(6)), workers=2, context=None
        )
        assert [payload for payload, _ in tagged] == list(range(6))
        assert all(pid != os.getpid() for _, pid in tagged)
