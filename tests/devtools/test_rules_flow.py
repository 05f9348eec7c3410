"""Fixtures for the rules built on the flow engine (R001, R005, R008,
R009): each rule fires on a minimal multi-module bad tree and stays
silent on the corresponding good one.

The bad patterns are the static half of the static/runtime pairing —
their runtime twins (sanitizer tripwires) live in
``tests/test_sanitize.py`` and must catch the same mistakes live.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from repro.devtools.lint import run_lint

pytestmark = pytest.mark.lint


def lint_tree(tmp_path: Path, files: dict[str, str], rules=None):
    """Write a multi-module tree and lint it."""
    for rel, source in files.items():
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source), encoding="utf-8")
    return run_lint(tmp_path, rules=rules)


def rule_ids(result):
    return [finding.rule for finding in result.findings]


#: A minimal substream helper matching the real ``repro.exec`` one, so
#: fixtures can model the provenance-carrying construction path.
SUBSTREAM = """
    from random import Random

    def substream(*parts):
        return Random(":".join(str(p) for p in parts))
"""


# ----------------------------------------------------------------------
# R001 — seed provenance (the taint half; per-shape fixtures for the
# random-module and constructor checks live in test_rules.py)
# ----------------------------------------------------------------------


class TestSeedProvenance:
    def test_flags_module_level_ambient_rng_reaching_draws(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "measurement/probe.py": """
                from random import Random

                _GLOBAL = Random(7)

                def helper(rng):
                    return rng.random()

                def run(seed):
                    ok = Random(seed).random()
                    bad = _GLOBAL.random()
                    worse = helper(_GLOBAL)
                    return ok, bad, worse
                """,
            },
            rules=["R001"],
        )
        # Both the direct module-stream draw and the one smuggled
        # through helper()'s parameter are flagged; the explicitly
        # seeded local stream is not.
        lines = [finding.line for finding in result.findings]
        assert rule_ids(result) == ["R001", "R001"]
        assert lines == [7, 11]  # helper's draw, then _GLOBAL.random()

    def test_substream_derived_draws_are_clean(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "exec/shard.py": SUBSTREAM,
                "measurement/probe.py": """
                from proj.exec.shard import substream

                def run(seed, index):
                    rng = substream("probe", seed, index)
                    return rng.random()
                """,
            },
            rules=["R001"],
        )
        assert rule_ids(result) == []

    def test_ambient_draws_are_flagged_in_every_unit(self, tmp_path):
        # No unit is exempt: a module-level stream in analysis/ is as
        # shared (and as fork-unsafe) as one in measurement/.
        result = lint_tree(
            tmp_path,
            {
                "analysis/plot.py": """
                from random import Random

                _JITTER = Random(0)

                def jitter():
                    return _JITTER.random()
                """,
            },
            rules=["R001"],
        )
        assert rule_ids(result) == ["R001"]
        assert "module-level RNG '_JITTER'" in result.findings[0].message


# ----------------------------------------------------------------------
# R005 — thread-shared state (the mutation rule's escape analysis)
# ----------------------------------------------------------------------


class TestSharedStateRace:
    BAD = {
        "serve/soaky.py": """
        import threading

        class Engine:
            def __init__(self):
                self.state = 0

        def run():
            engine = Engine()
            counts = {}

            def worker():
                engine.state = 9
                counts["x"] = 1

            thread = threading.Thread(target=worker)
            thread.start()
            return engine, counts
        """,
    }

    def test_flags_closure_mutations_of_thread_shared_state(self, tmp_path):
        result = lint_tree(tmp_path, dict(self.BAD), rules=["R005"])
        assert rule_ids(result).count("R005") >= 2  # attribute + key write
        messages = " / ".join(f.message for f in result.findings)
        assert "engine" in messages
        assert "counts" in messages

    def test_lock_guarded_mutation_is_clean(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "serve/soaky.py": """
                import threading

                def run():
                    counts = {}
                    lock = threading.Lock()

                    def worker():
                        with lock:
                            counts["x"] = 1

                    thread = threading.Thread(target=worker)
                    thread.start()
                    return counts
                """,
            },
            rules=["R005"],
        )
        assert rule_ids(result) == []


    def test_thread_target_resolves_in_the_spawning_scope(self, tmp_path):
        # Two spawners each nest their own ``worker``; the second one's
        # unlocked write must be judged against its own closure.
        result = lint_tree(
            tmp_path,
            {
                "serve/soaky.py": """
                import threading

                def first():
                    def worker():
                        return 1

                    threading.Thread(target=worker).start()

                def second():
                    counts = {}

                    def worker():
                        counts["x"] = 1

                    threading.Thread(target=worker).start()
                    return counts
                """,
            },
            rules=["R005"],
        )
        assert rule_ids(result) == ["R005"]
        assert result.findings[0].line == 14
        assert "counts" in result.findings[0].message


# ----------------------------------------------------------------------
# R005 — declared mutation points
# ----------------------------------------------------------------------


class TestMutationPoints:
    """A class's mutation points are its ``mutation_point``-decorated
    methods plus ``__init__``; writes to its state anywhere else are
    flagged (the static twin of the sanitizer's health guard)."""

    TREE = {
        "serve/health.py": """
        from proj.sanitize import mutation_point

        class ServiceHealth:
            @mutation_point
            def __init__(self):
                self._state = "ok"

            @mutation_point
            def transition(self, new_state):
                self._state = new_state

            def poke(self):
                self._state = "stale"
        """,
        "serve/query.py": """
        from proj.sanitize import mutation_point
        from proj.serve.health import ServiceHealth

        class QueryEngine:
            def __init__(self, health=None):
                self.health = health or ServiceHealth()
                self._snapshot = None

            @mutation_point
            def swap(self, snapshot):
                self._snapshot = snapshot
        """,
        "serve/service.py": """
        from proj.serve.query import QueryEngine

        def tamper(svc: QueryEngine):
            svc.health._x = 1
        """,
    }

    def findings_in(self, tmp_path, rel):
        result = lint_tree(tmp_path, dict(self.TREE), rules=["R005"])
        return [f for f in result.findings if f.path == rel]

    def test_undeclared_method_write_is_flagged_transition_is_clean(
        self, tmp_path
    ):
        (finding,) = self.findings_in(tmp_path, "serve/health.py")
        assert finding.rule == "R005"
        assert finding.line == 14  # poke's write, not transition's
        assert "ServiceHealth.poke" in finding.message

    def test_typed_local_writing_through_health_is_flagged(self, tmp_path):
        (finding,) = self.findings_in(tmp_path, "serve/service.py")
        assert finding.rule == "R005"
        assert finding.line == 5

    def test_query_engine_swap_is_clean(self, tmp_path):
        assert self.findings_in(tmp_path, "serve/query.py") == []

    def test_container_write_in_undeclared_method_is_flagged(self, tmp_path):
        # Appending to self._history changes ServiceHealth state as
        # surely as assigning self._state does.
        result = lint_tree(
            tmp_path,
            {
                "serve/health.py": """
                from proj.sanitize import mutation_point

                class ServiceHealth:
                    @mutation_point
                    def __init__(self):
                        self._history = []

                    def log(self, edge):
                        self._history.append(edge)
                """,
            },
            rules=["R005"],
        )
        assert rule_ids(result) == ["R005"]
        assert "ServiceHealth.log" in result.findings[0].message


# ----------------------------------------------------------------------
# R008 — exception containment
# ----------------------------------------------------------------------


class TestExceptionContainment:
    def test_flags_exception_escaping_supervised_map(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "exec/supervise.py": """
                class ShardExecutionError(RuntimeError):
                    pass

                class WeirdFault(Exception):
                    pass

                def inner():
                    raise WeirdFault("boom")

                def supervised_map(items):
                    try:
                        return [inner() for item in items]
                    except ShardExecutionError:
                        raise
                """,
            },
            rules=["R008"],
        )
        assert rule_ids(result) == ["R008"]
        message = result.findings[0].message
        assert "WeirdFault" in message
        assert "ShardExecutionError" in message  # the allowed contract

    def test_contained_boundary_is_clean(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "exec/supervise.py": """
                class ShardExecutionError(RuntimeError):
                    pass

                class WeirdFault(Exception):
                    pass

                def inner():
                    raise WeirdFault("boom")

                def supervised_map(items):
                    try:
                        return [inner() for item in items]
                    except ShardExecutionError:
                        raise
                    except Exception:
                        return []
                """,
            },
            rules=["R008"],
        )
        assert rule_ids(result) == []


# ----------------------------------------------------------------------
# R009 — import layering
# ----------------------------------------------------------------------


class TestImportLayering:
    def test_flags_upward_import(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "serve/engine.py": """
                class Engine:
                    pass
                """,
                "faults/upward.py": """
                from proj.serve.engine import Engine

                WHO = Engine
                """,
            },
            rules=["R009"],
        )
        assert rule_ids(result) == ["R009"]
        assert result.findings[0].path == "faults/upward.py"
        assert "strictly down" in result.findings[0].message

    def test_downward_import_is_clean(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "faults/plan.py": """
                class FaultPlan:
                    pass
                """,
                "serve/engine.py": """
                from proj.faults.plan import FaultPlan

                PLAN = FaultPlan
                """,
            },
            rules=["R009"],
        )
        assert rule_ids(result) == []

    def test_flags_import_cycle(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "serve/alpha.py": """
                from proj.serve.beta import B

                class A:
                    pass
                """,
                "serve/beta.py": """
                from proj.serve.alpha import A

                class B:
                    pass
                """,
            },
            rules=["R009"],
        )
        assert rule_ids(result) == ["R009"]
        assert "import cycle" in result.findings[0].message


# ----------------------------------------------------------------------
# Default wiring and multi-rule suppressions
# ----------------------------------------------------------------------


class TestFlowWiring:
    AMBIENT = {
        "measurement/probe.py": """
        import random

        def sample():
            return random.random()
        """,
    }

    def test_flow_rules_run_by_default(self, tmp_path):
        # One invariant, one finding: the global-stream draw is flagged
        # once, not once per engine that can see it.
        result = lint_tree(tmp_path, dict(self.AMBIENT))
        assert rule_ids(result) == ["R001"]
        assert "random.random" in result.findings[0].message

    def test_one_comment_suppresses_multiple_rules(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "measurement/probe.py": """
                import os
                import random

                def sample():
                    return random.random(), os.getenv("SEED")  # reprolint: disable=R001, R002 fixture: ambient on purpose
                """,
            },
        )
        assert rule_ids(result) == []
        assert sorted(finding.rule for finding, _ in result.suppressed) == [
            "R001",
            "R002",
        ]
        assert all(
            reason == "fixture: ambient on purpose"
            for _, reason in result.suppressed
        )
