"""Per-rule fixtures for reprolint: each rule must fire on a minimal
bad example and stay silent on the corresponding good one."""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from repro.devtools.lint import LintError, run_lint

pytestmark = pytest.mark.lint


def lint_source(tmp_path: Path, source: str, *, rel: str = "mod.py", rules=None):
    """Write one module into a scratch tree and lint it."""
    target = tmp_path / rel
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(textwrap.dedent(source), encoding="utf-8")
    return run_lint(tmp_path, rules=rules)


def rule_ids(result):
    return [finding.rule for finding in result.findings]


# ----------------------------------------------------------------------
# R001 — seed provenance: the random module and unseeded constructors
# ----------------------------------------------------------------------


def test_r001_flags_module_level_random(tmp_path):
    result = lint_source(
        tmp_path,
        """
        import random

        def draw():
            return random.random()
        """,
    )
    assert rule_ids(result) == ["R001"]
    assert "random.random" in result.findings[0].message


def test_r001_flags_unseeded_random_instance(tmp_path):
    result = lint_source(
        tmp_path,
        """
        from random import Random

        def draw():
            return Random().random()
        """,
    )
    assert rule_ids(result) == ["R001"]
    assert "no seed" in result.findings[0].message


def test_r001_flags_function_reference(tmp_path):
    result = lint_source(
        tmp_path,
        """
        import random

        def scrambler():
            return random.shuffle
        """,
    )
    assert rule_ids(result) == ["R001"]


def test_r001_flags_unseeded_stream_never_drawn(tmp_path):
    result = lint_source(
        tmp_path,
        """
        from random import Random

        def make():
            return Random()
        """,
    )
    assert rule_ids(result) == ["R001"]
    assert "no seed" in result.findings[0].message


def test_r001_flags_system_random_once(tmp_path):
    result = lint_source(
        tmp_path,
        """
        import random

        def draw():
            return random.SystemRandom().random()
        """,
    )
    assert rule_ids(result) == ["R001"]
    assert "OS entropy" in result.findings[0].message


def test_r001_accepts_seeded_random(tmp_path):
    result = lint_source(
        tmp_path,
        """
        from random import Random

        def draw(seed: int):
            rng = Random(seed)
            return rng.random()
        """,
    )
    assert rule_ids(result) == []


# ----------------------------------------------------------------------
# R002 — wall-clock / environment reads in inference layers
# ----------------------------------------------------------------------


def test_r002_flags_wall_clock_in_core(tmp_path):
    result = lint_source(
        tmp_path,
        """
        import time

        def stamp():
            return time.time()
        """,
        rel="core/clock.py",
    )
    assert rule_ids(result) == ["R002"]


def test_r002_flags_environ_and_datetime(tmp_path):
    result = lint_source(
        tmp_path,
        """
        import os
        from datetime import datetime

        def snapshot():
            return os.environ.get("HOME"), datetime.now()
        """,
        rel="measurement/env.py",
    )
    assert sorted(rule_ids(result)) == ["R002", "R002"]


def test_r002_ignores_layers_outside_scope(tmp_path):
    result = lint_source(
        tmp_path,
        """
        import time

        def stamp():
            return time.time()
        """,
        rel="experiments/clock.py",
    )
    assert rule_ids(result) == []


def test_r002_allows_monotonic_timers(tmp_path):
    result = lint_source(
        tmp_path,
        """
        import time

        def elapsed(start: float):
            return time.perf_counter() - start
        """,
        rel="core/timer.py",
    )
    assert rule_ids(result) == []


# ----------------------------------------------------------------------
# R003 — unsorted set iteration feeding outputs
# ----------------------------------------------------------------------


def test_r003_flags_returned_accumulation(tmp_path):
    result = lint_source(
        tmp_path,
        """
        def collect(items: set):
            out = []
            for item in items:
                out.append(item)
            return out
        """,
    )
    assert rule_ids(result) == ["R003"]


def test_r003_flags_yield_from_set(tmp_path):
    result = lint_source(
        tmp_path,
        """
        def walk(seen):
            pending = set(seen)
            for node in pending:
                yield node
        """,
    )
    assert rule_ids(result) == ["R003"]


def test_r003_flags_comprehension_in_return(tmp_path):
    result = lint_source(
        tmp_path,
        """
        def labels(ids: frozenset):
            return [f"node-{i}" for i in ids]
        """,
    )
    assert rule_ids(result) == ["R003"]


def test_r003_flags_dict_keys_into_emit(tmp_path):
    result = lint_source(
        tmp_path,
        """
        def report(obs, counts: dict):
            for name in counts.keys():
                obs.emit("row", name=name)
        """,
    )
    assert "R003" in rule_ids(result)


def test_r003_accepts_sorted_iteration(tmp_path):
    result = lint_source(
        tmp_path,
        """
        def collect(items: set):
            out = []
            for item in sorted(items):
                out.append(item)
            return [f"x{i}" for i in sorted(items)]
        """,
    )
    assert rule_ids(result) == []


def test_r003_infers_set_typed_attributes_project_wide(tmp_path):
    # `tripped: set[str]` annotated in one module types `obj.tripped`
    # wherever it is read.
    (tmp_path / "state.py").write_text(
        textwrap.dedent(
            """
            class Breaker:
                def __init__(self):
                    self.tripped: set[str] = set()
            """
        ),
        encoding="utf-8",
    )
    result = lint_source(
        tmp_path,
        """
        def report(breaker):
            return [name for name in breaker.tripped]
        """,
    )
    assert rule_ids(result) == ["R003"]


def test_r003_infers_dict_of_set_lookups(tmp_path):
    result = lint_source(
        tmp_path,
        """
        def tenants(index: dict[int, set[int]], facility: int):
            out = []
            for asn in index[facility]:
                out.append(asn)
            return out
        """,
    )
    assert rule_ids(result) == ["R003"]


def test_r003_set_comprehension_is_order_free(tmp_path):
    # Building a *set* from a set cannot leak iteration order; the rule
    # re-fires wherever that set is later iterated into an output.
    result = lint_source(
        tmp_path,
        """
        def distinct(items: set):
            return {i * 2 for i in items}
        """,
    )
    assert rule_ids(result) == []


def test_r003_set_accumulator_is_order_free(tmp_path):
    result = lint_source(
        tmp_path,
        """
        def widen(items: set):
            out = set()
            for item in items:
                out.add(item + 1)
            return out
        """,
    )
    assert rule_ids(result) == []


def test_r003_ignores_order_free_consumption(tmp_path):
    # Membership tests and local aggregation don't leak iteration order.
    result = lint_source(
        tmp_path,
        """
        def total(items: set):
            acc = 0
            for item in items:
                acc += item
            return acc
        """,
    )
    assert rule_ids(result) == []


def _breaker_registry(tmp_path):
    (tmp_path / "obs").mkdir()
    (tmp_path / "obs" / "events.py").write_text(
        'EVENT_NAMES = {\n    "breaker.open": "fixture",\n}\n',
        encoding="utf-8",
    )


def test_r003_flags_set_returning_method_in_sink(tmp_path):
    # Regression for the CircuitBreaker.open_keys() bug: a method
    # annotated ``-> set[...]`` types its *call result*, so iterating
    # that result into an emit payload is flagged project-wide.
    _breaker_registry(tmp_path)
    result = lint_source(
        tmp_path,
        """
        class Breaker:
            def open_keys(self) -> set[str]:
                return {"a", "b"}

        def report(obs, breaker: Breaker):
            for key in breaker.open_keys():
                obs.emit("breaker.open", key=key)
        """,
    )
    assert rule_ids(result) == ["R003"]


def test_r003_accepts_sorted_set_returning_method(tmp_path):
    _breaker_registry(tmp_path)
    result = lint_source(
        tmp_path,
        """
        class Breaker:
            def open_keys(self) -> set[str]:
                return {"a", "b"}

        def report(obs, breaker: Breaker):
            for key in sorted(breaker.open_keys()):
                obs.emit("breaker.open", key=key)
        """,
    )
    assert rule_ids(result) == []


# ----------------------------------------------------------------------
# R004 — the event namespace
# ----------------------------------------------------------------------


def _registry(names: dict[str, str]) -> str:
    entries = "\n".join(f'    "{k}": "{v}",' for k, v in names.items())
    return f"EVENT_NAMES = {{\n{entries}\n}}\n"


def test_r004_flags_unregistered_emit(tmp_path):
    (tmp_path / "obs").mkdir()
    (tmp_path / "obs" / "events.py").write_text(
        _registry({"known.event": "fires"}), encoding="utf-8"
    )
    result = lint_source(
        tmp_path,
        """
        def run(obs):
            obs.emit("known.event", n=1)
            obs.emit("rogue.event", n=2)
        """,
    )
    assert rule_ids(result) == ["R004"]
    assert "rogue.event" in result.findings[0].message


def test_r004_flags_dead_registry_entry(tmp_path):
    (tmp_path / "obs").mkdir()
    (tmp_path / "obs" / "events.py").write_text(
        _registry({"used.event": "fires", "dead.event": "never fires"}),
        encoding="utf-8",
    )
    result = lint_source(
        tmp_path,
        """
        def run(obs):
            obs.emit("used.event")
        """,
    )
    assert rule_ids(result) == ["R004"]
    assert "dead.event" in result.findings[0].message
    assert result.findings[0].path == "obs/events.py"


def test_r004_flags_missing_registry(tmp_path):
    result = lint_source(
        tmp_path,
        """
        def run(obs):
            obs.emit("orphan.event")
        """,
    )
    assert rule_ids(result) == ["R004"]
    assert "no EVENT_NAMES registry" in result.findings[0].message


def test_r004_checks_obsevent_constructor(tmp_path):
    (tmp_path / "obs").mkdir()
    (tmp_path / "obs" / "events.py").write_text(
        _registry({"good.event": "fires"}), encoding="utf-8"
    )
    result = lint_source(
        tmp_path,
        """
        def make(ObsEvent, obs):
            obs.emit("good.event")
            return ObsEvent(name="bad.event")
        """,
    )
    assert rule_ids(result) == ["R004"]
    assert "bad.event" in result.findings[0].message


# ----------------------------------------------------------------------
# R005 — mutation points: frozen dataclasses
# ----------------------------------------------------------------------

_FROZEN_CONFIG = """
from dataclasses import dataclass

@dataclass(frozen=True)
class EngineConfig:
    iterations: int = 5
"""


def test_r005_flags_cross_module_attribute_write(tmp_path):
    (tmp_path / "config.py").write_text(
        textwrap.dedent(_FROZEN_CONFIG), encoding="utf-8"
    )
    result = lint_source(
        tmp_path,
        """
        from config import EngineConfig

        def tweak():
            config = EngineConfig()
            config.iterations = 10
            return config
        """,
    )
    assert rule_ids(result) == ["R005"]
    assert "EngineConfig" in result.findings[0].message


def test_r005_flags_object_setattr_bypass(tmp_path):
    result = lint_source(
        tmp_path,
        """
        def tweak(config):
            object.__setattr__(config, "iterations", 10)
        """,
    )
    assert rule_ids(result) == ["R005"]


def test_r005_allows_self_setattr_in_post_init(tmp_path):
    result = lint_source(
        tmp_path,
        """
        from dataclasses import dataclass

        @dataclass(frozen=True)
        class EngineConfig:
            iterations: int = 5

            def __post_init__(self):
                object.__setattr__(self, "iterations", max(1, self.iterations))
        """,
    )
    assert rule_ids(result) == []


def test_r005_allows_replace_derivation(tmp_path):
    (tmp_path / "config.py").write_text(
        textwrap.dedent(_FROZEN_CONFIG), encoding="utf-8"
    )
    result = lint_source(
        tmp_path,
        """
        import dataclasses
        from config import EngineConfig

        def tweak():
            config = EngineConfig()
            return dataclasses.replace(config, iterations=10)
        """,
    )
    assert rule_ids(result) == []


# ----------------------------------------------------------------------
# R006 — CLI exit discipline
# ----------------------------------------------------------------------


def test_r006_flags_hard_exit_in_cli(tmp_path):
    result = lint_source(
        tmp_path,
        """
        import sys

        def main():
            sys.exit(1)
        """,
        rel="cli.py",
    )
    assert rule_ids(result) == ["R006"]


def test_r006_flags_raised_systemexit(tmp_path):
    result = lint_source(
        tmp_path,
        """
        def main():
            raise SystemExit(3)
        """,
        rel="__main__.py",
    )
    assert rule_ids(result) == ["R006"]


def test_r006_allows_exit_via_main_and_helper(tmp_path):
    result = lint_source(
        tmp_path,
        """
        import sys

        def main():
            return cli_error("bad input")

        def cli_error(message):
            print(message, file=sys.stderr)
            return 2

        sys.exit(main())
        """,
        rel="cli.py",
    )
    assert rule_ids(result) == []


def test_r006_ignores_non_cli_modules(tmp_path):
    result = lint_source(
        tmp_path,
        """
        import sys

        def bail():
            sys.exit(1)
        """,
        rel="worker.py",
    )
    assert rule_ids(result) == []


# ----------------------------------------------------------------------
# R009 — layering: process pools confined to the exec layer
# ----------------------------------------------------------------------


def test_r007_flags_multiprocessing_import_outside_exec(tmp_path):
    result = lint_source(
        tmp_path,
        """
        import multiprocessing

        def spawn():
            return multiprocessing.cpu_count()
        """,
        rel="measurement/campaign.py",
    )
    assert rule_ids(result) == ["R009"]
    assert "exec" in result.findings[0].message


def test_r007_flags_concurrent_futures_from_import(tmp_path):
    result = lint_source(
        tmp_path,
        """
        from concurrent.futures import ProcessPoolExecutor

        def pool():
            return ProcessPoolExecutor(max_workers=2)
        """,
        rel="core/cfs.py",
    )
    assert rule_ids(result) == ["R009"]


def test_r009_flags_function_local_pool_import(tmp_path):
    # Function-local imports are exempt from the layer ranking, but not
    # from the confined roots: a lazy import spawns workers just as well.
    result = lint_source(
        tmp_path,
        """
        def spawn():
            import multiprocessing

            return multiprocessing.cpu_count()
        """,
        rel="serve/pool.py",
    )
    assert rule_ids(result) == ["R009"]


def test_r007_allows_imports_inside_exec(tmp_path):
    result = lint_source(
        tmp_path,
        """
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        def pool(workers: int):
            context = multiprocessing.get_context("fork")
            return ProcessPoolExecutor(workers, mp_context=context)
        """,
        rel="exec/pool.py",
    )
    assert rule_ids(result) == []


def test_r007_ignores_relative_and_unrelated_imports(tmp_path):
    result = lint_source(
        tmp_path,
        """
        import json
        from . import helpers
        from .exec import supervised_map
        """,
        rel="core/pipeline.py",
    )
    assert rule_ids(result) == []


def test_r007_suppressible_with_reason(tmp_path):
    result = lint_source(
        tmp_path,
        """
        import multiprocessing  # reprolint: disable=R009 fixture only
        """,
        rel="faults/inject.py",
    )
    assert rule_ids(result) == []
    assert len(result.suppressed) == 1
    assert result.suppressed[0][0].rule == "R009"


# ----------------------------------------------------------------------
# R007 — checkpoint writes go through the atomic helper
# ----------------------------------------------------------------------


def test_r008_flags_bare_write_open_in_checkpoint(tmp_path):
    result = lint_source(
        tmp_path,
        """
        def save(path, text):
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
        """,
        rel="checkpoint/store.py",
    )
    assert rule_ids(result) == ["R007"]
    assert "atomic_write" in result.findings[0].message


def test_r008_flags_path_write_text_and_dynamic_mode(tmp_path):
    result = lint_source(
        tmp_path,
        """
        def save(path, text, mode):
            path.write_text(text)
            open(path, mode)
        """,
        rel="checkpoint/stages.py",
    )
    assert rule_ids(result) == ["R007", "R007"]


def test_r008_flags_raw_os_open_outside_helper(tmp_path):
    result = lint_source(
        tmp_path,
        """
        import os

        def save(path):
            return os.open(path, os.O_WRONLY)
        """,
        rel="checkpoint/manifest.py",
    )
    assert rule_ids(result) == ["R007"]


def test_r008_allows_reads_and_exempts_atomic_helper(tmp_path):
    result = lint_source(
        tmp_path,
        """
        def load(path):
            with open(path, "rb") as handle:
                return handle.read()

        def load_default(path):
            with open(path) as handle:
                return handle.read()
        """,
        rel="checkpoint/store.py",
    )
    assert rule_ids(result) == []
    result = lint_source(
        tmp_path,
        """
        import os

        def atomic_write_bytes(path, data):
            fd = os.open(path, os.O_WRONLY | os.O_CREAT)
            os.write(fd, data)
            os.close(fd)
        """,
        rel="checkpoint/atomic.py",
    )
    assert rule_ids(result) == []


def test_r008_ignores_writes_outside_checkpoint(tmp_path):
    result = lint_source(
        tmp_path,
        """
        def export(path, text):
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
        """,
        rel="export.py",
    )
    assert rule_ids(result) == []


# ----------------------------------------------------------------------
# R005 — mutation points: the serve read path never mutates snapshots
# ----------------------------------------------------------------------


def test_r009_flags_attribute_and_index_writes(tmp_path):
    result = lint_source(
        tmp_path,
        """
        def poison(snapshot, address):
            snapshot.epoch = 99
            snapshot.interfaces[address] = None
        """,
        rel="serve/query.py",
    )
    assert rule_ids(result) == ["R005", "R005"]
    assert "copy-on-write" in result.findings[0].message


def test_r009_flags_mutating_container_methods(tmp_path):
    result = lint_source(
        tmp_path,
        """
        def poison(final_snapshot):
            final_snapshot.links.append(None)
            final_snapshot.stats.update({"interfaces": 0})
        """,
        rel="serve/ingest.py",
    )
    assert rule_ids(result) == ["R005", "R005"]


def test_r009_flags_setattr_bypass_and_annotated_params(tmp_path):
    result = lint_source(
        tmp_path,
        """
        def poison(published: MapSnapshot):
            setattr(published, "epoch", 0)
            published.facility_tenants.clear()
        """,
        rel="serve/service.py",
    )
    assert rule_ids(result) == ["R005", "R005"]


def test_r009_allows_swap_rebinding_and_reads(tmp_path):
    result = lint_source(
        tmp_path,
        """
        class Engine:
            def swap(self, snapshot):
                self._snapshot = snapshot  # rebinding IS the swap

            def lookup(self, address):
                snapshot = self._snapshot
                return snapshot.interfaces.get(address)

        def collect(handle, snapshot):
            handle.snapshots.append(snapshot)  # a list of them, not one
        """,
        rel="serve/query.py",
    )
    assert rule_ids(result) == []


def test_r009_ignores_modules_outside_serve(tmp_path):
    result = lint_source(
        tmp_path,
        """
        def tweak(snapshot):
            snapshot.epoch = 1
        """,
        rel="core/pipeline.py",
    )
    assert rule_ids(result) == []


# ----------------------------------------------------------------------
# Suppressions, rule filtering, error handling
# ----------------------------------------------------------------------


def test_suppression_with_reason_silences_finding(tmp_path):
    result = lint_source(
        tmp_path,
        """
        import random

        def draw():
            return random.random()  # reprolint: disable=R001 fixture only
        """,
    )
    assert rule_ids(result) == []
    assert len(result.suppressed) == 1
    finding, reason = result.suppressed[0]
    assert finding.rule == "R001"
    assert reason == "fixture only"


def test_suppression_on_preceding_line(tmp_path):
    result = lint_source(
        tmp_path,
        """
        import random

        def draw():
            # reprolint: disable=R001 exercised by fixtures
            return random.random()
        """,
    )
    assert rule_ids(result) == []
    assert len(result.suppressed) == 1


def test_suppression_without_reason_does_not_suppress(tmp_path):
    result = lint_source(
        tmp_path,
        """
        import random

        def draw():
            return random.random()  # reprolint: disable=R001
        """,
    )
    assert rule_ids(result) == ["R001"]


def test_suppression_only_covers_named_rule(tmp_path):
    result = lint_source(
        tmp_path,
        """
        import random

        def draw():
            return random.random()  # reprolint: disable=R003 wrong rule
        """,
    )
    assert rule_ids(result) == ["R001"]


def test_rule_filter_runs_only_selected_rules(tmp_path):
    source = """
    import random
    import sys

    def main():
        random.random()
        sys.exit(1)
    """
    everything = lint_source(tmp_path, source, rel="cli.py")
    assert sorted(rule_ids(everything)) == ["R001", "R006"]
    only_exit = lint_source(tmp_path, source, rel="cli.py", rules=["R006"])
    assert rule_ids(only_exit) == ["R006"]
    assert only_exit.rules == ("R006",)


def test_unknown_rule_raises_lint_error(tmp_path):
    (tmp_path / "mod.py").write_text("x = 1\n", encoding="utf-8")
    with pytest.raises(LintError, match="unknown rule"):
        run_lint(tmp_path, rules=["R999"])


def test_missing_path_raises_lint_error(tmp_path):
    with pytest.raises(LintError, match="no such file"):
        run_lint(tmp_path / "absent")


def test_syntax_error_raises_lint_error(tmp_path):
    (tmp_path / "broken.py").write_text("def (:\n", encoding="utf-8")
    with pytest.raises(LintError, match="cannot parse"):
        run_lint(tmp_path)


# ----------------------------------------------------------------------
# R005 — mutation points: service health changes only via transition()
# ----------------------------------------------------------------------


def test_r010_flags_attribute_and_augmented_writes(tmp_path):
    result = lint_source(
        tmp_path,
        """
        def poison(health):
            health._state = "ok"
            health.epochs_behind += 1
        """,
        rel="serve/supervise.py",
        rules=["R005"],
    )
    assert rule_ids(result) == ["R005", "R005"]
    assert "transition()" in result.findings[0].message


def test_r010_flags_mutators_setattr_and_annotated_params(tmp_path):
    result = lint_source(
        tmp_path,
        """
        def poison(machine: ServiceHealth, service):
            machine._history.clear()
            setattr(service.health, "_state", "stale")
        """,
        rel="serve/service.py",
        rules=["R005"],
    )
    assert rule_ids(result) == ["R005", "R005"]


def test_r010_fires_outside_serve_too(tmp_path):
    result = lint_source(
        tmp_path,
        """
        def tamper(service):
            service.health._epochs_behind = 0
        """,
        rel="cli.py",
        rules=["R005"],
    )
    assert rule_ids(result) == ["R005"]


def test_r010_exempts_health_module_itself(tmp_path):
    result = lint_source(
        tmp_path,
        """
        class ServiceHealth:
            def transition(self, new_state, *, reason):
                self._state = new_state
                self._history.append((new_state, reason))
        """,
        rel="serve/health.py",
        rules=["R005"],
    )
    assert rule_ids(result) == []


def test_r010_allows_construction_reads_and_data_health(tmp_path):
    result = lint_source(
        tmp_path,
        """
        class MapService:
            def __init__(self):
                self.health = ServiceHealth()  # construction, not a write-through

            def report(self):
                return self.health.report(None)

        def summarize(entry, counts):
            entry.data_health = "degraded"  # inference field, not the machine
            counts["ok"] = 1
        """,
        rel="serve/service.py",
        rules=["R005"],
    )
    assert rule_ids(result) == []
