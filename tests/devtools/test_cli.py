"""CLI behaviour of ``repro-lint`` and the ``repro lint`` subcommand:
exit codes, JSON shape, the graph export, and the one-line exit-2
error style for bad inputs."""

from __future__ import annotations

import json
import textwrap

import pytest

from repro.cli import main as repro_main
from repro.devtools.cli import main as lint_main

pytestmark = pytest.mark.lint


BAD_MODULE = """
import random

def draw():
    return random.random()
"""

CLEAN_MODULE = """
from random import Random

def draw(seed: int):
    return Random(seed).random()
"""


def write_tree(tmp_path, source):
    (tmp_path / "mod.py").write_text(
        textwrap.dedent(source), encoding="utf-8"
    )
    return tmp_path


def test_clean_tree_exits_zero(tmp_path, capsys):
    root = write_tree(tmp_path, CLEAN_MODULE)
    assert lint_main([str(root)]) == 0
    assert "clean: 0 findings" in capsys.readouterr().out


def test_findings_exit_one_with_location_lines(tmp_path, capsys):
    root = write_tree(tmp_path, BAD_MODULE)
    assert lint_main([str(root)]) == 1
    out = capsys.readouterr().out
    assert "mod.py:5:11: R001" in out


def test_json_format_shape(tmp_path, capsys):
    root = write_tree(tmp_path, BAD_MODULE)
    assert lint_main([str(root), "--format", "json"]) == 1
    document = json.loads(capsys.readouterr().out)
    assert document["schema"] == "repro/lint/2"
    assert document["schema_version"] == 2
    assert document["rules"] == [
        "R001", "R002", "R003", "R004", "R005", "R006", "R007", "R008",
        "R009",
    ]
    assert document["files_scanned"] == 1
    assert document["counts"] == {"R001": 1}
    (finding,) = document["findings"]
    assert set(finding) == {"rule", "path", "line", "col", "message"}
    assert finding["path"] == "mod.py"
    assert document["suppressed"] == []
    assert document["summary"] == {
        "files_scanned": 1,
        "findings": 1,
        "suppressed": 0,
        "by_rule": {
            rule: (1 if rule == "R001" else 0)
            for rule in document["rules"]
        },
    }


def test_json_output_is_deterministic(tmp_path, capsys):
    root = write_tree(tmp_path, BAD_MODULE)
    (tmp_path / "second.py").write_text(
        "import random\n\n\ndef roll():\n    return random.choice([1, 2])\n",
        encoding="utf-8",
    )
    lint_main([str(root), "--format", "json"])
    first = capsys.readouterr().out
    lint_main([str(root), "--format", "json"])
    assert capsys.readouterr().out == first


def test_graph_flag_writes_flow_graph_json(tmp_path, capsys):
    root = write_tree(tmp_path, CLEAN_MODULE)
    graph_path = tmp_path / "callgraph.json"
    assert lint_main([str(root), "--graph", str(graph_path)]) == 0
    document = json.loads(graph_path.read_text(encoding="utf-8"))
    assert document["schema"] == "repro/flow-graph/1"
    assert "mod.py" in document["modules"]
    assert {"imports", "calls", "layers", "stats"} <= set(document)


def test_graph_unwritable_path_is_clean_exit_2(tmp_path, capsys):
    root = write_tree(tmp_path, CLEAN_MODULE)
    target = tmp_path / "missing-dir" / "graph.json"
    assert lint_main([str(root), "--graph", str(target)]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_rule_filter_flag(tmp_path):
    root = write_tree(tmp_path, BAD_MODULE)
    assert lint_main([str(root), "--rule", "R002"]) == 0
    assert lint_main([str(root), "--rule", "R001"]) == 1


def test_unknown_rule_is_clean_exit_2(tmp_path, capsys):
    root = write_tree(tmp_path, CLEAN_MODULE)
    assert lint_main([str(root), "--rule", "R999"]) == 2
    captured = capsys.readouterr()
    error_lines = captured.err.strip().splitlines()
    assert len(error_lines) == 1
    assert error_lines[0].startswith("error: unknown rule 'R999'")


def test_missing_path_is_clean_exit_2(tmp_path, capsys):
    assert lint_main([str(tmp_path / "nowhere")]) == 2
    captured = capsys.readouterr()
    error_lines = captured.err.strip().splitlines()
    assert len(error_lines) == 1
    assert error_lines[0].startswith("error: no such file or directory")


def test_list_rules(capsys):
    assert lint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("R001", "R002", "R003", "R004", "R005", "R006", "R007"):
        assert rule_id in out


def test_repro_lint_subcommand_matches_console_script(tmp_path, capsys):
    root = write_tree(tmp_path, BAD_MODULE)
    assert repro_main(["lint", str(root)]) == 1
    via_subcommand = capsys.readouterr().out
    assert lint_main([str(root)]) == 1
    assert capsys.readouterr().out == via_subcommand


def test_repro_lint_subcommand_self_gate(capsys):
    """``python -m repro lint`` with no path lints the installed tree
    and finds it clean (the acceptance-criteria invocation)."""
    assert repro_main(["lint"]) == 0
    assert "clean: 0 findings" in capsys.readouterr().out
