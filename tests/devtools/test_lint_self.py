"""The reprolint self-gate: this repository's own source tree must be
invariant-clean.  Tier-1, so the driver blocks any PR that introduces
an RNG draw not derived from substream or an explicit seed, a
wall-clock read in the inference layers, unsorted set iteration into
an output, an undeclared event name, a write outside a declared
mutation point, an ad-hoc CLI exit, a non-atomic checkpoint write, an
exception escaping a supervised boundary, or an import against the
layering table.  The tree is linted once and the result shared."""

from __future__ import annotations

from pathlib import Path

import pytest

import repro
from repro.devtools import rule_catalog, run_lint

pytestmark = [pytest.mark.tier1, pytest.mark.lint]

PACKAGE_ROOT = Path(repro.__file__).resolve().parent


@pytest.fixture(scope="module")
def result():
    return run_lint(PACKAGE_ROOT)


def test_source_tree_is_lint_clean(result):
    rendered = "\n".join(finding.render() for finding in result.findings)
    assert not result.findings, f"reprolint findings:\n{rendered}"


def test_every_rule_ran_over_the_full_tree(result):
    assert result.rules == tuple(rule_catalog())
    # The tree has dozens of modules; a collapsed scan (wrong root,
    # over-aggressive exclusion) would show up as a tiny file count.
    assert result.files_scanned > 50


def test_suppressions_in_tree_all_carry_reasons(result):
    """Every suppression that takes effect documents itself (the engine
    ignores bare ``disable=`` comments, so any in the tree would
    surface as findings above), and the inventory is pinned exactly:
    a new waiver must be added here on purpose, not accumulate
    unnoticed."""
    for finding, reason in result.suppressed:
        assert reason.strip(), f"reasonless suppression at {finding.render()}"
    inventory = [
        (finding.rule, finding.path, reason)
        for finding, reason in result.suppressed
    ]
    assert inventory == [
        ("R003", "devtools/rules.py", "ast.Import.names is a list"),
        ("R003", "devtools/rules.py", "ast.ImportFrom.names is a list"),
    ]
