"""Rendering for lint results.

Two output formats (the ``--format`` flag): ``text`` — one
``path:line:col: R00X message`` line per finding plus a summary — and
``json`` — the stable ``repro/lint/2`` document from
:meth:`LintResult.as_dict`.
"""

from __future__ import annotations

import json

from .lint import LintResult

__all__ = ["render_text", "render_json"]


def render_text(result: LintResult) -> str:
    """Human-readable report: findings, counts, suppression tally."""
    lines = [finding.render() for finding in result.findings]
    counts = result.counts_by_rule()
    if counts:
        per_rule = ", ".join(f"{rule}={n}" for rule, n in counts.items())
        lines.append(
            f"{len(result.findings)} finding(s) across "
            f"{result.files_scanned} file(s): {per_rule}"
        )
    else:
        lines.append(
            f"clean: 0 findings across {result.files_scanned} file(s)"
        )
    if result.suppressed:
        lines.append(f"{len(result.suppressed)} suppressed finding(s)")
    return "\n".join(lines)


def render_json(result: LintResult) -> str:
    """The ``repro/lint/2`` JSON document, indented, trailing newline."""
    return json.dumps(result.as_dict(), indent=2) + "\n"

