"""reprolint — AST-based invariant linter for the ``repro`` tree.

Every result this reproduction claims rests on byte-identical
determinism under a fixed seed.  The invariants that guarantee it
(seeded ``random.Random`` streams only, no wall-clock reads in the
inference layers, ordered iteration feeding exports, every ``emit()``
name declared in the event registry) used to be enforced by convention
and after-the-fact equivalence tests; this module enforces them
statically, at the line that introduces a violation.

The public surface:

* :func:`run_lint` — parse a tree, run the rules, return a
  :class:`LintResult`;
* :class:`Finding` — one violation (rule id, file, line, message);
* :class:`LintError` — configuration/usage failure (missing path,
  unknown rule id, unparsable source); CLIs render it as a one-line
  ``error:`` and exit 2.

Suppression: append ``# reprolint: disable=R003 <reason>`` to the
flagged line (or place it on its own line directly above).  Several
rules may share one comment (``disable=R003,R009 <reason>``, spaces
after the commas allowed).  The reason is mandatory — a bare
``disable=`` does not suppress, so every waiver in the tree documents
itself.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Sequence

__all__ = [
    "Finding",
    "LintError",
    "LintResult",
    "Project",
    "Rule",
    "SourceFile",
    "Suppression",
    "qualname",
    "run_lint",
]


class LintError(Exception):
    """A usage or configuration failure (not a lint finding)."""


@dataclass(frozen=True, slots=True)
class Finding:
    """One invariant violation at a specific source location."""

    #: Rule identifier, e.g. ``"R003"``.
    rule: str
    #: Path relative to the linted root, POSIX separators.
    path: str
    #: 1-based line of the offending node.
    line: int
    #: 0-based column of the offending node.
    col: int
    #: Human-readable description of the violation.
    message: str

    def sort_key(self) -> tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule)

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready rendering (stable field order)."""
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }

    def render(self) -> str:
        """One-line ``path:line:col: R00X message`` rendering."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


@dataclass(frozen=True, slots=True)
class Suppression:
    """One ``# reprolint: disable=...`` comment."""

    #: Line the suppression *applies to* (the comment's own line for a
    #: trailing comment, the following line for a standalone one).
    line: int
    #: Rule ids named by the comment.
    rules: frozenset[str]
    #: Free-text justification (empty string means the suppression is
    #: invalid and does not take effect).
    reason: str


_SUPPRESS_RE = re.compile(
    r"#\s*reprolint:\s*disable="
    r"([A-Za-z0-9]+(?:\s*,\s*[A-Za-z0-9]+)*)"
    r"(?:\s+(\S.*?))?\s*$"
)


def _parse_suppressions(text: str) -> list[Suppression]:
    suppressions: list[Suppression] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        match = _SUPPRESS_RE.search(raw)
        if match is None:
            continue
        standalone = raw[: match.start()].strip() == ""
        suppressions.append(
            Suppression(
                line=lineno + 1 if standalone else lineno,
                rules=frozenset(
                    rule.strip()
                    for rule in match.group(1).split(",")
                    if rule.strip()
                ),
                reason=(match.group(2) or "").strip(),
            )
        )
    return suppressions


class SourceFile:
    """One parsed module: path, text, AST (with parent links), and
    suppression comments."""

    def __init__(self, path: Path, rel: str, text: str) -> None:
        self.path = path
        self.rel = rel
        self.text = text
        try:
            self.tree = ast.parse(text, filename=str(path))
        except SyntaxError as error:
            raise LintError(f"cannot parse {rel}: {error}") from None
        for node in ast.walk(self.tree):
            for child in ast.iter_child_nodes(node):
                child._reprolint_parent = node  # type: ignore[attr-defined]
        self.suppressions = _parse_suppressions(text)

    def suppression_for(
        self, rule: str, line: int, end_line: int | None = None
    ) -> Suppression | None:
        """The valid suppression covering ``rule`` on ``line`` (or any
        line of the node's span), if one exists."""
        last = end_line if end_line is not None else line
        for suppression in self.suppressions:
            if not suppression.reason or rule not in suppression.rules:
                continue
            if line <= suppression.line <= last:
                return suppression
        return None


def parent_of(node: ast.AST) -> ast.AST | None:
    """The syntactic parent recorded during parsing (None at module)."""
    return getattr(node, "_reprolint_parent", None)


def qualname(node: ast.expr, imports: dict[str, str]) -> str | None:
    """Resolve ``Name``/``Attribute`` chains through an import map
    (local name -> dotted origin).

    ``datetime.datetime.now`` with ``import datetime`` resolves to
    ``"datetime.datetime.now"``; unresolvable bases return None.
    """
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    base = imports.get(node.id)
    if base is None:
        return None
    parts.append(base)
    return ".".join(reversed(parts))


class Rule:
    """Base class: one named, independently runnable invariant.

    Lives here (not in :mod:`.rules`) so the flow rules can subclass
    it without importing the registry module that registers *them* —
    R009 itself flags that import cycle.
    """

    id: str = "R000"
    title: str = ""

    def check_file(
        self, source: "SourceFile", project: "Project"
    ) -> Iterable[Finding]:
        return ()

    def finalize(self, project: "Project") -> Iterable[Finding]:
        return ()

    def finding(
        self, source: "SourceFile", node: ast.AST, message: str
    ) -> Finding:
        return Finding(
            rule=self.id,
            path=source.rel,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


@dataclass(slots=True)
class Project:
    """Everything the rules can see: parsed files plus the pre-pass
    indexes (frozen dataclasses, the event-name registry)."""

    root: Path
    files: list[SourceFile] = field(default_factory=list)
    #: Frozen-dataclass class name -> rel path of the defining module.
    frozen_dataclasses: dict[str, str] = field(default_factory=dict)
    #: EVENT_NAMES registry contents (name -> description), or None
    #: when the tree has no ``obs/events.py`` registry.
    event_names: dict[str, str] | None = None
    #: rel path of the registry module (when found).
    registry_rel: str | None = None
    #: Line of each registry key, for dead-entry findings.
    registry_lines: dict[str, int] = field(default_factory=dict)
    #: Memoized expensive analyses (the flow engine caches itself
    #: here so every flow rule shares one whole-program pass).
    cache: dict[str, Any] = field(default_factory=dict)


def _is_frozen_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        if not isinstance(decorator, ast.Call):
            continue
        func = decorator.func
        name = (
            func.id
            if isinstance(func, ast.Name)
            else func.attr if isinstance(func, ast.Attribute) else None
        )
        if name != "dataclass":
            continue
        for keyword in decorator.keywords:
            if (
                keyword.arg == "frozen"
                and isinstance(keyword.value, ast.Constant)
                and keyword.value.value is True
            ):
                return True
    return False


def _index_frozen_dataclasses(project: Project) -> None:
    for source in project.files:
        for node in ast.walk(source.tree):
            if isinstance(node, ast.ClassDef) and _is_frozen_dataclass(node):
                project.frozen_dataclasses.setdefault(node.name, source.rel)


def _index_event_registry(project: Project) -> None:
    """Parse ``EVENT_NAMES`` out of ``obs/events.py`` (if present)."""
    registry = None
    for source in project.files:
        if source.rel.endswith("obs/events.py") or source.rel == "events.py":
            registry = source
            break
    if registry is None:
        return
    for node in ast.walk(registry.tree):
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        for target in targets:
            if (
                isinstance(target, ast.Name)
                and target.id == "EVENT_NAMES"
                and isinstance(value, ast.Dict)
            ):
                project.event_names = {}
                project.registry_rel = registry.rel
                for key, val in zip(value.keys, value.values):
                    if isinstance(key, ast.Constant) and isinstance(
                        key.value, str
                    ):
                        description = (
                            val.value
                            if isinstance(val, ast.Constant)
                            and isinstance(val.value, str)
                            else ""
                        )
                        project.event_names[key.value] = description
                        project.registry_lines[key.value] = key.lineno
                return


def _collect_files(root: Path) -> list[tuple[Path, str]]:
    if root.is_file():
        return [(root, root.name)]
    paths = sorted(
        path
        for path in root.rglob("*.py")
        if "__pycache__" not in path.parts
    )
    return [(path, path.relative_to(root).as_posix()) for path in paths]


def load_project(root: Path) -> Project:
    """Parse every ``*.py`` under ``root`` and build the pre-pass
    indexes rules need.  Raises :class:`LintError` for a missing or
    unreadable path and for unparsable source."""
    root = Path(root)
    if not root.exists():
        raise LintError(f"no such file or directory: {root}")
    entries = _collect_files(root)
    if not entries:
        raise LintError(f"no Python sources under {root}")
    project = Project(root=root)
    for path, rel in entries:
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as error:
            raise LintError(f"cannot read {rel}: {error.strerror}") from None
        project.files.append(SourceFile(path, rel, text))
    _index_frozen_dataclasses(project)
    _index_event_registry(project)
    return project


@dataclass(frozen=True, slots=True)
class LintResult:
    """The outcome of one lint run."""

    #: Active findings, sorted by (path, line, col, rule).
    findings: tuple[Finding, ...]
    #: Findings silenced by a valid suppression, with its reason.
    suppressed: tuple[tuple[Finding, str], ...]
    #: Rule ids that ran.
    rules: tuple[str, ...]
    #: Number of files scanned.
    files_scanned: int

    def counts_by_rule(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return {rule: counts[rule] for rule in sorted(counts)}

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready report (the ``--format json`` shape).

        Deterministic and versioned: findings arrive pre-sorted by
        (path, line, col, rule), ``schema_version`` gates consumers,
        and the ``summary`` block carries a per-rule count for *every*
        rule that ran (zeroes included) so two runs diff cleanly.
        """
        counts = self.counts_by_rule()
        return {
            "schema": "repro/lint/2",
            "schema_version": 2,
            "rules": list(self.rules),
            "files_scanned": self.files_scanned,
            "findings": [finding.as_dict() for finding in self.findings],
            "counts": counts,
            "suppressed": [
                {**finding.as_dict(), "reason": reason}
                for finding, reason in self.suppressed
            ],
            "summary": {
                "files_scanned": self.files_scanned,
                "findings": len(self.findings),
                "suppressed": len(self.suppressed),
                "by_rule": {
                    rule: counts.get(rule, 0) for rule in sorted(self.rules)
                },
            },
        }


def run_lint(
    root: Path | str,
    rules: Sequence[str] | None = None,
    *,
    graph: Path | str | None = None,
) -> LintResult:
    """Lint every Python file under ``root`` with the named rules (all
    rules when ``rules`` is None).  When ``graph`` names a path, the
    flow engine's import/call graph is written there as JSON.  Unknown
    rule ids raise :class:`LintError`."""
    from .rules import make_rules

    selected = make_rules(rules)
    project = load_project(Path(root))
    if graph is not None:
        from .flow import FlowAnalysis

        graph_path = Path(graph)
        try:
            graph_path.write_text(
                FlowAnalysis.of(project).graphs.render_json(),
                encoding="utf-8",
            )
        except OSError as error:
            raise LintError(
                f"cannot write graph {graph_path}: {error.strerror}"
            ) from None
    raw: list[Finding] = []
    for rule in selected:
        for source in project.files:
            raw.extend(rule.check_file(source, project))
        raw.extend(rule.finalize(project))

    active: list[Finding] = []
    suppressed: list[tuple[Finding, str]] = []
    sources = {source.rel: source for source in project.files}
    for finding in sorted(raw, key=Finding.sort_key):
        source = sources.get(finding.path)
        suppression = (
            source.suppression_for(finding.rule, finding.line)
            if source is not None
            else None
        )
        if suppression is not None:
            suppressed.append((finding, suppression.reason))
        else:
            active.append(finding)
    return LintResult(
        findings=tuple(active),
        suppressed=tuple(suppressed),
        rules=tuple(rule.id for rule in selected),
        files_scanned=len(project.files),
    )
