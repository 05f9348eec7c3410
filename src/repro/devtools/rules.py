"""The reprolint rules (R001–R009), one per invariant.

Each rule is a class with an ``id``, a ``title``, a per-file
``check_file(source, project)`` pass, and an optional cross-file
``finalize(project)`` pass that runs after every file has been scanned
(R004's dead-registry-entry check, and every rule built on the flow
engine).

Where a rule lives follows the engine it uses.  The per-file rules
here (R002, R003, R004, R006, R007) reason locally, with a little
project-wide indexing (frozen dataclasses, the event registry, set-
typed attributes).  R001, R005, R008 and R009 live in
:mod:`repro.devtools.flow.rules_flow` and consume the interprocedural
engine (symbol table, call graph, taint solver).  False positives are
expected to be rare and are silenced with an inline
``# reprolint: disable=R00X <reason>`` comment, which doubles as
documentation of why the flagged line is actually safe.

The table below is the canonical catalog; each row's second column is
the rule's ``title`` verbatim, and a tier-1 test asserts it matches
both ``rule_catalog()`` and DESIGN.md's rule list.

| id   | title                                                            |
|------|------------------------------------------------------------------|
| R001 | RNG draws derive from substream or an explicit seed              |
| R002 | no wall-clock/environment reads in inference layers              |
| R003 | set/dict.keys() iteration feeding an output must be sorted       |
| R004 | emitted event names declared in EVENT_NAMES                      |
| R005 | state mutates only at its declared mutation points               |
| R006 | CLI error exits route through cli_error (exit 2)                 |
| R007 | checkpoint writes go through the atomic helper                   |
| R008 | supervised boundaries contain every non-contract exception       |
| R009 | module imports respect the layering table                        |
"""

from __future__ import annotations

import ast
from typing import Iterable, Sequence

from .flow.rules_flow import (
    ExceptionContainment,
    ImportLayering,
    MutationDiscipline,
    SeedProvenance,
)
from .lint import (
    Finding,
    LintError,
    Project,
    Rule,
    SourceFile,
    parent_of,
    qualname,
)

__all__ = [
    "Rule",
    "ALL_RULES",
    "make_rules",
    "rule_catalog",
]


# ----------------------------------------------------------------------
# Shared AST helpers
# ----------------------------------------------------------------------


def _import_map(tree: ast.Module) -> dict[str, str]:
    """Local name -> dotted origin for every import in the module.

    ``import random`` maps ``random -> random``; ``from random import
    Random`` maps ``Random -> random.Random``; aliases follow the
    ``asname``.
    """
    mapping: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # The attr index wrongly types ast.Import.names as a set
            # (it shares its name with _SetTyping.names).
            # reprolint: disable=R003 ast.Import.names is a list
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                origin = alias.name if alias.asname else local
                mapping[local] = origin
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            # reprolint: disable=R003 ast.ImportFrom.names is a list
            for alias in node.names:
                mapping[alias.asname or alias.name] = (
                    f"{node.module}.{alias.name}"
                )
    return mapping


def _in_dirs(source: SourceFile, dirs: frozenset[str]) -> bool:
    return bool(set(source.rel.split("/")[:-1]) & dirs)


def _scope_walk(scope: ast.AST) -> Iterable[ast.AST]:
    """Walk ``scope`` without descending into nested function bodies
    (each function is analysed as its own scope)."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


# ----------------------------------------------------------------------
# R002 — no wall-clock or environment nondeterminism in core layers
# ----------------------------------------------------------------------


class WallClockInCore(Rule):
    """The inference layers must be pure functions of (topology, seed).
    Wall-clock and environment reads make two runs with the same seed
    observe different inputs."""

    id = "R002"
    title = "no wall-clock/environment reads in inference layers"

    SCOPE = frozenset({"core", "topology", "faults", "alias", "measurement"})
    _BANNED = {
        "time.time": "wall-clock read",
        "time.time_ns": "wall-clock read",
        "datetime.datetime.now": "wall-clock read",
        "datetime.datetime.utcnow": "wall-clock read",
        "datetime.datetime.today": "wall-clock read",
        "datetime.date.today": "wall-clock read",
        "os.environ": "environment read",
        "os.getenv": "environment read",
        "os.urandom": "OS entropy read",
    }

    def check_file(
        self, source: SourceFile, project: Project
    ) -> Iterable[Finding]:
        if not _in_dirs(source, self.SCOPE):
            return
        imports = _import_map(source.tree)
        seen: set[int] = set()
        for node in ast.walk(source.tree):
            if not isinstance(node, (ast.Attribute, ast.Name)):
                continue
            if id(node) in seen:
                continue
            qual = qualname(node, imports)
            if qual is None or qual not in self._BANNED:
                continue
            # Flag the outermost matching chain once, not each link.
            for child in ast.walk(node):
                seen.add(id(child))
            yield self.finding(
                source,
                node,
                f"{qual} is a {self._BANNED[qual]}; the inference layers "
                "must depend only on (topology, seed)",
            )


# ----------------------------------------------------------------------
# R003 — unsorted set iteration feeding outputs
# ----------------------------------------------------------------------


_SET_METHODS = frozenset(
    {"union", "intersection", "difference", "symmetric_difference"}
)
_MUTATORS = frozenset({"append", "extend", "add", "update", "insert"})
_SET_OPS = (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)


class _AttrIndex:
    """Project-wide attribute-annotation index for set inference.

    Any ``name: set[...]`` / ``name: frozenset[...]`` attribute
    annotation in the tree (dataclass field or class attribute in a
    class body, ``self.name`` anywhere) marks that attribute name as
    set-typed wherever it is read; ``name: dict[..., set[...]]`` marks
    it as a set-valued mapping, so ``obj.name[key]`` and
    ``obj.name.get(key, ...)`` are sets too.  An annotated local or
    module-level name is not an attribute: :class:`_SetTyping` types it
    within its own scope only.  Indexing by bare attribute name (not
    class-qualified) is a deliberate overapproximation — the repository
    names set-typed fields consistently, and a rare collision is one
    suppression away.
    """

    def __init__(self, project: Project) -> None:
        self.set_attrs: set[str] = set()
        self.mapping_attrs: set[str] = set()
        #: Function/method names annotated ``-> set[...]`` anywhere in
        #: the tree: their call results are set-typed at every call
        #: site (same bare-name overapproximation as the attributes).
        self.set_returning: set[str] = set()
        for source in project.files:
            for node in ast.walk(source.tree):
                if isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    if node.returns is not None and _is_set_annotation(
                        node.returns
                    ):
                        self.set_returning.add(node.name)
                elif isinstance(node, ast.ClassDef):
                    for statement in node.body:
                        if isinstance(statement, ast.AnnAssign) and (
                            isinstance(statement.target, ast.Name)
                        ):
                            self._index(statement.target.id, statement)
                elif isinstance(node, ast.AnnAssign) and isinstance(
                    node.target, ast.Attribute
                ):
                    self._index(node.target.attr, node)

    def _index(self, name: str, node: ast.AnnAssign) -> None:
        if _is_set_annotation(node.annotation):
            self.set_attrs.add(name)
        elif _is_dict_of_set_annotation(node.annotation):
            self.mapping_attrs.add(name)


class _SetTyping:
    """Order-insensitive inference of set-typed expressions within one
    scope (function body or module top level), local annotations plus
    the project-wide attribute index."""

    def __init__(self, scope: ast.AST, index: _AttrIndex) -> None:
        self.names: set[str] = set()
        self.mappings: set[str] = set(index.mapping_attrs)
        self._index = index
        if isinstance(
            scope, (ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            for arg in [
                *scope.args.posonlyargs,
                *scope.args.args,
                *scope.args.kwonlyargs,
            ]:
                if arg.annotation is None:
                    continue
                if _is_set_annotation(arg.annotation):
                    self.names.add(arg.arg)
                elif _is_dict_of_set_annotation(arg.annotation):
                    self.mappings.add(arg.arg)
        # Two passes so `a = set(); b = a | other` resolves either way
        # statements are ordered.
        for _ in range(2):
            for node in _scope_walk(scope):
                if isinstance(node, ast.Assign):
                    if self.is_set_expr(node.value):
                        for target in node.targets:
                            if isinstance(target, ast.Name):
                                self.names.add(target.id)
                elif isinstance(node, ast.AnnAssign) and isinstance(
                    node.target, ast.Name
                ):
                    if _is_set_annotation(node.annotation) or (
                        node.value is not None
                        and self.is_set_expr(node.value)
                    ):
                        self.names.add(node.target.id)
                    elif _is_dict_of_set_annotation(node.annotation):
                        self.mappings.add(node.target.id)

    def _is_mapping_expr(self, node: ast.expr) -> bool:
        if isinstance(node, ast.Name):
            return node.id in self.mappings
        if isinstance(node, ast.Attribute):
            return node.attr in self.mappings
        return False

    def is_set_expr(self, node: ast.expr) -> bool:
        """Is ``node`` a set (or dict-keys view) by local evidence or
        the project-wide annotation index?"""
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return node.id in self.names
        if isinstance(node, ast.Attribute):
            return node.attr in self._index.set_attrs
        if isinstance(node, ast.Subscript):
            # Lookups in a dict-of-sets yield sets.
            return self._is_mapping_expr(node.value)
        if isinstance(node, ast.BinOp) and isinstance(node.op, _SET_OPS):
            return self.is_set_expr(node.left) or self.is_set_expr(
                node.right
            )
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in (
                "set",
                "frozenset",
            ):
                return True
            if isinstance(func, ast.Attribute):
                if func.attr == "keys":
                    return True
                if func.attr in _SET_METHODS and self.is_set_expr(
                    func.value
                ):
                    return True
                # d.get(key, set()) — a dict of sets (by annotation or
                # by its default argument); the lookup is a set.
                if func.attr == "get" and (
                    self._is_mapping_expr(func.value)
                    or any(self.is_set_expr(arg) for arg in node.args)
                ):
                    return True
            # Calls of functions/methods annotated `-> set[...]`
            # anywhere in the tree (the open_keys() class of bug: a
            # set-returning method consumed directly by a sink).
            callee = (
                func.id
                if isinstance(func, ast.Name)
                else func.attr if isinstance(func, ast.Attribute) else None
            )
            if callee in self._index.set_returning:
                return True
        return False


def _is_set_annotation(node: ast.expr) -> bool:
    # `set[int] | None` style optionals still mark the name set-typed.
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        return _is_set_annotation(node.left) or _is_set_annotation(
            node.right
        )
    if isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id in ("set", "frozenset", "Set", "FrozenSet")
    if isinstance(node, ast.Attribute):
        return node.attr in ("Set", "FrozenSet", "AbstractSet")
    return False


_MAPPING_NAMES = ("dict", "Dict", "Mapping", "MutableMapping", "defaultdict")


def _is_dict_of_set_annotation(node: ast.expr) -> bool:
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        return _is_dict_of_set_annotation(
            node.left
        ) or _is_dict_of_set_annotation(node.right)
    if not isinstance(node, ast.Subscript):
        return False
    base = node.value
    base_name = (
        base.id
        if isinstance(base, ast.Name)
        else base.attr if isinstance(base, ast.Attribute) else None
    )
    if base_name not in _MAPPING_NAMES:
        return False
    if isinstance(node.slice, ast.Tuple) and len(node.slice.elts) == 2:
        return _is_set_annotation(node.slice.elts[1])
    return False


def _unwrap_iterable(node: ast.expr) -> tuple[ast.expr, bool]:
    """Strip ``enumerate``/``list``/``tuple`` wrappers; report whether a
    ``sorted(...)`` wrapper was seen anywhere in the chain."""
    while (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("enumerate", "list", "tuple", "reversed")
        and node.args
    ):
        node = node.args[0]
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("sorted", "min", "max", "sum", "len", "any", "all")
    ):
        return node, True
    return node, False


def _is_sink_call(node: ast.Call, project: Project) -> bool:
    func = node.func
    if isinstance(func, ast.Attribute) and func.attr == "emit":
        return True
    name = (
        func.id
        if isinstance(func, ast.Name)
        else func.attr if isinstance(func, ast.Attribute) else None
    )
    if name is None:
        return False
    if name in project.frozen_dataclasses:
        return True
    # Export helpers and record constructors by naming convention.
    return name.endswith("_record") or name.startswith("export_")


class UnsortedSetIteration(Rule):
    """Set iteration order is a function of element hashes and
    insertion history, not of the data's meaning; when it feeds a
    ``yield``/``return``/``emit()``/record constructor, the output
    order silently depends on it.  Route such iteration through
    ``sorted(...)``."""

    id = "R003"
    title = "set/dict.keys() iteration feeding an output must be sorted"

    def __init__(self) -> None:
        self._index: _AttrIndex | None = None

    def check_file(
        self, source: SourceFile, project: Project
    ) -> Iterable[Finding]:
        if self._index is None:
            self._index = _AttrIndex(project)
        scopes: list[ast.AST] = [source.tree]
        scopes.extend(
            node
            for node in ast.walk(source.tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        )
        for scope in scopes:
            yield from self._check_scope(source, project, scope)

    def _check_scope(
        self, source: SourceFile, project: Project, scope: ast.AST
    ) -> Iterable[Finding]:
        assert self._index is not None
        typing_ = _SetTyping(scope, self._index)
        returned = self._returned_names(scope)
        for node in _scope_walk(scope):
            # SetComp is exempt: building a *set* from a set is
            # order-free; R003 fires where iteration leaves set-land.
            if isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
                for comp in node.generators:
                    iterable, is_sorted = _unwrap_iterable(comp.iter)
                    if is_sorted or not typing_.is_set_expr(iterable):
                        continue
                    if self._comp_feeds_sink(node, project):
                        yield self.finding(
                            source,
                            comp.iter,
                            "comprehension iterates a set in output "
                            "position; wrap the iterable in sorted(...)",
                        )
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                iterable, is_sorted = _unwrap_iterable(node.iter)
                if is_sorted or not typing_.is_set_expr(iterable):
                    continue
                sink = self._loop_feeds_sink(
                    node, returned, typing_, project
                )
                if sink is not None:
                    yield self.finding(
                        source,
                        node.iter,
                        f"loop iterates a set and {sink}; wrap the "
                        "iterable in sorted(...)",
                    )

    @staticmethod
    def _returned_names(scope: ast.AST) -> set[str]:
        names: set[str] = set()
        for node in _scope_walk(scope):
            value = None
            if isinstance(node, ast.Return):
                value = node.value
            elif isinstance(node, (ast.Yield, ast.YieldFrom)):
                value = node.value
            if isinstance(value, ast.Name):
                names.add(value.id)
        return names

    @staticmethod
    def _comp_feeds_sink(node: ast.AST, project: Project) -> bool:
        current: ast.AST | None = node
        while current is not None:
            parent = parent_of(current)
            if isinstance(parent, (ast.Return, ast.Yield, ast.YieldFrom)):
                return True
            if isinstance(parent, ast.Call) and _is_sink_call(
                parent, project
            ):
                return True
            if isinstance(parent, ast.stmt):
                return False
            current = parent
        return False

    def _loop_feeds_sink(
        self,
        loop: ast.For | ast.AsyncFor,
        returned: set[str],
        typing_: _SetTyping,
        project: Project,
    ) -> str | None:
        for node in ast.walk(loop):
            if isinstance(node, (ast.Yield, ast.YieldFrom)):
                return "yields from its body"
            if isinstance(node, ast.Return) and node.value is not None:
                return "returns from its body"
            if isinstance(node, ast.Call) and _is_sink_call(node, project):
                func = node.func
                label = (
                    func.attr
                    if isinstance(func, ast.Attribute)
                    else func.id if isinstance(func, ast.Name) else "a sink"
                )
                return f"calls {label}() in its body"
            # Accumulating into a value the function later returns.
            target_name: str | None = None
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _MUTATORS
                and isinstance(node.func.value, ast.Name)
            ):
                target_name = node.func.value.id
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    if isinstance(target, ast.Subscript) and isinstance(
                        target.value, ast.Name
                    ):
                        target_name = target.value.id
            if (
                target_name is not None
                and target_name in returned
                # Filling a *set* accumulator is order-free; the order
                # question re-arises (and is re-checked) wherever that
                # set is itself iterated.
                and target_name not in typing_.names
            ):
                return f"fills returned value {target_name!r} in its body"
        return None


# ----------------------------------------------------------------------
# R004 — emitted event names must be registered
# ----------------------------------------------------------------------


class EventNamespace(Rule):
    """Every ``emit("<name>", ...)`` / ``ObsEvent(name="<name>")``
    string literal must be declared in ``EVENT_NAMES``
    (``repro/obs/events.py``); registry entries nothing emits are dead
    and flagged at their declaration."""

    id = "R004"
    title = "emitted event names declared in EVENT_NAMES"

    def __init__(self) -> None:
        self._emitted: set[str] = set()
        self._sites = 0

    @staticmethod
    def _emit_name(node: ast.Call) -> str | None:
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr == "emit":
            if node.args and isinstance(node.args[0], ast.Constant):
                value = node.args[0].value
                if isinstance(value, str):
                    return value
            return None
        if isinstance(func, ast.Name) and func.id == "ObsEvent":
            for keyword in node.keywords:
                if keyword.arg == "name" and isinstance(
                    keyword.value, ast.Constant
                ):
                    value = keyword.value.value
                    if isinstance(value, str):
                        return value
            if node.args and isinstance(node.args[0], ast.Constant):
                value = node.args[0].value
                if isinstance(value, str):
                    return value
        return None

    def check_file(
        self, source: SourceFile, project: Project
    ) -> Iterable[Finding]:
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            name = self._emit_name(node)
            if name is None:
                continue
            self._sites += 1
            self._emitted.add(name)
            if (
                project.event_names is not None
                and name not in project.event_names
            ):
                yield self.finding(
                    source,
                    node,
                    f"event name {name!r} is not declared in EVENT_NAMES "
                    "(repro/obs/events.py)",
                )

    def finalize(self, project: Project) -> Iterable[Finding]:
        if project.event_names is None:
            if self._sites:
                source = project.files[0]
                yield Finding(
                    rule=self.id,
                    path=source.rel,
                    line=1,
                    col=0,
                    message=(
                        f"{self._sites} emit sites but no EVENT_NAMES "
                        "registry (obs/events.py) under the linted root"
                    ),
                )
            return
        for name in sorted(set(project.event_names) - self._emitted):
            yield Finding(
                rule=self.id,
                path=project.registry_rel or "",
                line=project.registry_lines.get(name, 1),
                col=0,
                message=(
                    f"EVENT_NAMES entry {name!r} has no emit site; "
                    "remove the dead registration"
                ),
            )


# ----------------------------------------------------------------------
# R006 — CLI error exits use the shared helper
# ----------------------------------------------------------------------


class CliExitDiscipline(Rule):
    """CLI modules report failures as one ``error:`` line on stderr and
    exit status 2 via :func:`repro.cliutil.cli_error` — never an ad-hoc
    ``sys.exit(1)`` (and never a traceback)."""

    id = "R006"
    title = "CLI error exits route through cli_error (exit 2)"

    def check_file(
        self, source: SourceFile, project: Project
    ) -> Iterable[Finding]:
        basename = source.rel.rsplit("/", 1)[-1]
        if basename not in ("cli.py", "__main__.py"):
            return
        imports = _import_map(source.tree)
        for node in ast.walk(source.tree):
            exit_arg: ast.expr | None = None
            if isinstance(node, ast.Call):
                qual = qualname(node.func, imports)
                if qual in ("sys.exit", "builtins.exit"):
                    exit_arg = node.args[0] if node.args else None
                else:
                    continue
            elif isinstance(node, ast.Raise):
                exc = node.exc
                if (
                    isinstance(exc, ast.Call)
                    and isinstance(exc.func, ast.Name)
                    and exc.func.id == "SystemExit"
                ):
                    exit_arg = exc.args[0] if exc.args else None
                    node = exc
                else:
                    continue
            else:
                continue
            if (
                isinstance(exit_arg, ast.Constant)
                and isinstance(exit_arg.value, int)
                and exit_arg.value != 0
            ):
                yield self.finding(
                    source,
                    node,
                    f"hard exit with status {exit_arg.value}; return "
                    "cli_error(message) (repro.cliutil) so every CLI "
                    "failure is one line on stderr with status 2",
                )


# ----------------------------------------------------------------------
# R007 — checkpoint writes go through the atomic helper
# ----------------------------------------------------------------------


class DurableWriteDiscipline(Rule):
    """Crash safety in the checkpoint store rests on one write
    discipline: write a pid-suffixed temp file, fsync, rename, fsync
    the directory.  A bare ``open(path, "w")`` (or
    ``Path.write_text``/``write_bytes``) inside ``repro/checkpoint``
    can tear on crash and leave a half-written file a later ``--resume``
    would read.  Durable writes must go through
    ``repro.checkpoint.atomic.atomic_write_bytes`` /
    ``atomic_write_json`` (the helper module itself is exempt — it is
    the audited implementation of the discipline)."""

    id = "R007"
    title = "checkpoint writes go through the atomic helper"

    #: The directory (relative to the lint root) the rule polices.
    SCOPE_DIR = "checkpoint"
    #: The one file allowed to perform raw writes: the helper itself.
    EXEMPT_FILES = frozenset({"atomic.py"})
    _WRITE_MODE_CHARS = frozenset("wax+")

    @staticmethod
    def _open_mode(node: ast.Call) -> str | None:
        """The statically-known mode of an ``open()`` call.

        Returns the mode string when it is a literal, ``"r"`` when
        omitted, and None when it is a dynamic expression (treated as
        possibly-writing).
        """
        mode_expr: ast.expr | None = None
        if len(node.args) >= 2:
            mode_expr = node.args[1]
        else:
            for keyword in node.keywords:
                if keyword.arg == "mode":
                    mode_expr = keyword.value
                    break
        if mode_expr is None:
            return "r"
        if isinstance(mode_expr, ast.Constant) and isinstance(
            mode_expr.value, str
        ):
            return mode_expr.value
        return None

    def check_file(
        self, source: SourceFile, project: Project
    ) -> Iterable[Finding]:
        parts = source.rel.split("/")
        if parts[0] != self.SCOPE_DIR or parts[-1] in self.EXEMPT_FILES:
            return
        imports = _import_map(source.tree)
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id == "open":
                mode = self._open_mode(node)
                if mode is not None and not (
                    self._WRITE_MODE_CHARS & set(mode)
                ):
                    continue
                described = (
                    f"open(..., {mode!r})" if mode is not None else
                    "open(...) with a dynamic mode"
                )
                yield self.finding(
                    source,
                    node,
                    f"{described} in repro/checkpoint can tear on "
                    "crash; route durable writes through "
                    "checkpoint.atomic.atomic_write_bytes/_json",
                )
            elif isinstance(func, ast.Attribute) and func.attr in (
                "write_text",
                "write_bytes",
            ):
                yield self.finding(
                    source,
                    node,
                    f".{func.attr}() in repro/checkpoint is not "
                    "crash-safe; route durable writes through "
                    "checkpoint.atomic.atomic_write_bytes/_json",
                )
            elif qualname(func, imports) == "os.open":
                yield self.finding(
                    source,
                    node,
                    "raw os.open in repro/checkpoint belongs in the "
                    "atomic helper; route durable writes through "
                    "checkpoint.atomic.atomic_write_bytes/_json",
                )


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

ALL_RULES: tuple[type[Rule], ...] = (
    SeedProvenance,
    WallClockInCore,
    UnsortedSetIteration,
    EventNamespace,
    MutationDiscipline,
    CliExitDiscipline,
    DurableWriteDiscipline,
    ExceptionContainment,
    ImportLayering,
)

_BY_ID = {cls.id: cls for cls in ALL_RULES}


def rule_catalog() -> dict[str, str]:
    """Rule id -> one-line title, in id order."""
    return {cls.id: cls.title for cls in ALL_RULES}


def make_rules(ids: Sequence[str] | None = None) -> list[Rule]:
    """Instantiate the named rules (all of them when ``ids`` is None).

    Raises :class:`LintError` for an unknown id, naming the known ones.
    """
    if ids is None:
        return [cls() for cls in ALL_RULES]
    rules: list[Rule] = []
    seen: set[str] = set()
    for raw in ids:
        rule_id = raw.strip().upper()
        if rule_id in seen:
            continue
        cls = _BY_ID.get(rule_id)
        if cls is None:
            known = ", ".join(sorted(_BY_ID))
            raise LintError(
                f"unknown rule {raw!r}; known rules: {known}"
            )
        seen.add(rule_id)
        rules.append(cls())
    return rules
