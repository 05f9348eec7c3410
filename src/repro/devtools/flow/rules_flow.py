"""The rules that run on the flow engine: R001, R005, R008 and R009.

Each consumes the shared :class:`~repro.devtools.flow.FlowAnalysis`
(memoized per project) from its ``finalize`` pass — they need the
whole program (symbol table, call graph, taint facts), so a per-file
pass would be wasted work.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterable, Iterator

from ..lint import Finding, Project, Rule, SourceFile, parent_of, qualname
from . import FlowAnalysis
from .graph import CONFINED_IMPORTS, LAYER_RANKS, unit_of
from .raises import RaisesAnalysis
from .symbols import FunctionInfo, scope_statements

__all__ = [
    "ExceptionContainment",
    "ImportLayering",
    "MutationDiscipline",
    "SeedProvenance",
]


# ----------------------------------------------------------------------
# R001 — seed provenance
# ----------------------------------------------------------------------


class SeedProvenance(Rule):
    """Every RNG draw must come from a stream derived via
    ``exec.substream()`` or built with an explicit seed.  Flagged: any
    call of or reference to a ``random.<function>`` (the process-global
    stream any import can perturb), ``Random()`` with no seed and
    ``SystemRandom`` (both seed from the OS), draws whose receiver is
    module-level RNG state — traced by the taint solver through
    assignments, calls and returns, so an ambient stream handed down a
    call chain is still flagged at the draw — and RNG instances
    crossing the fork boundary."""

    id = "R001"
    title = "RNG draws derive from substream or an explicit seed"

    #: Fork entry points whose ``context`` payload must not carry RNGs.
    FORK_ENTRY_POINTS = frozenset({"supervised_map"})

    _GLOBAL_STREAM = (
        "uses the process-global random stream; draw from a seeded "
        "random.Random instance instead"
    )

    def finalize(self, project: Project) -> Iterable[Finding]:
        flow = FlowAnalysis.of(project)
        for source in project.files:
            yield from self._check_random_module(source, flow)
        for draw in flow.taint.iter_draws():
            if "ambient" not in draw.tags:
                continue
            yield Finding(
                rule=self.id,
                path=draw.rel,
                line=draw.node.lineno,
                col=draw.node.col_offset,
                message=(
                    f"{draw.method}() draws from {draw.origin}; ambient "
                    "RNG state is shared across callers and fork "
                    "boundaries — derive a named stream via "
                    "exec.substream(...) or thread an explicit seed"
                ),
            )
        yield from self._check_fork_context(flow)

    def _check_random_module(
        self, source: SourceFile, flow: FlowAnalysis
    ) -> Iterator[Finding]:
        imports = flow.symbols.modules[source.rel].imports
        for node in ast.walk(source.tree):
            if not isinstance(node, (ast.Name, ast.Attribute)):
                continue
            parent = parent_of(node)
            if isinstance(parent, ast.Attribute):
                continue  # judge the outermost link of a chain only
            qual = qualname(node, imports)
            if qual is None or not qual.startswith("random."):
                continue
            called = isinstance(parent, ast.Call) and parent.func is node
            if qual == "random.Random":
                if called and not parent.args and not parent.keywords:
                    yield self.finding(
                        source,
                        parent,
                        "Random() with no seed argument seeds from the OS",
                    )
            elif qual == "random.SystemRandom":
                if called:
                    yield self.finding(
                        source,
                        parent,
                        "SystemRandom draws OS entropy; unseedable",
                    )
            elif called:
                yield self.finding(
                    source, parent, f"{qual}() {self._GLOBAL_STREAM}"
                )
            else:
                yield self.finding(
                    source, node, f"{qual} {self._GLOBAL_STREAM}"
                )

    def _check_fork_context(self, flow: FlowAnalysis) -> Iterator[Finding]:
        for qual, sites in sorted(flow.graphs.call_sites.items()):
            info = flow.symbols.functions[qual]
            env = flow.taint.scope_env(info)
            for call, callee in sites:
                if callee.name not in self.FORK_ENTRY_POINTS:
                    continue
                for keyword in call.keywords:
                    if keyword.arg != "context":
                        continue
                    payload = (
                        list(keyword.value.elts)
                        if isinstance(keyword.value, (ast.Tuple, ast.List))
                        else [keyword.value]
                    )
                    for item in payload:
                        tags = flow.taint.expr_tags(
                            item, info, info.rel, env
                        )
                        if tags:
                            yield Finding(
                                rule=self.id,
                                path=info.rel,
                                line=item.lineno,
                                col=item.col_offset,
                                message=(
                                    "an RNG instance crosses the fork "
                                    f"boundary via {callee.name}'s "
                                    "context; pass seeds and rebuild "
                                    "per-shard streams with "
                                    "substream() inside the worker"
                                ),
                            )


# ----------------------------------------------------------------------
# R005 — state mutates only at its declared mutation points
# ----------------------------------------------------------------------

#: Container methods that mutate their receiver in place.
_MUTATOR_METHODS = frozenset(
    {
        "add", "append", "clear", "discard", "extend", "insert", "pop",
        "popitem", "remove", "reverse", "setdefault", "sort", "update",
    }
)

_LOCKISH = ("lock", "mutex", "guard", "sem")

#: Verb of an ``object.__setattr__`` write on a target other than self.
_BYPASS = "object.__setattr__ on"


def _lock_guarded(node: ast.AST) -> bool:
    """True when ``node`` sits inside a ``with <something lock-ish>:``."""
    current = parent_of(node)
    while current is not None:
        if isinstance(current, (ast.With, ast.AsyncWith)):
            for item in current.items:
                for name_node in ast.walk(item.context_expr):
                    text = None
                    if isinstance(name_node, ast.Name):
                        text = name_node.id
                    elif isinstance(name_node, ast.Attribute):
                        text = name_node.attr
                    if text is not None and any(
                        mark in text.lower() for mark in _LOCKISH
                    ):
                        return True
        if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # Stop at the owning function: an outer caller's lock does
            # not guard code in a function that may be called bare.
            return False
        current = parent_of(current)
    return False


def _base_name(expr: ast.expr) -> str | None:
    """Leftmost ``Name`` of an attribute/subscript chain."""
    while isinstance(expr, (ast.Attribute, ast.Subscript)):
        expr = expr.value
    return expr.id if isinstance(expr, ast.Name) else None


@dataclass(frozen=True, slots=True)
class _Write:
    """One write site: the node to report, the object whose state it
    changes, and how."""

    node: ast.AST
    obj: ast.expr
    verb: str


def _writes(nodes: Iterable[ast.AST]) -> Iterator[_Write]:
    """The write detector: assignment, augmented or annotated
    assignment and ``del`` through an attribute or subscript, the
    mutating container methods, ``setattr``/``delattr``, and
    ``object.__setattr__`` on a target other than ``self``.  Rebinding
    a bare name is not a write through the value it held."""
    for node in nodes:
        if isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _MUTATOR_METHODS
            ):
                yield _Write(node, func.value, f"calls .{func.attr}() on")
            elif not node.args:
                continue
            elif isinstance(func, ast.Name) and func.id in (
                "setattr",
                "delattr",
            ):
                yield _Write(node, node.args[0], f"calls {func.id}() on")
            elif (
                isinstance(func, ast.Attribute)
                and func.attr == "__setattr__"
                and isinstance(func.value, ast.Name)
                and func.value.id == "object"
                and not (
                    isinstance(node.args[0], ast.Name)
                    and node.args[0].id == "self"
                )
            ):
                yield _Write(node, node.args[0], _BYPASS)
            continue
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        verb = "deletes" if isinstance(node, ast.Delete) else "assigns"
        for target in targets:
            if isinstance(target, ast.Attribute):
                yield _Write(
                    target, target.value, f"{verb} .{target.attr} on"
                )
            elif isinstance(target, ast.Subscript):
                yield _Write(target, target.value, f"{verb} [...] on")


def _chain(expr: ast.expr) -> Iterator[ast.expr]:
    """``expr`` and every object it is reached through: writing into
    ``a.b[k]`` changes ``a.b`` and therefore ``a``."""
    yield expr
    while isinstance(expr, (ast.Attribute, ast.Subscript)):
        expr = expr.value
        yield expr


def _named(identifier: str, stem: str) -> bool:
    low = identifier.lower()
    # data_health is a per-interface inference field, not the machine.
    return low == stem or (
        low.endswith(f"_{stem}") and low != "data_health"
    )


def _typed_params(tree: ast.AST, type_name: str) -> set[str]:
    """Parameter names annotated ``type_name`` anywhere in the file."""
    return {
        arg.arg
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for arg in (
            *node.args.posonlyargs,
            *node.args.args,
            *node.args.kwonlyargs,
        )
        if arg.annotation is not None
        and type_name in ast.unparse(arg.annotation)
    }


def _mentions(expr: ast.expr, stem: str, typed: set[str]) -> bool:
    for node in ast.walk(expr):
        if isinstance(node, ast.Name) and (
            node.id in typed or _named(node.id, stem)
        ):
            return True
        if isinstance(node, ast.Attribute) and _named(node.attr, stem):
            return True
    return False


@dataclass(slots=True)
class _Scope:
    """What R005 knows about one function (or module) scope."""

    source: SourceFile
    #: The function, or None for module-level code.
    info: FunctionInfo | None
    #: The method the scope is (or is nested in), if any.
    method: FunctionInfo | None
    #: Local name -> project class.
    env: dict[str, str]
    #: Names this scope shares with other threads.
    shared: set[str]
    #: Parameters annotated ``MapSnapshot`` / ``ServiceHealth``.
    snapshots: set[str]
    healths: set[str]


def _is_mutation_point(decorator: ast.expr) -> bool:
    if isinstance(decorator, ast.Name):
        return decorator.id == "mutation_point"
    return (
        isinstance(decorator, ast.Attribute)
        and decorator.attr == "mutation_point"
    )


class MutationDiscipline(Rule):
    """State changes only where its owner says it may.  One write
    detector (:func:`_writes`) runs over every scope against one list
    of protected state:

    * **frozen dataclasses** — written only in their defining module
      (derive a new instance elsewhere); ``object.__setattr__`` on
      anything but ``self`` bypasses a freeze wherever it appears;
    * **thread-shared state** — names a ``threading.Thread`` target
      closes over or is handed, and the classes of those objects;
    * **classes that declare mutation points** — methods decorated
      with :func:`repro.sanitize.mutation_point`, the same declaration
      the runtime guard reads.  A thread-shared or declaring class is
      written only in its ``__init__``, its mutation points, or under
      a lock;
    * **published snapshots** under ``serve/`` — never written in place
      (the read path is copy-on-write: build a new one and swap it);
    * **service health** outside ``serve/health.py`` — never written;
      go through ``transition()`` or a ``record_*`` helper.

    Snapshot and health values are recognised by name
    (``snapshot``/``*_snapshot``, ``health``/``*_health`` but not the
    per-interface ``data_health``) or by a ``MapSnapshot``/
    ``ServiceHealth`` parameter annotation; everything else by the flow
    engine's class inference.  Each write yields at most one finding.
    """

    id = "R005"
    title = "state mutates only at its declared mutation points"

    #: The one module allowed to write service health state.
    HEALTH_MODULE = "serve/health.py"

    def finalize(self, project: Project) -> Iterable[Finding]:
        flow = FlowAnalysis.of(project)
        thread_names, escaped = self._thread_shared(flow)
        self._flow = flow
        self._frozen = project.frozen_dataclasses
        self._points = self._mutation_points(flow, escaped)
        by_rel: dict[str, list[FunctionInfo]] = {}
        for info in flow.symbols.functions.values():
            by_rel.setdefault(info.rel, []).append(info)
        for source in project.files:
            snapshots = _typed_params(source.tree, "MapSnapshot")
            healths = _typed_params(source.tree, "ServiceHealth")
            infos: list[FunctionInfo | None] = [None]
            infos.extend(by_rel.get(source.rel, ()))
            for info in infos:
                scope = _Scope(
                    source=source,
                    info=info,
                    method=self._method_of(info, flow),
                    env=(
                        flow.graphs.local_types(info)
                        if info is not None
                        else self._module_types(source.tree, flow)
                    ),
                    shared=self._shared_names(info, thread_names, flow),
                    snapshots=snapshots,
                    healths=healths,
                )
                node = info.node if info is not None else source.tree
                for write in _writes(scope_statements(node)):
                    message = self._judge(write, scope)
                    if message is not None:
                        yield self.finding(source, write.node, message)

    def _judge(self, write: _Write, scope: _Scope) -> str | None:
        """The first protection ``write`` breaks, as a message."""
        if write.verb == _BYPASS:
            return (
                "object.__setattr__ on a non-self target bypasses a "
                "dataclass freeze; derive a new instance instead"
            )
        what = f"{write.verb} {ast.unparse(write.obj)}"
        locked = _lock_guarded(write.node)
        name = _base_name(write.obj)
        if name in scope.shared and not locked:
            return (
                f"thread body {what}, and {name!r} is shared with other "
                "threads; guard the write with a lock or route it "
                "through the object's mutation point"
            )
        method = scope.method
        for link in _chain(write.obj):
            cls = self._flow.graphs.expr_class(
                link, method or scope.info, scope.env
            )
            if cls is None:
                continue
            home = self._frozen.get(cls)
            if home is not None and home != scope.source.rel:
                return (
                    f"{what}, a frozen {cls} (defined in {home}); derive "
                    "a new instance instead"
                )
            allowed = self._points.get(cls)
            if allowed is None or locked or (
                method is not None
                and method.cls == cls
                and method.name in allowed
            ):
                continue
            where = (
                scope.info.qual.split("::", 1)[1]
                if scope.info is not None
                else "module code"
            )
            return (
                f"{where} {what}, {cls} state, outside its mutation "
                f"points ({', '.join(sorted(allowed))}) and without a lock"
            )
        if unit_of(scope.source.rel) == "serve" and _mentions(
            write.obj, "snapshot", scope.snapshots
        ):
            return (
                f"{what}, a published snapshot; the read path is "
                "copy-on-write — build a new snapshot and swap it"
            )
        if scope.source.rel != self.HEALTH_MODULE and _mentions(
            write.obj, "health", scope.healths
        ):
            return (
                f"{what}, service health state; go through transition() "
                "or a record_* helper so the edge is validated, "
                "recorded, and announced"
            )
        return None

    # -- scopes -------------------------------------------------------

    @staticmethod
    def _module_types(tree: ast.AST, flow: FlowAnalysis) -> dict[str, str]:
        """Module-level names bound to a project-class constructor."""
        env: dict[str, str] = {}
        for node in scope_statements(tree):
            if isinstance(node, ast.Assign):
                cls = flow.symbols.call_class_name(node.value)
                if cls is not None:
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            env[target.id] = cls
        return env

    @staticmethod
    def _method_of(
        info: FunctionInfo | None, flow: FlowAnalysis
    ) -> FunctionInfo | None:
        """The method ``info`` is (or is nested in), if any."""
        while info is not None and info.cls is None:
            parent = info.parent_qual
            info = flow.symbols.functions.get(parent) if parent else None
        return info

    @staticmethod
    def _shared_names(
        info: FunctionInfo | None,
        thread_names: dict[str, set[str]],
        flow: FlowAnalysis,
    ) -> set[str]:
        """Thread-shared names visible in ``info``: those of every
        thread target it is (or is nested in)."""
        names: set[str] = set()
        while info is not None:
            names |= thread_names.get(info.qual, set())
            parent = info.parent_qual
            info = flow.symbols.functions.get(parent) if parent else None
        return names

    @staticmethod
    def _mutation_points(
        flow: FlowAnalysis, escaped: set[str]
    ) -> dict[str, frozenset[str]]:
        """Class -> the methods allowed to write its state, for every
        thread-shared class and every class that declares a
        ``mutation_point``."""
        points: dict[str, frozenset[str]] = {}
        for name, info in flow.symbols.classes.items():
            declared = {
                method_name
                for method_name, method in info.methods.items()
                if any(map(_is_mutation_point, method.node.decorator_list))
            }
            if declared or name in escaped:
                points[name] = frozenset(declared | {"__init__"})
        return points

    # -- thread escape ------------------------------------------------

    def _thread_shared(
        self, flow: FlowAnalysis
    ) -> tuple[dict[str, set[str]], set[str]]:
        """Per ``threading.Thread`` target: the names it shares with the
        function that spawns it; plus the project classes of those
        objects."""
        names: dict[str, set[str]] = {}
        classes: set[str] = set()
        for spawner in flow.symbols.functions.values():
            imports = flow.symbols.modules[spawner.rel].imports
            for node in scope_statements(spawner.node):
                if not isinstance(node, ast.Call):
                    continue
                if qualname(node.func, imports) != "threading.Thread":
                    continue
                target, extra_args = self._thread_target(node, spawner, flow)
                if target is None:
                    continue
                escaped = self._escaped_names(target, extra_args, flow)
                names.setdefault(target.qual, set()).update(escaped)
                owner = flow.symbols.functions.get(target.parent_qual or "")
                env = flow.graphs.local_types(owner) if owner else {}
                classes.update(
                    env[name] for name in escaped if name in env
                )
        return names, classes

    def _thread_target(
        self, call: ast.Call, spawner: FunctionInfo, flow: FlowAnalysis
    ) -> tuple[FunctionInfo | None, list[str]]:
        target: FunctionInfo | None = None
        extra: list[str] = []
        for keyword in call.keywords:
            if keyword.arg == "target" and isinstance(
                keyword.value, ast.Name
            ):
                # Resolved from the spawning scope outwards, so two
                # spawners' nested ``worker`` functions stay apart.
                target = flow.graphs.resolve_name_call(
                    keyword.value.id, spawner
                )
            elif keyword.arg == "args" and isinstance(
                keyword.value, (ast.Tuple, ast.List)
            ):
                for element in keyword.value.elts:
                    name = _base_name(element)
                    if name is not None:
                        extra.append(name)
        return target, extra

    def _escaped_names(
        self,
        target: FunctionInfo,
        extra_args: list[str],
        flow: FlowAnalysis,
    ) -> set[str]:
        args = target.node.args
        local: set[str] = {a.arg for a in args.posonlyargs + args.args}
        for node in ast.walk(target.node):
            if isinstance(node, ast.Assign):
                for tgt in node.targets:
                    if isinstance(tgt, ast.Name):
                        local.add(tgt.id)
            elif isinstance(node, (ast.For,)) and isinstance(
                node.target, ast.Name
            ):
                local.add(node.target.id)
        enclosing: set[str] = set()
        probe = target.parent_qual
        while probe is not None:
            owner = flow.symbols.functions.get(probe)
            if owner is None:
                break
            for node in ast.walk(owner.node):
                if isinstance(node, ast.Assign):
                    for tgt in node.targets:
                        if isinstance(tgt, ast.Name):
                            enclosing.add(tgt.id)
            owner_args = owner.node.args
            enclosing.update(
                a.arg for a in owner_args.posonlyargs + owner_args.args
            )
            probe = owner.parent_qual
        free: set[str] = set()
        for node in ast.walk(target.node):
            if (
                isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)
                and node.id in enclosing
                and node.id not in local
            ):
                free.add(node.id)
        free.update(extra_args)
        return free


# ----------------------------------------------------------------------
# R008 — exception containment
# ----------------------------------------------------------------------


class ExceptionContainment(Rule):
    """Functions under a supervision contract cannot let exceptions
    escape past their declared boundary."""

    id = "R008"
    title = "supervised boundaries contain every non-contract exception"

    #: (module rel suffix, dotted function, exception names allowed to
    #: escape).  The serve supervisor's docstring contract is
    #: "exceptions never escape"; supervised_map's contract names
    #: ShardExecutionError as its one deliberate re-raise.
    BOUNDARIES: tuple[tuple[str, str, frozenset[str]], ...] = (
        ("exec/supervise.py", "supervised_map", frozenset({"ShardExecutionError"})),
        ("serve/supervise.py", "ServiceSupervisor.ingest_epoch", frozenset()),
        ("serve/supervise.py", "ServiceSupervisor.drain_epoch", frozenset()),
        ("serve/supervise.py", "ServiceSupervisor.publish", frozenset()),
    )

    #: Fail-loud diagnostics: these assert broken invariants, and the
    #: whole point of an invariant assertion is that nothing swallows
    #: it — any boundary may let them escape.
    FAIL_LOUD = frozenset(
        {"AssertionError", "SanitizerViolation", "UnregisteredEventError"}
    )

    def finalize(self, project: Project) -> Iterable[Finding]:
        flow = FlowAnalysis.of(project)
        raises: RaisesAnalysis = flow.raises
        for suffix, dotted, allowed in self.BOUNDARIES:
            for qual, info in flow.symbols.functions.items():
                if not info.rel.endswith(suffix):
                    continue
                local = qual.split("::", 1)[1]
                if local != dotted:
                    continue
                for exc, (origin_rel, origin_line) in sorted(
                    raises.escaping.get(qual, {}).items()
                ):
                    if exc in allowed or exc in self.FAIL_LOUD:
                        continue
                    where = (
                        f"raised at {origin_rel}:{origin_line}"
                        if (origin_rel, origin_line)
                        != (info.rel, info.node.lineno)
                        else "raised here"
                    )
                    yield Finding(
                        rule=self.id,
                        path=info.rel,
                        line=info.node.lineno,
                        col=info.node.col_offset,
                        message=(
                            f"{dotted} lets {exc} escape its "
                            f"containment boundary ({where}); the "
                            "contract allows only "
                            f"{{{', '.join(sorted(allowed)) or 'nothing'}}}"
                        ),
                    )


# ----------------------------------------------------------------------
# R009 — import layering
# ----------------------------------------------------------------------


class ImportLayering(Rule):
    """The module-level runtime import graph must be a DAG that points
    strictly down the layering table (:data:`~.graph.LAYER_RANKS`,
    DESIGN.md §5j), and an external root the table confines to one
    unit (:data:`~.graph.CONFINED_IMPORTS`: process pools live in
    ``exec``) may be imported nowhere else — function-local imports
    included, since a lazy import reaches the same machinery."""

    id = "R009"
    title = "module imports respect the layering table"

    def finalize(self, project: Project) -> Iterable[Finding]:
        flow = FlowAnalysis.of(project)
        for source in project.files:
            yield from self._check_confined(source)
        for edge in flow.graphs.layering_violations():
            src_unit, dst_unit = unit_of(edge.src), unit_of(edge.dst)
            yield Finding(
                rule=self.id,
                path=edge.src,
                line=edge.line,
                col=0,
                message=(
                    f"imports {edge.dst} ({dst_unit}, layer "
                    f"{LAYER_RANKS[dst_unit]}) from {src_unit} (layer "
                    f"{LAYER_RANKS[src_unit]}); module-level imports "
                    "must point strictly down the layering"
                ),
            )
        for component in flow.graphs.import_cycles():
            head = component[0]
            line = 1
            for edge in flow.graphs.import_edges:
                if edge.src == head and edge.dst in component:
                    line = edge.line
                    break
            yield Finding(
                rule=self.id,
                path=head,
                line=line,
                col=0,
                message=(
                    "import cycle: " + " -> ".join(component + [head])
                ),
            )

    def _check_confined(self, source: SourceFile) -> Iterator[Finding]:
        unit = unit_of(source.rel)
        for node in ast.walk(source.tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module or ""]
            else:
                continue
            for dotted in modules:
                home = CONFINED_IMPORTS.get(dotted.split(".")[0])
                if home is not None and home != unit:
                    yield self.finding(
                        source,
                        node,
                        f"imports {dotted} outside repro/{home}; the "
                        f"layering table confines it to {home}, the one "
                        "audited place for it",
                    )
                    break
