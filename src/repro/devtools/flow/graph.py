"""Import graph (with layering metadata) and resolved call graph.

The import graph covers *module-level runtime* imports only:
``TYPE_CHECKING`` blocks and function-local imports do not execute at
import time, so they cannot create import cycles or layering
violations, and excluding them keeps R009's layering check aligned
with what Python actually executes.  The confined external roots
(:data:`CONFINED_IMPORTS`) are the exception: R009 checks every import
of those, function-local ones included, because a lazy import reaches
the same machinery.

Layering: each top-level unit of the tree (package directory or root
module) has a rank; a module-level runtime import must target a
*strictly lower* rank unless both modules live in the same unit.
Units absent from :data:`LAYER_RANKS` are skipped — fixture trees and
out-of-tree code simply get no layering findings.

The call graph resolves, per function: direct calls to module-level
functions (local or imported), constructor calls, ``self.m()`` through
the class hierarchy, ``obj.m()`` when ``obj``'s class is inferable
from annotations / constructor assignments / attribute types, and —
as a last resort — method names defined by exactly one project class
(excluding names shared with builtins).  Unresolved calls produce no
edge.
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass, field

from .symbols import (
    GENERIC_METHOD_NAMES,
    FunctionInfo,
    SymbolTable,
    _annotation_class,
    scope_statements,
)

__all__ = ["CONFINED_IMPORTS", "FlowGraphs", "LAYER_RANKS", "unit_of"]

#: Architecture layering of the repro tree, low ranks at the bottom.
#: Documented in DESIGN.md §5j; a new top-level package must be given
#: a rank here before R009 will police it.
LAYER_RANKS: dict[str, int] = {
    # 0 — leaves: observability, CLI plumbing, runtime sanitizer
    "obs": 0,
    "cliutil": 0,
    "sanitize": 0,
    # 1 — substrate with no inference dependencies
    "topology": 1,
    "exec": 1,
    "columnar": 1,
    # 2 — data + perturbation over the substrate
    "datasets": 2,
    "faults": 2,
    # 3-5 — the inference pipeline proper
    "measurement": 3,
    "alias": 4,
    "core": 5,
    # 6 — persistence / evaluation over pipeline results
    "checkpoint": 6,
    "validation": 6,
    "export": 6,
    "baselines": 6,
    "analysis": 6,
    "inference": 6,
    # 7 — the stable facade
    "api": 7,
    # 8 — long-running consumers of the facade
    "serve": 8,
    "experiments": 8,
    "devtools": 8,
    # 9+ — entry points
    "cli": 9,
    "__init__": 10,
    "__main__": 10,
}

#: External top-level modules only one unit may import, at any depth
#: (root -> the unit).  Worker processes, start methods and result
#: order are the executor's whole job, so process pools stay in exec.
CONFINED_IMPORTS: dict[str, str] = {
    "multiprocessing": "exec",
    "concurrent": "exec",
}


def unit_of(rel: str) -> str:
    """Top-level unit of a rel path: package dir, or module stem for
    root-level files (``serve/query.py`` -> ``serve``; ``api.py`` ->
    ``api``)."""
    head = rel.split("/", 1)[0]
    return head[:-3] if head.endswith(".py") else head


@dataclass(slots=True)
class ImportEdge:
    src: str
    dst: str
    line: int


@dataclass(slots=True)
class FlowGraphs:
    """Module import graph + function call graph over one project."""

    symbols: SymbolTable
    #: Project-internal module-level runtime import edges.
    import_edges: list[ImportEdge] = field(default_factory=list)
    #: qual -> sorted callee quals (project-internal, resolved only).
    calls: dict[str, list[str]] = field(default_factory=dict)
    #: qual -> per-call-site (node, callee FunctionInfo) pairs.
    call_sites: dict[str, list[tuple[ast.Call, FunctionInfo]]] = field(
        default_factory=dict
    )

    def __init__(self, symbols: SymbolTable) -> None:
        self.symbols = symbols
        self.import_edges = []
        self.calls = {}
        self.call_sites = {}
        self._build_imports()
        for info in symbols.functions.values():
            self._resolve_calls(info)

    # ------------------------------------------------------------------
    # Import graph
    # ------------------------------------------------------------------

    def _build_imports(self) -> None:
        seen: set[tuple[str, str]] = set()
        for rel in sorted(self.symbols.modules):
            module = self.symbols.modules[rel]
            for dotted, line in module.runtime_imports:
                target = self.symbols.resolve_module(dotted)
                if target is None or target == rel:
                    continue
                if (rel, target) in seen:
                    continue
                seen.add((rel, target))
                self.import_edges.append(ImportEdge(rel, target, line))

    def import_cycles(self) -> list[list[str]]:
        """Strongly connected components of size > 1 (each is an
        import cycle), members sorted, components sorted by head."""
        adjacency: dict[str, list[str]] = {}
        for edge in self.import_edges:
            adjacency.setdefault(edge.src, []).append(edge.dst)
        index: dict[str, int] = {}
        low: dict[str, int] = {}
        on_stack: set[str] = set()
        stack: list[str] = []
        counter = [0]
        components: list[list[str]] = []

        def strongconnect(node: str) -> None:
            # Iterative Tarjan: (node, iterator state) frames.
            work = [(node, iter(adjacency.get(node, ())))]
            index[node] = low[node] = counter[0]
            counter[0] += 1
            stack.append(node)
            on_stack.add(node)
            while work:
                current, children = work[-1]
                advanced = False
                for child in children:
                    if child not in index:
                        index[child] = low[child] = counter[0]
                        counter[0] += 1
                        stack.append(child)
                        on_stack.add(child)
                        work.append((child, iter(adjacency.get(child, ()))))
                        advanced = True
                        break
                    if child in on_stack:
                        low[current] = min(low[current], index[child])
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[current])
                if low[current] == index[current]:
                    component: list[str] = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == current:
                            break
                    if len(component) > 1:
                        components.append(sorted(component))

        for node in sorted(adjacency):
            if node not in index:
                strongconnect(node)
        return sorted(components)

    def layering_violations(self) -> list[ImportEdge]:
        """Module-level runtime imports that point at an equal or
        higher layer in a *different* unit."""
        violations: list[ImportEdge] = []
        for edge in self.import_edges:
            src_unit, dst_unit = unit_of(edge.src), unit_of(edge.dst)
            if src_unit == dst_unit:
                continue
            src_rank = LAYER_RANKS.get(src_unit)
            dst_rank = LAYER_RANKS.get(dst_unit)
            if src_rank is None or dst_rank is None:
                continue
            if dst_rank >= src_rank:
                violations.append(edge)
        return violations

    # ------------------------------------------------------------------
    # Call graph
    # ------------------------------------------------------------------

    def local_types(self, info: FunctionInfo) -> dict[str, str]:
        """Name -> project class name for params and simple locals,
        including names inherited from enclosing function scopes."""
        env: dict[str, str] = {}
        if info.parent_qual is not None:
            parent = self.symbols.functions.get(info.parent_qual)
            if parent is not None:
                env.update(self.local_types(parent))
        args = info.node.args
        for arg in args.posonlyargs + args.args + args.kwonlyargs:
            cls = _annotation_class(arg.annotation)
            if cls in self.symbols.classes:
                env[arg.arg] = cls
        # Two passes so ``a = b`` after ``b = Cls()`` resolves.
        for _ in range(2):
            for node in scope_statements(info.node):
                target: ast.expr | None = None
                value: ast.expr | None = None
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    target, value = node.targets[0], node.value
                elif isinstance(node, ast.AnnAssign) and node.value is not None:
                    target, value = node.target, node.value
                    cls = _annotation_class(node.annotation)
                    if cls in self.symbols.classes and isinstance(
                        target, ast.Name
                    ):
                        env[target.id] = cls
                if target is None or not isinstance(target, ast.Name):
                    continue
                cls = self.expr_class(value, info, env)
                if cls is not None:
                    env[target.id] = cls
        return env

    def expr_class(
        self,
        expr: ast.expr | None,
        info: FunctionInfo | None,
        env: dict[str, str],
    ) -> str | None:
        """Project class constructed/held by ``expr``, if inferable
        (``info`` is None at module scope)."""
        if expr is None:
            return None
        cls = self.symbols.call_class_name(expr)
        if cls is not None:
            return cls
        if isinstance(expr, ast.Name):
            if expr.id == "self" and info is not None and info.cls:
                return info.cls
            return env.get(expr.id)
        if isinstance(expr, ast.Attribute):
            base = self.expr_class(expr.value, info, env)
            if base is not None:
                for name in self.symbols.mro_names(base):
                    owner = self.symbols.classes.get(name)
                    if owner is not None and expr.attr in owner.attr_types:
                        return owner.attr_types[expr.attr]
        return None

    def resolve_name_call(
        self, name: str, info: FunctionInfo
    ) -> FunctionInfo | None:
        # Nested function in this or an enclosing function scope?
        probe: str | None = info.qual
        while probe is not None:
            qual = self.symbols.nested.get(probe, {}).get(name)
            if qual is not None:
                return self.symbols.functions.get(qual)
            owner = self.symbols.functions.get(probe)
            probe = owner.parent_qual if owner is not None else None
        # Module-level function in the same file?
        local = self.symbols.module_functions.get((info.rel, name))
        if local is not None:
            return local
        # Class constructor in the same file / project?
        if name in self.symbols.classes:
            return self.symbols.lookup_method(name, "__init__")
        # Imported name?
        module = self.symbols.modules.get(info.rel)
        origin = module.imports.get(name) if module is not None else None
        if origin is None:
            return None
        head, _, tail = origin.rpartition(".")
        if not head:
            return None
        target_rel = self.symbols.resolve_module(head)
        if target_rel is None:
            return None
        if tail in self.symbols.classes and (
            self.symbols.classes[tail].rel == target_rel
        ):
            return self.symbols.lookup_method(tail, "__init__")
        return self.symbols.module_functions.get((target_rel, tail))

    def _resolve_attr_call(
        self,
        call: ast.Call,
        func: ast.Attribute,
        info: FunctionInfo,
        env: dict[str, str],
    ) -> FunctionInfo | None:
        method = func.attr
        base_cls = self.expr_class(func.value, info, env)
        if base_cls is not None:
            resolved = self.symbols.lookup_method(base_cls, method)
            if resolved is not None:
                return resolved
        # ``module.func(...)`` through the import map.
        if isinstance(func.value, ast.Name):
            module = self.symbols.modules.get(info.rel)
            origin = (
                module.imports.get(func.value.id)
                if module is not None
                else None
            )
            if origin is not None:
                target_rel = self.symbols.resolve_module(origin)
                if target_rel is not None:
                    resolved = self.symbols.module_functions.get(
                        (target_rel, method)
                    )
                    if resolved is not None:
                        return resolved
        # Unique project method name (never for builtin-ish names).
        if method not in GENERIC_METHOD_NAMES:
            candidates = self.symbols.methods_by_name.get(method, [])
            if len(candidates) == 1:
                return candidates[0]
        return None

    def _resolve_calls(self, info: FunctionInfo) -> None:
        env = self.local_types(info)
        sites: list[tuple[ast.Call, FunctionInfo]] = []
        for node in scope_statements(info.node):
            if not isinstance(node, ast.Call):
                continue
            resolved: FunctionInfo | None = None
            if isinstance(node.func, ast.Name):
                resolved = self.resolve_name_call(node.func.id, info)
            elif isinstance(node.func, ast.Attribute):
                resolved = self._resolve_attr_call(node, node.func, info, env)
            if resolved is not None:
                sites.append((node, resolved))
        if sites:
            self.call_sites[info.qual] = sites
            self.calls[info.qual] = sorted(
                {callee.qual for _, callee in sites}
            )

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------

    def as_dict(self) -> dict[str, object]:
        modules = sorted(self.symbols.modules)
        layers = {}
        for rel in modules:
            rank = LAYER_RANKS.get(unit_of(rel))
            if rank is not None:
                layers[rel] = rank
        return {
            "schema": "repro/flow-graph/1",
            "modules": modules,
            "layers": layers,
            "imports": sorted(
                [edge.src, edge.dst] for edge in self.import_edges
            ),
            "calls": sorted(
                [caller, callee]
                for caller, callees in self.calls.items()
                for callee in callees
            ),
            "stats": {
                "modules": len(modules),
                "functions": len(self.symbols.functions),
                "classes": len(self.symbols.classes),
                "import_edges": len(self.import_edges),
                "call_edges": sum(len(c) for c in self.calls.values()),
            },
        }

    def render_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=False) + "\n"

