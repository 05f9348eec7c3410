"""Interprocedural raised-exception sets (R008's engine).

For every function we compute the set of exception *types* that can
escape it, propagated over the resolved call graph to a fixpoint and
filtered through the ``try/except`` structure at each raise and call
site.  Two deliberate scope limits keep the signal honest:

* Only project-defined exception classes and the process-control
  builtins (``SystemExit``, ``KeyboardInterrupt``, ``GeneratorExit``,
  ``BaseException``; ``sys.exit()`` counts as ``SystemExit``) are
  tracked.  Builtin validation errors (``ValueError`` and friends)
  raised on bad arguments are a different contract — constructor
  validation is allowed to fail loudly everywhere — and tracking them
  would drown the supervisor findings in noise.
* Only *resolved* call edges propagate.  A function reference passed
  as a value (e.g. into a process pool) is not a call edge, which is
  exactly right for containment: the supervisor boundary is crossed
  by the submitting call, not by the worker-side body.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterable

from .graph import FlowGraphs
from .symbols import FunctionInfo, SymbolTable

__all__ = ["RaisesAnalysis", "TRACKED_BUILTINS"]

#: Builtins that terminate the process / generator machinery; letting
#: one cross a supervisor boundary is always a containment break.
TRACKED_BUILTINS = frozenset(
    {"BaseException", "GeneratorExit", "KeyboardInterrupt", "SystemExit"}
)

#: Partial builtin exception hierarchy (child -> parent), enough to
#: answer "does ``except X`` catch ``Y``" for the names this tree uses.
_BUILTIN_BASES: dict[str, str | None] = {
    "BaseException": None,
    "Exception": "BaseException",
    "ArithmeticError": "Exception",
    "AssertionError": "Exception",
    "AttributeError": "Exception",
    "EOFError": "Exception",
    "GeneratorExit": "BaseException",
    "IOError": "OSError",
    "IndexError": "LookupError",
    "KeyError": "LookupError",
    "KeyboardInterrupt": "BaseException",
    "LookupError": "Exception",
    "NotImplementedError": "RuntimeError",
    "OSError": "Exception",
    "RuntimeError": "Exception",
    "StopIteration": "Exception",
    "SystemExit": "BaseException",
    "TimeoutError": "OSError",
    "TypeError": "Exception",
    "ValueError": "Exception",
    "ZeroDivisionError": "ArithmeticError",
}

_EXCEPTION_SUFFIXES = ("Error", "Exception", "Fault", "Violation", "Interrupt")


@dataclass(frozen=True, slots=True)
class _RaiseFact:
    """One escaping exception type with its originating raise site."""

    exc: str
    rel: str
    line: int


class RaisesAnalysis:
    """Escaping-exception sets for every project function."""

    def __init__(self, symbols: SymbolTable, graphs: FlowGraphs) -> None:
        self.symbols = symbols
        self.graphs = graphs
        self.project_exceptions = self._find_exception_classes()
        #: qual -> {exc name: originating (rel, line)}.
        self.escaping: dict[str, dict[str, tuple[str, int]]] = {}
        self._solve()

    # ------------------------------------------------------------------
    # Class hierarchy
    # ------------------------------------------------------------------

    def _find_exception_classes(self) -> frozenset[str]:
        names: set[str] = set()
        for name in self.symbols.classes:
            for ancestor in self.symbols.mro_names(name):
                if ancestor in _BUILTIN_BASES or ancestor.endswith(
                    _EXCEPTION_SUFFIXES
                ):
                    names.add(name)
                    break
        return frozenset(names)

    def _parents(self, name: str) -> list[str]:
        info = self.symbols.classes.get(name)
        if info is not None:
            return list(info.bases)
        parent = _BUILTIN_BASES.get(name)
        if parent is not None:
            return [parent]
        if parent is None and name in _BUILTIN_BASES:
            return []
        # Unknown class: assume a plain Exception subclass.
        return ["Exception"]

    def is_subclass(self, exc: str, handler: str) -> bool:
        seen: set[str] = set()
        stack = [exc]
        while stack:
            current = stack.pop()
            if current == handler:
                return True
            if current in seen:
                continue
            seen.add(current)
            stack.extend(self._parents(current))
        return False

    def _tracked(self, exc: str) -> bool:
        return exc in self.project_exceptions or exc in TRACKED_BUILTINS

    # ------------------------------------------------------------------
    # Per-function escape computation
    # ------------------------------------------------------------------

    @staticmethod
    def _handler_names(handler: ast.ExceptHandler) -> tuple[str, ...] | None:
        """Names a handler catches; None means a bare ``except:``."""
        if handler.type is None:
            return None
        types = (
            handler.type.elts
            if isinstance(handler.type, ast.Tuple)
            else [handler.type]
        )
        names: list[str] = []
        for node in types:
            if isinstance(node, ast.Attribute):
                names.append(node.attr)
            elif isinstance(node, ast.Name):
                names.append(node.id)
        return tuple(names)

    def _caught(
        self, exc: str, guards: list[tuple[str, ...] | None]
    ) -> bool:
        for names in guards:
            if names is None:
                return True
            if any(self.is_subclass(exc, name) for name in names):
                return True
        return False

    def _raised_type(self, exc: ast.expr) -> str | None:
        node: ast.expr = exc
        if isinstance(node, ast.Call):
            node = node.func
        if isinstance(node, ast.Attribute):
            return node.attr
        if isinstance(node, ast.Name):
            return node.id
        return None

    def _escapes_of(self, info: FunctionInfo) -> dict[str, tuple[str, int]]:
        out: dict[str, tuple[str, int]] = {}
        sites = {
            id(node): callee
            for node, callee in self.graphs.call_sites.get(info.qual, ())
        }
        module = self.symbols.modules.get(info.rel)
        imports = module.imports if module is not None else {}

        def add(
            fact: _RaiseFact,
            guards: list[tuple[str, ...] | None],
            force: bool = False,
        ) -> None:
            # ``force`` bypasses the tracked-type filter: bare
            # re-raises and facts propagated from callees were already
            # judged worth tracking where they originated.
            if not force and not self._tracked(fact.exc):
                return
            if self._caught(fact.exc, guards):
                return
            out.setdefault(fact.exc, (fact.rel, fact.line))

        def visit_expr(
            expr: ast.expr, guards: list[tuple[str, ...] | None]
        ) -> None:
            for node in ast.walk(expr):
                if not isinstance(node, ast.Call):
                    continue
                # ``sys.exit()`` / imported ``exit``.
                target = node.func
                dotted = None
                if isinstance(target, ast.Attribute) and isinstance(
                    target.value, ast.Name
                ):
                    base = imports.get(target.value.id)
                    if base is not None:
                        dotted = f"{base}.{target.attr}"
                elif isinstance(target, ast.Name):
                    dotted = imports.get(target.id)
                if dotted == "sys.exit":
                    add(
                        _RaiseFact("SystemExit", info.rel, node.lineno),
                        guards,
                    )
                callee = sites.get(id(node))
                if callee is not None:
                    for exc, origin in self.escaping.get(
                        callee.qual, {}
                    ).items():
                        add(_RaiseFact(exc, *origin), guards, force=True)

        def visit_block(
            stmts: Iterable[ast.stmt],
            guards: list[tuple[str, ...] | None],
            handler_ctx: tuple[str, ...] | None,
        ) -> None:
            for stmt in stmts:
                if isinstance(
                    stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                ):
                    continue
                if isinstance(stmt, ast.Raise):
                    if stmt.exc is None:
                        # Bare re-raise: the handler's caught types (a
                        # bare ``except:`` re-raises anything).
                        for exc in handler_ctx or ("BaseException",):
                            add(
                                _RaiseFact(exc, info.rel, stmt.lineno),
                                guards,
                                force=True,
                            )
                    else:
                        exc_name = self._raised_type(stmt.exc)
                        if exc_name is not None:
                            add(
                                _RaiseFact(exc_name, info.rel, stmt.lineno),
                                guards,
                            )
                        if stmt.exc is not None:
                            visit_expr(stmt.exc, guards)
                    continue
                if isinstance(stmt, ast.Try):
                    inner = self._try_guards(stmt)
                    visit_block(stmt.body, guards + inner, handler_ctx)
                    for handler in stmt.handlers:
                        visit_block(
                            handler.body,
                            guards,
                            self._handler_names(handler),
                        )
                    visit_block(stmt.orelse, guards, handler_ctx)
                    visit_block(stmt.finalbody, guards, handler_ctx)
                    continue
                for expr in self._stmt_exprs(stmt):
                    visit_expr(expr, guards)
                for attr in ("body", "orelse", "finalbody"):
                    sub = getattr(stmt, attr, None)
                    if sub:
                        visit_block(sub, guards, handler_ctx)

        visit_block(info.node.body, [], None)
        return out

    @staticmethod
    def _try_guards(stmt: ast.Try) -> list[tuple[str, ...] | None]:
        guards: list[tuple[str, ...] | None] = []
        for handler in stmt.handlers:
            guards.append(RaisesAnalysis._handler_names(handler))
        return guards

    @staticmethod
    def _stmt_exprs(stmt: ast.stmt) -> list[ast.expr]:
        exprs: list[ast.expr] = []
        for field_name in ("value", "test", "iter", "exc"):
            value = getattr(stmt, field_name, None)
            if isinstance(value, ast.expr):
                exprs.append(value)
        items = getattr(stmt, "items", None)
        if items:
            for item in items:
                exprs.append(item.context_expr)
        targets = getattr(stmt, "targets", None)
        if targets:
            exprs.extend(t for t in targets if isinstance(t, ast.expr))
        return exprs

    # ------------------------------------------------------------------
    # Fixpoint
    # ------------------------------------------------------------------

    def _solve(self) -> None:
        functions = list(self.symbols.functions.values())
        for _ in range(12):
            changed = False
            for info in functions:
                escapes = self._escapes_of(info)
                if set(escapes) != set(self.escaping.get(info.qual, {})):
                    self.escaping[info.qual] = escapes
                    changed = True
            if not changed:
                break
