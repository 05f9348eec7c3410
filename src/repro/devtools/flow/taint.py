"""Seed-provenance taint lattice and worklist solver (R001's engine).

Every value that might be a ``random.Random`` instance carries a set
of provenance tags:

* ``"substream"`` — built by ``exec.shard.substream(...)`` (the
  sanctioned derivation: a named, shard-local stream);
* ``"seeded"`` — ``Random(expr)`` with an explicit seed argument;
* ``"literal"`` — ``Random(<constant>)`` (seeded, but with a seed the
  caller cannot vary — fine for tests, suspicious in the pipeline);
* ``"unseeded"`` — ``Random()`` with no argument or ``SystemRandom``:
  seeded from the OS.  R001 flags the construction itself, so draws
  from such a stream are not flagged a second time;
* ``"ambient"`` — module-level RNG state: a module/class-body-level
  ``Random(...)`` binding.  Ambient streams are shared across every
  caller and across fork boundaries, so any draw from one destroys
  shard determinism.  (The ``random`` module's own global stream is
  caught by R001's reference check, not here.)

The join is set union.  Facts propagate through local assignments,
``self.attr`` fields (bare-name indexed, like R003's set-attribute
index), function returns, and call arguments into parameters — the
last two iterated to a fixpoint over the resolved call graph, so an
ambient RNG handed down a call chain is still flagged at the draw.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterator

from .graph import FlowGraphs
from .symbols import FunctionInfo, SymbolTable, iter_scopes, scope_statements

__all__ = ["DRAW_METHODS", "TaintAnalysis", "TaintedDraw"]

#: ``random.Random`` draw methods (reads that consume stream state).
DRAW_METHODS = frozenset(
    {
        "betavariate", "choice", "choices", "expovariate", "gauss",
        "getrandbits", "lognormvariate", "normalvariate", "paretovariate",
        "randbytes", "randint", "random", "randrange", "sample",
        "shuffle", "triangular", "uniform", "vonmisesvariate",
        "weibullvariate",
    }
)

_RNG_CONSTRUCTORS = frozenset({"random.Random", "random.SystemRandom"})


@dataclass(frozen=True, slots=True)
class TaintedDraw:
    """One draw site whose receiver carries the given tags."""

    rel: str
    node: ast.expr
    method: str
    tags: frozenset[str]
    #: Human-readable origin of the receiver ("module-level RNG 'X'",
    #: "parameter 'rng'", ...), best effort.
    origin: str


class TaintAnalysis:
    """Provenance facts for one project, computed eagerly."""

    def __init__(self, symbols: SymbolTable, graphs: FlowGraphs) -> None:
        self.symbols = symbols
        self.graphs = graphs
        #: rel -> {module-level name: tags} for RNGs bound at module or
        #: class-body scope (always tagged ambient on top of their
        #: constructor tags).
        self.module_rngs: dict[str, dict[str, frozenset[str]]] = {}
        #: Bare instance-attribute name -> tags (project-wide union).
        self.attr_tags: dict[str, frozenset[str]] = {}
        #: qual -> {param: tags pushed by resolved callers}.
        self.param_tags: dict[str, dict[str, frozenset[str]]] = {}
        #: qual -> tags of returned expressions.
        self.return_tags: dict[str, frozenset[str]] = {}

        self._by_node: dict[int, FunctionInfo] = {
            id(info.node): info for info in symbols.functions.values()
        }
        self._index_module_rngs()
        self._index_attr_tags()
        self._solve()

    # ------------------------------------------------------------------
    # Constructor recognition
    # ------------------------------------------------------------------

    def _constructor_tags(
        self, call: ast.Call, rel: str
    ) -> frozenset[str] | None:
        """Tags when ``call`` constructs an RNG, else None."""
        func = call.func
        module = self.symbols.modules.get(rel)
        imports = module.imports if module is not None else {}
        name = (
            func.id
            if isinstance(func, ast.Name)
            else func.attr if isinstance(func, ast.Attribute) else None
        )
        dotted = None
        if isinstance(func, ast.Name):
            dotted = imports.get(func.id)
        elif isinstance(func, ast.Attribute) and isinstance(
            func.value, ast.Name
        ):
            base = imports.get(func.value.id)
            if base is not None:
                dotted = f"{base}.{func.attr}"
        if name == "substream" or (
            dotted is not None and dotted.endswith("shard.substream")
        ):
            return frozenset({"substream"})
        is_rng = dotted in _RNG_CONSTRUCTORS or (
            dotted is None and name in {"Random", "SystemRandom"}
        )
        if not is_rng:
            return None
        if not call.args and not call.keywords:
            return frozenset({"unseeded"})
        seed = call.args[0] if call.args else call.keywords[0].value
        if isinstance(seed, ast.Constant):
            return frozenset({"literal"})
        return frozenset({"seeded"})

    # ------------------------------------------------------------------
    # Indexes
    # ------------------------------------------------------------------

    def _index_module_rngs(self) -> None:
        for rel, module in self.symbols.modules.items():
            found: dict[str, frozenset[str]] = {}
            scopes: list[ast.AST] = [module.source.tree]
            scopes.extend(
                node
                for node in module.source.tree.body
                if isinstance(node, ast.ClassDef)
            )
            for scope in scopes:
                for node in scope_statements(scope):
                    if not isinstance(node, ast.Assign):
                        continue
                    tags = (
                        self._constructor_tags(node.value, rel)
                        if isinstance(node.value, ast.Call)
                        else None
                    )
                    if tags is None:
                        continue
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            found[target.id] = tags | {"ambient"}
            if found:
                self.module_rngs[rel] = found

    def _index_attr_tags(self) -> None:
        for info in self.symbols.functions.values():
            for node in scope_statements(info.node):
                if not isinstance(node, ast.Assign):
                    continue
                tags = (
                    self._constructor_tags(node.value, info.rel)
                    if isinstance(node.value, ast.Call)
                    else None
                )
                if tags is None:
                    continue
                for target in node.targets:
                    if isinstance(target, ast.Attribute):
                        merged = self.attr_tags.get(
                            target.attr, frozenset()
                        )
                        self.attr_tags[target.attr] = merged | tags

    # ------------------------------------------------------------------
    # Expression provenance
    # ------------------------------------------------------------------

    def expr_tags(
        self,
        expr: ast.expr | None,
        info: FunctionInfo | None,
        rel: str,
        env: dict[str, frozenset[str]],
    ) -> frozenset[str]:
        """Provenance tags of ``expr`` in the given scope (empty set =
        not known to be an RNG)."""
        if expr is None:
            return frozenset()
        if isinstance(expr, ast.Call):
            tags = self._constructor_tags(expr, rel)
            if tags is not None:
                return tags
            callee = self._callee_of(expr, info)
            if callee is not None:
                return self.return_tags.get(callee.qual, frozenset())
            # ``random.random`` style draws on the module handled at
            # draw-site scan; as a value, the random module itself is
            # ambient state.
            return frozenset()
        if isinstance(expr, ast.Name):
            local = env.get(expr.id)
            if local is not None:
                return local
            module_level = self.module_rngs.get(rel, {}).get(expr.id)
            if module_level is not None:
                return module_level
            return frozenset()
        if isinstance(expr, ast.Attribute):
            return self.attr_tags.get(expr.attr, frozenset())
        if isinstance(expr, ast.BoolOp):
            merged: frozenset[str] = frozenset()
            for part in expr.values:
                merged |= self.expr_tags(part, info, rel, env)
            return merged
        if isinstance(expr, ast.IfExp):
            return self.expr_tags(
                expr.body, info, rel, env
            ) | self.expr_tags(expr.orelse, info, rel, env)
        if isinstance(expr, ast.NamedExpr):
            return self.expr_tags(expr.value, info, rel, env)
        return frozenset()

    def _callee_of(
        self, call: ast.Call, info: FunctionInfo | None
    ) -> FunctionInfo | None:
        if info is None:
            return None
        for node, callee in self.graphs.call_sites.get(info.qual, ()):
            if node is call:
                return callee
        return None

    # ------------------------------------------------------------------
    # Worklist solver
    # ------------------------------------------------------------------

    def scope_env(self, info: FunctionInfo) -> dict[str, frozenset[str]]:
        """Name -> tags for one function scope: parameters (from the
        current fixpoint state), enclosing-closure names, and locals
        (two passes so later-defined locals feed earlier uses)."""
        env: dict[str, frozenset[str]] = {}
        if info.parent_qual is not None:
            parent = self.symbols.functions.get(info.parent_qual)
            if parent is not None:
                env.update(self.scope_env(parent))
        env.update(self.param_tags.get(info.qual, {}))
        for _ in range(2):
            for node in scope_statements(info.node):
                if isinstance(node, ast.Assign):
                    tags = self.expr_tags(node.value, info, info.rel, env)
                    if not tags:
                        continue
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            env[target.id] = tags
                elif isinstance(node, ast.AnnAssign) and isinstance(
                    node.target, ast.Name
                ):
                    tags = self.expr_tags(node.value, info, info.rel, env)
                    if tags:
                        env[node.target.id] = tags
        return env

    def _solve(self) -> None:
        functions = list(self.symbols.functions.values())
        for _ in range(12):
            changed = False
            for info in functions:
                env = self.scope_env(info)
                # Returns.
                returned: frozenset[str] = frozenset()
                for node in scope_statements(info.node):
                    if isinstance(node, ast.Return) and node.value is not None:
                        returned |= self.expr_tags(
                            node.value, info, info.rel, env
                        )
                if returned != self.return_tags.get(info.qual, frozenset()):
                    self.return_tags[info.qual] = returned
                    changed = True
                # Push argument tags into callee parameters.
                for call, callee in self.graphs.call_sites.get(
                    info.qual, ()
                ):
                    if self._push_args(call, callee, info, env):
                        changed = True
            if not changed:
                break

    def _push_args(
        self,
        call: ast.Call,
        callee: FunctionInfo,
        info: FunctionInfo,
        env: dict[str, frozenset[str]],
    ) -> bool:
        params = callee.params
        if callee.cls is not None and params and params[0] == "self":
            params = params[1:]
        slot = self.param_tags.setdefault(callee.qual, {})
        changed = False

        def merge(param: str, tags: frozenset[str]) -> None:
            nonlocal changed
            if not tags:
                return
            merged = slot.get(param, frozenset()) | tags
            if merged != slot.get(param):
                slot[param] = merged
                changed = True

        for index, arg in enumerate(call.args):
            if isinstance(arg, ast.Starred) or index >= len(params):
                break
            merge(params[index], self.expr_tags(arg, info, info.rel, env))
        for keyword in call.keywords:
            if keyword.arg is not None and keyword.arg in params:
                merge(
                    keyword.arg,
                    self.expr_tags(keyword.value, info, info.rel, env),
                )
        return changed

    # ------------------------------------------------------------------
    # Draw-site scan
    # ------------------------------------------------------------------

    def iter_draws(self) -> Iterator[TaintedDraw]:
        """Every ``<recv>.<draw>()`` whose receiver carries tags."""
        for rel, module in sorted(self.symbols.modules.items()):
            for scope in iter_scopes(module.source.tree):
                info = self._by_node.get(id(scope))
                env = self.scope_env(info) if info is not None else {}
                for node in scope_statements(scope):
                    if not isinstance(node, ast.Call) or not isinstance(
                        node.func, ast.Attribute
                    ):
                        continue
                    method = node.func.attr
                    if method not in DRAW_METHODS:
                        continue
                    recv = node.func.value
                    tags = self.expr_tags(recv, info, rel, env)
                    if tags:
                        yield TaintedDraw(
                            rel=rel,
                            node=node,
                            method=method,
                            tags=tags,
                            origin=self._describe(recv, rel, env),
                        )

    def _describe(
        self, recv: ast.expr, rel: str, env: dict[str, frozenset[str]]
    ) -> str:
        if isinstance(recv, ast.Name):
            if recv.id in self.module_rngs.get(rel, {}):
                return f"module-level RNG {recv.id!r}"
            return f"name {recv.id!r}"
        if isinstance(recv, ast.Attribute):
            return f"attribute {recv.attr!r}"
        return "expression"
