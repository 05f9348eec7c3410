"""reproflow — whole-program dataflow layer under reprolint.

The invariants reprolint protects — seeded determinism, declared
mutation points, supervised failure containment, layering — are just
as easily broken *across* module, thread, and process boundaries as
within one file.  This package builds the project-wide picture the
rules that need it (R001, R005, R008, R009) consume:

* :mod:`.symbols` — symbol table: every module, class, function and
  method, import maps, and inferred attribute types;
* :mod:`.graph` — the module-level import graph (with the layering
  ranks R009 enforces) and a resolved intra-project call graph,
  exportable as JSON via ``repro lint --graph``;
* :mod:`.taint` — a worklist solver propagating RNG seed-provenance
  tags through assignments, calls, returns, closures, and dataclass
  fields (R001's lattice);
* :mod:`.raises` — interprocedural raised-exception sets checked
  against supervisor containment contracts (R008);
* :mod:`.rules_flow` — the rules built on it.

All of it is built once per lint run and memoized on the
:class:`~repro.devtools.lint.Project` via :class:`FlowAnalysis`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .graph import FlowGraphs
from .raises import RaisesAnalysis
from .symbols import SymbolTable
from .taint import TaintAnalysis

if TYPE_CHECKING:  # pragma: no cover
    from ..lint import Project

__all__ = [
    "FlowAnalysis",
    "FlowGraphs",
    "RaisesAnalysis",
    "SymbolTable",
    "TaintAnalysis",
]


class FlowAnalysis:
    """Symbol table + graphs + taint facts, computed once per project.

    Every flow rule calls :meth:`of` so the (comparatively expensive)
    whole-program passes run exactly once per ``run_lint`` invocation
    no matter how many rules consume them.
    """

    def __init__(self, project: "Project") -> None:
        self.symbols = SymbolTable(project)
        self.graphs = FlowGraphs(self.symbols)
        self.taint = TaintAnalysis(self.symbols, self.graphs)
        self.raises = RaisesAnalysis(self.symbols, self.graphs)

    @classmethod
    def of(cls, project: "Project") -> "FlowAnalysis":
        analysis = project.cache.get("flow")
        if analysis is None:
            analysis = cls(project)
            project.cache["flow"] = analysis
        return analysis
