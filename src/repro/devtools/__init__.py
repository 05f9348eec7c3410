"""Developer tooling for the reproduction: the ``reprolint`` static
analyzer.

The determinism guarantees the experiments lean on (seeded RNG streams,
no wall-clock in the inference layers, ordered iteration into exports,
a closed event namespace) are invariants of the *source*, not of any
one run — so they are enforced here, statically, as named rules over
the AST.  See :mod:`repro.devtools.lint` for the engine,
:mod:`repro.devtools.rules` for the rule catalog (R001–R009), and
:mod:`repro.devtools.cli` for the ``repro-lint`` / ``repro lint``
entry points.
"""

from .lint import Finding, LintError, LintResult, run_lint
from .rules import ALL_RULES, rule_catalog

__all__ = [
    "ALL_RULES",
    "Finding",
    "LintError",
    "LintResult",
    "rule_catalog",
    "run_lint",
]
