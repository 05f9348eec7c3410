"""The ``repro-lint`` entry point (also backing ``repro lint``).

Usage::

    repro-lint [PATH] [--format text|json] [--rule R00X] [--graph FILE]
               [--list-rules]

PATH defaults to the installed ``repro`` package, so a bare
``repro-lint`` checks this repository's own invariants.  Exit status:
0 clean, 1 findings, 2 usage/configuration error (missing path,
unknown rule, unwritable graph file) — errors are one line on stderr,
never a traceback.
"""

from __future__ import annotations

import argparse
from pathlib import Path

from ..cliutil import cli_error
from .lint import LintError, run_lint
from .report import render_json, render_text
from .rules import rule_catalog

__all__ = ["main", "build_parser", "add_lint_arguments", "run_lint_command"]


def _default_root() -> Path:
    import repro

    return Path(repro.__file__).resolve().parent


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the shared lint options (used by both entry points)."""
    parser.add_argument(
        "path",
        nargs="?",
        default=None,
        help="file or directory to lint (default: the repro package)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--rule",
        action="append",
        metavar="R00X",
        default=None,
        help="run only this rule (repeatable; default: all rules)",
    )
    parser.add_argument(
        "--graph",
        metavar="FILE",
        default=None,
        help="also write the flow engine's import/call graph to FILE "
        "as JSON",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )


def run_lint_command(args: argparse.Namespace) -> int:
    """Execute a parsed lint invocation; returns the exit status."""
    if args.list_rules:
        for rule_id, title in rule_catalog().items():
            print(f"{rule_id}  {title}")
        return 0
    try:
        root = Path(args.path) if args.path is not None else _default_root()
        result = run_lint(root, rules=args.rule, graph=args.graph)
    except LintError as error:
        return cli_error(str(error))
    if args.format == "json":
        print(render_json(result), end="")
    else:
        print(render_text(result))
    return 1 if result.findings else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="reprolint: determinism and observability invariants "
        "for the repro tree",
    )
    add_lint_arguments(parser)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Console-script entry point."""
    return run_lint_command(build_parser().parse_args(argv))


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
