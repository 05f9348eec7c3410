"""Command-line interface: run the pipeline and the paper's experiments.

Usage (via ``python -m repro``)::

    python -m repro summary  [--seed N] [--scale small|default|large|xlarge]
    python -m repro run      [--seed N] [--scale ...] [--workers N]
                             [--shard-timeout S] [--json PATH]
                             [--checkpoint-dir DIR] [--resume]
    python -m repro serve    [--seed N] [--scale ...] [--epochs N]
                             [--checkpoint-dir DIR] [--resume]
                             [--stop-after-epoch K] [--queries PATH|-]
    python -m repro experiment {table1,fig2,fig3,fig7,fig8,fig9,fig10,
                                proximity,multirole,ablation}
                             [--seed N] [--scale ...]
    python -m repro chaos    [--seed N] [--scale ...]
                             [--intensities 0,0.25,0.5,1]
                             [--no-degraded] [--json PATH]
    python -m repro soak     [--seed N] [--scale ...] [--epochs N]
                             [--threads N] [--intensity X]
                             [--error-budget X] [--no-verify]
                             [--quick] [--sanitize] [--json PATH]
    python -m repro outage   [--seed N] [--scale ...] [--epochs N]
                             [--churn 0,1] [--faults 0,1]
                             [--json PATH]
    python -m repro lint     [PATH] [--format text|json] [--rule R00X]
                             [--graph FILE] [--list-rules]

``summary`` prints the generated Internet's shape; ``run`` executes the
full campaign + CFS and reports (optionally exporting the inferred map
as JSON); ``serve`` runs the always-on map service — the campaign
streams in as epochs, each publishing a versioned snapshot, then a
line-oriented query loop answers lookups against the live map;
``experiment`` regenerates one of the paper's tables/figures; ``chaos``
sweeps the moderate fault profile across intensities and reports how
inference accuracy degrades; ``soak`` hammers the map service with
query threads while a faulty stream ingests (availability, staleness,
recovery latency, fingerprint-identity gate); ``outage`` sweeps churn
rate × fault intensity over the temporal stream and scores the
disruption detector's precision/recall/latency against the churn
plan's seeded event log; ``lint`` runs the
reprolint static analyzer over the source tree (also available
standalone as ``repro-lint``).

Subcommands self-register in the :data:`SUBCOMMANDS` registry — one
declarative :class:`Subcommand` record each (name, help, argument
wiring, handler, whether the shared ``--seed``/``--scale`` validation
applies) — so adding a command never touches the dispatch logic.

Invalid ``--scale`` / ``--seed`` values exit with a one-line error on
stderr and status 2 — no traceback.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time
from dataclasses import dataclass
from typing import Callable

from .cliutil import cli_error
from .core.pipeline import Environment, PipelineConfig, build_environment

__all__ = ["SUBCOMMANDS", "Subcommand", "build_parser", "main"]


# ---------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Subcommand:
    """One declaratively registered CLI subcommand."""

    #: Subcommand name as typed on the command line.
    name: str
    #: One-line help shown in ``repro --help``.
    help: str
    #: Handler; returns the process exit code.  ``ValueError`` raised
    #: here (or during validation) is rendered by ``cliutil.cli_error``.
    run: Callable[[argparse.Namespace], int]
    #: Adds the subcommand's own arguments (``None`` = no extra args).
    configure: Callable[[argparse.ArgumentParser], None] | None = None
    #: Whether the shared ``--seed``/``--scale``/``--workers`` checks
    #: apply (lint manages its own arguments and skips them).
    validates: bool = True


def _config_for(
    scale: str,
    seed: int,
    workers: int = 1,
    shard_timeout: float | None = None,
    checkpoint_dir: str | None = None,
    resume: bool = False,
) -> PipelineConfig:
    config = PipelineConfig.for_scale(scale, seed=seed, workers=workers)
    if shard_timeout is not None or checkpoint_dir is not None or resume:
        config = dataclasses.replace(
            config,
            shard_timeout_s=shard_timeout,
            checkpoint_dir=checkpoint_dir,
            resume=resume,
        )
    return config


def _environment_for(args: argparse.Namespace) -> Environment:
    return build_environment(
        _config_for(
            args.scale,
            args.seed,
            args.workers,
            shard_timeout=args.shard_timeout,
        )
    )


def _write_or_print(text: str, path: str, what: str) -> None:
    """Write ``text`` to ``path``, or print it when ``path`` is ``-``."""
    if path == "-":
        print(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"{what} written to {path}")


# ---------------------------------------------------------------------
# summary
# ---------------------------------------------------------------------


def _cmd_summary(args: argparse.Namespace) -> int:
    env = _environment_for(args)
    topology = env.topology
    print("generated Internet:")
    for key, value in topology.summary().items():
        print(f"  {key:>16}: {value}")
    print("study targets:")
    for asn in env.target_asns:
        record = topology.ases[asn]
        print(
            f"  AS{asn:<6} {record.name:<12} role={record.role.value:<8}"
            f" facilities={len(record.facility_ids)}"
        )
    rows = env.platforms.table1()
    print("platforms (VPs/ASNs/countries):")
    for stats in rows:
        print(
            f"  {stats.platform:>14}: {stats.vantage_points:>5} / "
            f"{stats.asns:>4} / {stats.countries:>3}"
        )
    return 0


# ---------------------------------------------------------------------
# run
# ---------------------------------------------------------------------


def _configure_run(run: argparse.ArgumentParser) -> None:
    run.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="write the inferred map as JSON to PATH ('-' for stdout)",
    )
    run.add_argument(
        "--metrics",
        action="store_true",
        help="print the run's counters and per-stage timings",
    )
    run.add_argument(
        "--checkpoint-dir",
        metavar="DIR",
        default=None,
        help="durably checkpoint each completed pipeline stage under DIR",
    )
    run.add_argument(
        "--resume",
        action="store_true",
        help="load intact stages from --checkpoint-dir instead of "
        "recomputing them (corrupt stages degrade to recompute); the "
        "resumed run's output is byte-identical to an uninterrupted one",
    )


def _print_metrics(result) -> None:
    metrics = result.metrics
    if metrics is None:
        print("no metrics recorded")
        return
    print("stage timings:")
    for name in sorted(metrics.stage_seconds):
        seconds = metrics.stage_seconds[name]
        calls = metrics.stage_calls.get(name, 0)
        print(f"  {name:>12}: {seconds:8.3f}s over {calls} calls")
    print("counters:")
    for name in sorted(metrics.counters):
        print(f"  {name}: {metrics.counters[name]}")


def _cmd_run(args: argparse.Namespace) -> int:
    # Imported lazily: only the run command drives the checkpointing
    # orchestrator; the other commands wire the environment directly.
    from .core.pipeline import run_pipeline
    from .export import dumps_result
    from .obs import Instrumentation
    from .validation.metrics import score_interfaces, unresolved_city_constrained

    if args.resume and args.checkpoint_dir is None:
        raise ValueError(
            "--resume requires --checkpoint-dir (there is "
            "nothing to resume from)"
        )
    config = _config_for(
        args.scale,
        args.seed,
        args.workers,
        shard_timeout=args.shard_timeout,
        checkpoint_dir=args.checkpoint_dir,
        resume=args.resume,
    )
    started = time.perf_counter()
    instrumentation = Instrumentation()
    print("running campaign + Constrained Facility Search ...")
    run = run_pipeline(
        config, instrumentation=instrumentation, progress=print
    )
    env = run.environment
    result = run.cfs_result
    elapsed = time.perf_counter() - started
    print(f"  corpus holds {len(run.corpus)} traceroutes")
    print(
        f"  {result.iterations_run} iterations, "
        f"{result.followup_traces} follow-up traces, {elapsed:.1f}s"
    )
    print(
        f"resolved {len(result.resolved_interfaces())} of "
        f"{result.peering_interfaces_seen} peering interfaces "
        f"({result.resolved_fraction():.1%})"
    )
    city_frac = unresolved_city_constrained(result, env.facility_db)
    print(f"unresolved interfaces pinned to a single city: {city_frac:.1%}")
    report = score_interfaces(env.topology, result)
    print(
        f"omniscient accuracy: facility {report.facility_accuracy:.1%}, "
        f"city {report.city_accuracy:.1%}"
    )
    if args.metrics:
        _print_metrics(result)
    if args.json is not None:
        _write_or_print(
            dumps_result(result, env.facility_db), args.json, "inferred map"
        )
    return 0


# ---------------------------------------------------------------------
# serve
# ---------------------------------------------------------------------


def _configure_serve(serve: argparse.ArgumentParser) -> None:
    serve.add_argument(
        "--epochs",
        type=int,
        default=4,
        help="number of contiguous epochs the campaign streams in as "
        "(default: 4; each epoch publishes one versioned snapshot)",
    )
    serve.add_argument(
        "--checkpoint-dir",
        metavar="DIR",
        default=None,
        help="durably publish every snapshot (and the mid-stream resume "
        "state) under DIR",
    )
    serve.add_argument(
        "--resume",
        action="store_true",
        help="restore mid-stream state from --checkpoint-dir and continue "
        "the stream (the re-published snapshots are byte-identical)",
    )
    serve.add_argument(
        "--stop-after-epoch",
        type=int,
        default=None,
        metavar="K",
        help="pause the service after epoch K's snapshot is published "
        "(simulates a shutdown mid-stream; resume later with --resume)",
    )
    serve.add_argument(
        "--queries",
        metavar="PATH",
        default=None,
        help="after the stream, answer line-protocol queries from PATH "
        "('-' reads stdin as a REPL); one JSON object per line "
        "(commands: iface <addr>, link <asn> <asn>, tenants <id>, "
        "info, help)",
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    # Imported lazily: the serve package pulls in checkpoint + pipeline.
    from .obs import Instrumentation
    from .serve import MapService

    if args.epochs < 1:
        raise ValueError(f"invalid epochs {args.epochs}: must be at least 1")
    if args.stop_after_epoch is not None and args.stop_after_epoch < 0:
        raise ValueError(
            f"invalid --stop-after-epoch {args.stop_after_epoch}: "
            "must be non-negative"
        )
    if args.resume and args.checkpoint_dir is None:
        raise ValueError(
            "--resume requires --checkpoint-dir (there is "
            "nothing to resume from)"
        )
    config = _config_for(
        args.scale,
        args.seed,
        args.workers,
        shard_timeout=args.shard_timeout,
        checkpoint_dir=args.checkpoint_dir,
        resume=args.resume,
    )
    print(
        f"map service: streaming campaign in {args.epochs} epochs "
        f"(scale={args.scale}, seed={args.seed}) ..."
    )
    service = MapService(
        config, instrumentation=Instrumentation(), progress=print
    )
    handle = service.run_stream(
        args.epochs, stop_after_epoch=args.stop_after_epoch
    )
    for snapshot in handle.snapshots:
        label = "final" if snapshot.final else f"epoch {snapshot.epoch}"
        print(
            f"  snapshot {label}: {snapshot.stats['interfaces']} interfaces, "
            f"{snapshot.stats['links']} links, "
            f"fingerprint {snapshot.fingerprint[:12]}…"
        )
    if handle.final is None:
        print("service paused mid-stream (resume with --resume)")
    if args.queries is not None:
        source = sys.stdin if args.queries == "-" else open(
            args.queries, encoding="utf-8"
        )
        try:
            for line in source:
                if not line.strip():
                    continue
                print(service.engine.execute_line(line))
        finally:
            if source is not sys.stdin:
                source.close()
    return 0


# ---------------------------------------------------------------------
# experiment
# ---------------------------------------------------------------------


def _configure_experiment(experiment: argparse.ArgumentParser) -> None:
    experiment.add_argument(
        "name",
        choices=(
            "table1",
            "fig2",
            "fig3",
            "fig7",
            "fig8",
            "fig9",
            "fig10",
            "proximity",
            "multirole",
            "ablation",
        ),
    )


def _cmd_experiment(args: argparse.Namespace) -> int:
    # Imported lazily: the experiments package pulls in every harness.
    from . import experiments

    env = _environment_for(args)
    name = args.name
    if name == "table1":
        print(experiments.run_table1(env).format())
        return 0
    if name == "fig2":
        print(experiments.run_fig2(env).format())
        return 0
    if name == "fig3":
        print(experiments.run_fig3(env.topology).format())
        return 0
    if name == "fig7":
        print(experiments.run_fig7(env).format())
        return 0

    corpus = env.run_campaign()
    if name == "fig8":
        print(experiments.run_fig8(env, corpus, repeats=2).format())
        return 0
    if name == "ablation":
        print(experiments.run_ablation(env, corpus).format())
        return 0

    result = env.run_cfs(corpus)
    if name == "fig9":
        print(experiments.run_fig9(env, result).format())
    elif name == "fig10":
        print(experiments.run_fig10(env, result).format())
    elif name == "proximity":
        print(experiments.run_proximity_validation(env, result).format())
    elif name == "multirole":
        print(experiments.run_multirole_census(env, result).format())
    return 0


# ---------------------------------------------------------------------
# chaos
# ---------------------------------------------------------------------


def _configure_chaos(chaos: argparse.ArgumentParser) -> None:
    chaos.add_argument(
        "--intensities",
        default="0,0.25,0.5,1",
        help="comma-separated fault intensities to sweep (default: "
        "0,0.25,0.5,1; each scales the moderate profile)",
    )
    chaos.add_argument(
        "--no-degraded",
        action="store_true",
        help="run CFS without degraded mode (inferences may empty out "
        "under heavy dataset faults)",
    )
    chaos.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="write the sweep report as JSON to PATH ('-' for stdout)",
    )


def _cmd_chaos(args: argparse.Namespace) -> int:
    # Imported lazily: repro.faults sits below the pipeline layers and
    # must not pull them in at repro.cli import time.
    import json as _json

    from .faults.chaos import run_chaos

    try:
        intensities = tuple(
            float(item) for item in args.intensities.split(",") if item.strip()
        )
    except ValueError:
        raise ValueError(
            f"invalid --intensities {args.intensities!r}: expected "
            "comma-separated numbers, e.g. 0,0.25,0.5,1"
        ) from None
    if not intensities:
        raise ValueError("--intensities must name at least one intensity")
    print(
        f"chaos sweep over {len(intensities)} intensities "
        f"(scale={args.scale}, seed={args.seed}) ..."
    )
    report = run_chaos(
        seed=args.seed,
        scale=args.scale,
        intensities=intensities,
        degraded=not args.no_degraded,
    )
    print(report.format())
    if args.json is not None:
        _write_or_print(
            _json.dumps(report.as_dict(), indent=2), args.json, "chaos report"
        )
    return 0


# ---------------------------------------------------------------------
# soak
# ---------------------------------------------------------------------


def _configure_soak(soak: argparse.ArgumentParser) -> None:
    soak.add_argument(
        "--epochs",
        type=int,
        default=8,
        help="epochs the faulty stream ingests (default: 8)",
    )
    soak.add_argument(
        "--threads",
        type=int,
        default=4,
        help="query threads hammering the live engine (default: 4)",
    )
    soak.add_argument(
        "--intensity",
        type=float,
        default=1.0,
        help="scales the moderate profile's epoch_fail/snapshot_corrupt "
        "rates (default: 1.0)",
    )
    soak.add_argument(
        "--error-budget",
        type=float,
        default=0.0,
        metavar="FRACTION",
        help="allowed workload-error fraction (default: 0.0 — the seeded "
        "workload is all-valid lines)",
    )
    soak.add_argument(
        "--no-verify",
        action="store_true",
        help="skip the fingerprint-identity gate against a fault-free "
        "batch run of the same seed",
    )
    soak.add_argument(
        "--quick",
        action="store_true",
        help="short smoke: 5 epochs, 2 threads (bench_pipeline --quick "
        "runs this shape)",
    )
    soak.add_argument(
        "--sanitize",
        action="store_true",
        help="arm the reprosan runtime sanitizer for the whole soak "
        "(equivalent to REPRO_SANITIZE=1); any violation fails the run",
    )
    soak.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="write the soak report as JSON to PATH ('-' for stdout)",
    )


def _cmd_soak(args: argparse.Namespace) -> int:
    # Imported lazily: the soak harness pulls in the whole serve stack.
    import json as _json

    from .serve.soak import run_soak

    if args.epochs < 1:
        raise ValueError(f"invalid epochs {args.epochs}: must be at least 1")
    if args.threads < 1:
        raise ValueError(f"invalid threads {args.threads}: must be at least 1")
    if args.intensity < 0:
        raise ValueError(
            f"invalid intensity {args.intensity}: must be non-negative"
        )
    if args.error_budget < 0:
        raise ValueError(
            f"invalid error budget {args.error_budget}: must be non-negative"
        )
    epochs = min(args.epochs, 5) if args.quick else args.epochs
    threads = min(args.threads, 2) if args.quick else args.threads
    print(
        f"chaos soak: {threads} query threads over a faulty "
        f"{epochs}-epoch stream (scale={args.scale}, seed={args.seed}) ..."
    )
    report = run_soak(
        seed=args.seed,
        scale=args.scale,
        epochs=epochs,
        threads=threads,
        intensity=args.intensity,
        error_budget=args.error_budget,
        verify_identity=not args.no_verify,
        sanitize=args.sanitize,
        progress=print,
    )
    print(report.format())
    if args.json is not None:
        _write_or_print(
            _json.dumps(report.as_dict(), indent=2), args.json, "soak report"
        )
    return 0 if report.ok else 1


# ---------------------------------------------------------------------
# outage
# ---------------------------------------------------------------------


def _configure_outage(outage: argparse.ArgumentParser) -> None:
    outage.add_argument(
        "--epochs",
        type=int,
        default=10,
        help="epochs per sweep cell (default: 10)",
    )
    outage.add_argument(
        "--churn",
        default="0,1",
        help="comma-separated churn intensities to sweep (default: 0,1; "
        "each scales the moderate churn profile)",
    )
    outage.add_argument(
        "--faults",
        default="0,1",
        help="comma-separated fault intensities to sweep (default: 0,1; "
        "each scales the moderate measurement-fault profile)",
    )
    outage.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="write the sweep report as JSON to PATH ('-' for stdout)",
    )


def _parse_intensities(text: str, flag: str) -> tuple[float, ...]:
    try:
        values = tuple(
            float(item) for item in text.split(",") if item.strip()
        )
    except ValueError:
        raise ValueError(
            f"invalid {flag} {text!r}: expected comma-separated numbers, "
            "e.g. 0,0.5,1"
        ) from None
    if not values:
        raise ValueError(f"{flag} must name at least one intensity")
    return values


def _cmd_outage(args: argparse.Namespace) -> int:
    # Imported lazily: the outage harness pulls in the whole serve stack.
    import json as _json

    from .serve.outage import run_outage

    if args.epochs < 1:
        raise ValueError(f"invalid epochs {args.epochs}: must be at least 1")
    churn = _parse_intensities(args.churn, "--churn")
    faults = _parse_intensities(args.faults, "--faults")
    print(
        f"outage sweep: {len(churn)}x{len(faults)} cells of "
        f"{args.epochs} churned epochs each "
        f"(scale={args.scale}, seed={args.seed}) ..."
    )
    report = run_outage(
        seed=args.seed,
        scale=args.scale,
        epochs=args.epochs,
        churn_intensities=churn,
        fault_intensities=faults,
        progress=print,
    )
    print(report.format())
    if args.json is not None:
        _write_or_print(
            _json.dumps(report.as_dict(), indent=2), args.json, "outage report"
        )
    return 0


# ---------------------------------------------------------------------
# lint
# ---------------------------------------------------------------------


def _configure_lint(lint: argparse.ArgumentParser) -> None:
    # Imported lazily; the parser wiring itself is cheap.
    from .devtools.cli import add_lint_arguments

    add_lint_arguments(lint)


def _cmd_lint(args: argparse.Namespace) -> int:
    from .devtools.cli import run_lint_command

    return run_lint_command(args)


# ---------------------------------------------------------------------
# Registry + dispatch
# ---------------------------------------------------------------------

#: Every subcommand, in help order.  Adding a command = adding a record.
SUBCOMMANDS: tuple[Subcommand, ...] = (
    Subcommand(
        name="summary",
        help="print the generated Internet's shape",
        run=_cmd_summary,
    ),
    Subcommand(
        name="run",
        help="run the campaign and CFS",
        run=_cmd_run,
        configure=_configure_run,
    ),
    Subcommand(
        name="serve",
        help="run the always-on map service (streamed epochs, versioned "
        "snapshots, line-oriented queries)",
        run=_cmd_serve,
        configure=_configure_serve,
    ),
    Subcommand(
        name="experiment",
        help="regenerate one paper table/figure",
        run=_cmd_experiment,
        configure=_configure_experiment,
    ),
    Subcommand(
        name="chaos",
        help="sweep fault intensity and report degradation",
        run=_cmd_chaos,
        configure=_configure_chaos,
    ),
    Subcommand(
        name="soak",
        help="hammer the map service with query threads while a faulty "
        "stream ingests (availability + identity gate)",
        run=_cmd_soak,
        configure=_configure_soak,
    ),
    Subcommand(
        name="outage",
        help="sweep churn rate x fault intensity over the temporal "
        "stream and score disruption detection against the seeded "
        "event log",
        run=_cmd_outage,
        configure=_configure_outage,
    ),
    Subcommand(
        name="lint",
        help="run the reprolint invariant checks over the tree",
        run=_cmd_lint,
        configure=_configure_lint,
        validates=False,
    ),
)


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse command-line interface from the registry."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Constrained Facility Search over a synthetic Internet",
    )
    # --seed and --scale are validated in main() (not via argparse
    # choices=) so bad values produce a clean one-line error.
    parser.add_argument("--seed", type=int, default=0, help="master seed")
    parser.add_argument(
        "--scale",
        default="small",
        help="topology scale: small, default, large, or xlarge "
        "(default: small)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="process-pool width for the campaign and trace extraction "
        "(default: 1 = serial; output is byte-identical at any width)",
    )
    parser.add_argument(
        "--shard-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-shard progress deadline for the parallel-executor "
        "supervisor (default: no deadline; hung shards are retried and "
        "eventually quarantined to serial execution)",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for subcommand in SUBCOMMANDS:
        subparser = commands.add_parser(subcommand.name, help=subcommand.help)
        if subcommand.configure is not None:
            subcommand.configure(subparser)
        subparser.set_defaults(_subcommand=subcommand)
    return parser


def _validate_common(args: argparse.Namespace) -> None:
    """Shared ``--seed``/``--scale``/``--workers`` checks (ValueError)."""
    if args.scale not in PipelineConfig.SCALES:
        raise ValueError(
            f"unknown scale {args.scale!r}; expected one of "
            f"{PipelineConfig.SCALES}"
        )
    if args.seed < 0:
        raise ValueError(f"invalid seed {args.seed}: must be non-negative")
    if args.workers < 1:
        raise ValueError(f"invalid workers {args.workers}: must be at least 1")
    if args.shard_timeout is not None and args.shard_timeout <= 0:
        raise ValueError(
            f"invalid shard timeout {args.shard_timeout}: must be positive"
        )


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    Invalid ``--scale`` / ``--seed`` / ``--intensities`` values print a
    one-line ``error: ...`` to stderr and return 2 instead of raising.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    subcommand: Subcommand = args._subcommand
    if not subcommand.validates:
        return subcommand.run(args)
    try:
        _validate_common(args)
        return subcommand.run(args)
    except ValueError as error:
        return cli_error(str(error))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
