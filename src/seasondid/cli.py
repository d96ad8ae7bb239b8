"""Command-line interface.

Subcommands::

    ingest         validate price and calendar files, print a summary
    simulate       generate a synthetic panel + calendar from a config file
    run            batch-estimate a task list, emit effects.csv + manifest
    pretrend       placebo pre-trend estimates per task
    describe       phase-level outcome summaries per country
    heterogeneity  regress estimated effects on product attributes

Exit codes: 0 success; 1 configuration or I/O problem; 2 at least one task
hard-failed (infeasible tasks are reported in the manifest but are not
failures). Rerunning with identical inputs and seed reproduces outputs
byte for byte.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from . import __version__
from .calendar import ProtectionCalendar
from .config import RunConfig, expand_tasks, sim_config_from_file
from .diagnostics import (
    describe_distribution,
    heterogeneity_regression,
    join_effect_attributes,
    pretrend_placebo,
)
from .did import METHODS, EstimationTask, check_bootstrap_reps, two_sided_normal_p
from .errors import (
    CalendarError,
    CalendarMissError,
    ConfigError,
    IngestError,
    InfeasibleSampleError,
    SeasonDidError,
)
from .ingest import (
    EFFECTS_COLUMNS,
    PanelStore,
    read_prices,
    write_calendar,
    write_prices,
)
from .panel import Outcome, label_panel
from .pipeline import TaskGroup, outcome_rows, prepare_outcome_rows, run_task, task_seed
from .simgen import generate_panel, true_effect

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_TASK_FAILURE = 2

PRETREND_COLUMNS = (
    "product", "quality", "control_country", "outcome", "atet", "se", "p",
    "n11", "n10", "n01", "n00", "seasons_used", "reps", "seed",
)
DESCRIBE_COLUMNS = ("country", "phase", "outcome", "mean", "q1", "median", "q3", "n")
HETEROGENEITY_COLUMNS = (
    "outcome", "subsample", "term", "coefficient", "se", "p", "n", "r_squared", "dropped",
)


def _fmt(value) -> str:
    """Deterministic cell formatting: shortest round-trip repr for floats."""
    if isinstance(value, float):
        return repr(float(value))  # plain float repr even for numpy scalars
    return str(value)


def _write_csv(path: Path, header: tuple[str, ...], rows: list[tuple]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(cell) for cell in row])
    print(f"wrote {path} ({len(rows)} rows)")


def _write_manifest(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _load_inputs(config: RunConfig) -> tuple[PanelStore, ProtectionCalendar]:
    store, report = read_prices(config.prices, skip_bad_rows=config.skip_bad_rows)
    if report.rows_kept == 0:
        raise IngestError(f"{config.prices}: no usable price rows")
    calendar = ProtectionCalendar.from_csv(config.calendar)
    return store, calendar


# ---------------------------------------------------------------------------
# subcommands


def _cmd_ingest(args: argparse.Namespace) -> int:
    store, report = read_prices(args.prices, skip_bad_rows=args.skip_bad_rows)
    calendar = ProtectionCalendar.from_csv(args.calendar)
    print(f"price rows read:    {report.rows_read}")
    print(f"price rows kept:    {report.rows_kept} (skipped {report.rows_skipped})")
    for country in sorted(report.kept_by_country):
        print(f"  {country}: {report.kept_by_country[country]}")
    print(f"series:             {len(store.series())}")
    print(f"calendar products:  {len(calendar.products())}")
    missing = [p for p in store.products() if p not in calendar]
    if missing:
        print(f"products without a calendar entry: {', '.join(missing)}")
    return EXIT_OK


def _cmd_simulate(args: argparse.Namespace) -> int:
    cfg = sim_config_from_file(args.config, seed_override=args.seed)
    treated, control, calendar = generate_panel(cfg)
    window = calendar.window_for(cfg.product)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_prices(out_dir / "prices.csv", treated + control)
    write_calendar(
        out_dir / "calendar.csv",
        {cfg.product: (str(window.start), str(window.end))},
    )
    _write_manifest(
        out_dir / "sim_manifest.json",
        {
            "version": __version__,
            "command": "simulate",
            "config": dataclasses.asdict(cfg),  # JSON writes the quality as its value
            "true_effect": true_effect(cfg),
            "n_treated": len(treated),
            "n_control": len(control),
        },
    )
    print(f"wrote {len(treated) + len(control)} price rows to {out_dir / 'prices.csv'}")
    print(f"true standardized-scale effect: {true_effect(cfg)!r}")
    return EXIT_OK


def _task_columns(task: EstimationTask) -> tuple[str, str, str, str]:
    """The product, quality, control_country and outcome cells of a task's rows."""
    treated = task.treated
    return treated.product, treated.quality.value, task.control.country, task.outcome.value


def _effect_rows(task: EstimationTask, group: TaskGroup, config: RunConfig) -> list[tuple]:
    """``effects.csv`` rows of one task of ``group``: one per requested method."""
    if task.bootstrap_reps > 0:
        task = dataclasses.replace(task, seed=task_seed(config.seed or 0, task.key()))
    result = run_task(task, group.store, group.calendar, methods=config.methods, group=group)
    return [
        (
            *_task_columns(task),
            estimate.method,
            estimate.atet,
            estimate.se,
            estimate.p_value,
            *estimate.n_by_cell,
            estimate.n_trimmed,
            estimate.bootstrap_reps or 0,
            estimate.seed or 0,
        )
        for estimate in result.estimates
    ]


def _placebo_rows(task: EstimationTask, group: TaskGroup, config: RunConfig) -> list[tuple]:
    """The ``pretrends.csv`` row of one task of ``group``."""
    seed = task_seed(config.seed or 0, task.key() + "|pretrend")
    calendar = group.calendar
    treated_rows, control_rows = prepare_outcome_rows(task, group.store, calendar, group)
    result = pretrend_placebo(task, treated_rows, control_rows, calendar, config.reps, seed)
    estimate = result.estimate
    return [
        (
            *_task_columns(task),
            estimate.atet,
            estimate.se,
            estimate.p_value,
            *estimate.n_by_cell,
            result.seasons_used,
            estimate.bootstrap_reps,
            seed,
        )
    ]


# (job, store, calendar, config) of the batch this process runs; set once
# per pool worker by its initializer, so task groups travel to workers alone.
_batch: tuple = ()


def _start_batch(*state) -> None:
    global _batch
    _batch = state


def _run_one(task: EstimationTask, group: TaskGroup) -> tuple[str, str, list[tuple]]:
    """Run the batch's job on one task of ``group``; returns (key, status,
    table rows)."""
    job, _, _, config = _batch
    try:
        rows = job(task, group, config)
    except InfeasibleSampleError as exc:
        return task.key(), f"infeasible: {exc.reason}", []
    except SeasonDidError as exc:
        return task.key(), f"failed: {type(exc).__name__}: {exc}", []
    return task.key(), "ok", rows


def _run_group(tasks: list[EstimationTask]) -> list[tuple[str, str, list[tuple]]]:
    """``_run_one`` on each task of a group, in order, all of them on one
    ``TaskGroup``, which lives as long as this call.

    Top-level function so process pools can pickle it.
    """
    _, store, calendar, _ = _batch
    group = TaskGroup(tasks, store, calendar)
    return [_run_one(task, group) for task in tasks]


def _task_groups(tasks: list[EstimationTask], workers: int) -> list[list[EstimationTask]]:
    """Cut key-ordered ``tasks`` into contiguous groups that share
    ``task.treated``, none longer than ceil(tasks / workers).

    A group runs in one process as one ``pipeline.TaskGroup``, which reads,
    labels and transforms its treated market and all its control markets
    once; the cap keeps one treated series with many controls spread over
    every worker.
    """
    cap = -(-len(tasks) // workers)
    groups: list[list[EstimationTask]] = []
    for task in tasks:
        if groups and groups[-1][-1].treated == task.treated and len(groups[-1]) < cap:
            groups[-1].append(task)
        else:
            groups.append([task])
    return groups


def _run_config(args: argparse.Namespace, bootstraps) -> RunConfig:
    """The config of a ``run`` or ``pretrend``, validated once with its
    flags applied, and refused before any input is read if a setting is out
    of range, or if ``bootstraps(config)`` holds and it sets no seed."""
    config = RunConfig.from_file(args.config).override(
        seed=args.seed,
        trim=args.trim,
        reps=args.reps,
        workers=args.workers,
        skip_bad_rows=args.skip_bad_rows or None,
    )
    config.validate()
    if bootstraps(config) and config.seed is None:
        raise ConfigError("a seed is mandatory for any run involving the bootstrap")
    return config


def _run_batch(
    config: RunConfig,
    command: str,
    job,
    columns: tuple[str, ...],
    table_name: str,
    manifest_name: str,
) -> int:
    """Run ``job`` on every task in key order; write its rows to
    ``table_name`` and each task's status to ``manifest_name``.

    The tasks run as ``_task_groups`` on min(``config.workers``, groups)
    processes: a pool whose initializer hands each worker the store,
    calendar and config once, or this process alone. Either way the rows
    come back in key order, so the outputs do not depend on the worker
    count."""
    store, calendar = _load_inputs(config)
    tasks = sorted(expand_tasks(config, store=store), key=lambda t: t.key())
    groups = _task_groups(tasks, config.workers)
    workers = min(config.workers, len(groups))
    state = (job, store, calendar, config)
    if workers > 1:
        with ProcessPoolExecutor(
            max_workers=workers, initializer=_start_batch, initargs=state
        ) as pool:
            results = list(pool.map(_run_group, groups))
    else:
        _start_batch(*state)
        results = list(map(_run_group, groups))
    outcomes = [outcome for group in results for outcome in group]

    rows = [row for _, _, task_rows in outcomes for row in task_rows]
    statuses = [{"task": key, "status": status} for key, status, _ in outcomes]
    n_failed = sum(1 for s in statuses if s["status"].startswith("failed"))
    n_infeasible = sum(1 for s in statuses if s["status"].startswith("infeasible"))
    print(
        f"{len(statuses)} tasks: {len(statuses) - n_failed - n_infeasible} ok, "
        f"{n_infeasible} infeasible, {n_failed} failed"
    )
    _write_csv(config.output_dir / table_name, columns, rows)
    _write_manifest(
        config.output_dir / manifest_name,
        {
            "version": __version__,
            "command": command,
            "seed": config.seed,
            "config": config.manifest_dict(),
            "tasks": statuses,
        },
    )
    return EXIT_TASK_FAILURE if n_failed else EXIT_OK


def _cmd_run(args: argparse.Namespace) -> int:
    # of the methods only ipw bootstraps
    config = _run_config(args, lambda c: "ipw" in c.methods and c.reps > 0)
    return _run_batch(
        config, "run", _effect_rows, EFFECTS_COLUMNS, "effects.csv", "manifest.json"
    )


def _cmd_pretrend(args: argparse.Namespace) -> int:
    config = _run_config(args, lambda c: c.reps > 0)
    check_bootstrap_reps(config.reps)  # the placebo always bootstraps
    return _run_batch(
        config, "pretrend", _placebo_rows, PRETREND_COLUMNS, "pretrends.csv",
        "pretrend_manifest.json",
    )


def _cmd_describe(args: argparse.Namespace) -> int:
    # no validate(): describe reads only the inputs, which the parsers check
    config = RunConfig.from_file(args.config).override(
        skip_bad_rows=args.skip_bad_rows or None
    )
    store, calendar = _load_inputs(config)
    labeled = label_panel(store.rows(), calendar)
    rows = [
        (s.country, s.phase.value, s.outcome.value, s.mean, s.q1, s.median, s.q3, s.n)
        for outcome in Outcome
        for s in describe_distribution(outcome_rows(labeled, outcome), outcome)
    ]
    _write_csv(config.output_dir / "descriptives.csv", DESCRIBE_COLUMNS, rows)
    return EXIT_OK


def _cmd_heterogeneity(args: argparse.Namespace) -> int:
    rows = join_effect_attributes(args.effects, args.attributes, args.method)
    out_rows: list[tuple] = []
    for result in heterogeneity_regression(rows):
        dropped = ";".join(result.fit.dropped_columns)
        for name in result.fit.column_names:
            coef = result.fit.coefficient(name)
            se = result.fit.standard_error(name)
            out_rows.append(
                (
                    result.outcome.value,
                    result.subsample,
                    name,
                    coef,
                    se,
                    two_sided_normal_p(coef, se),
                    result.n,
                    result.r_squared,
                    dropped,
                )
            )
    _write_csv(Path(args.out) / "heterogeneity.csv", HETEROGENEITY_COLUMNS, out_rows)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


def _add_input_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="key=value configuration file")
    parser.add_argument(
        "--skip-bad-rows", action="store_true", help="drop invalid price rows instead of failing"
    )


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    _add_input_flags(parser)
    parser.add_argument("--seed", type=int, default=None, help="override the master seed")
    parser.add_argument("--trim", type=float, default=None, help="override the trim threshold")
    parser.add_argument("--reps", type=int, default=None, help="override bootstrap replicates")
    parser.add_argument("--workers", type=int, default=None, help="parallel task workers")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seasondid",
        description="Seasonal-protection effects on weekly producer prices",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    ingest = commands.add_parser("ingest", help="validate input files")
    ingest.add_argument("--prices", required=True)
    ingest.add_argument("--calendar", required=True)
    ingest.add_argument("--skip-bad-rows", action="store_true")
    ingest.set_defaults(func=_cmd_ingest)

    simulate = commands.add_parser("simulate", help="generate a synthetic panel")
    simulate.add_argument("--config", required=True, help="generator key=value file")
    simulate.add_argument("--out", required=True, help="output directory")
    simulate.add_argument("--seed", type=int, default=None, help="override the generator seed")
    simulate.set_defaults(func=_cmd_simulate)

    run = commands.add_parser("run", help="batch-estimate the task list")
    _add_run_flags(run)
    run.set_defaults(func=_cmd_run)

    pretrend = commands.add_parser("pretrend", help="pre-trend placebo per task")
    _add_run_flags(pretrend)
    pretrend.set_defaults(func=_cmd_pretrend)

    describe = commands.add_parser("describe", help="phase-level outcome summaries")
    _add_input_flags(describe)
    describe.set_defaults(func=_cmd_describe)

    heterogeneity = commands.add_parser(
        "heterogeneity", help="regress effects on product attributes"
    )
    heterogeneity.add_argument("--effects", required=True, help="effects.csv from a run")
    heterogeneity.add_argument("--attributes", required=True, help="product attribute file")
    heterogeneity.add_argument("--out", required=True, help="output directory")
    heterogeneity.add_argument("--method", default="ipw", choices=METHODS)
    heterogeneity.set_defaults(func=_cmd_heterogeneity)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, IngestError, CalendarError, CalendarMissError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SeasonDidError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_TASK_FAILURE


if __name__ == "__main__":
    sys.exit(main())
