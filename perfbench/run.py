"""seasondid benchmark: timed CLI runs, correctness checks and a traced run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload boot-ipw --seed 1 --seconds 35 --trace 0

``--trace 0`` generates the workload's inputs from ``--seed``, runs the CLI
command in a fresh process again and again for ``--seconds`` (at least
``MIN_RUNS`` times), and reports the median of each end-to-end metric.
Its times are scaled to a reference machine speed by the calibration job
timed between the CLI runs (``calibration.py``); the measured times are on
the report line.
``--trace 1`` runs the CLI once, then runs the same command in this process
at one worker, untraced and traced, and reports the per-layer metrics.

Both modes check the outputs (see ``checks.py``), print a report line with
every metric's unit, quartiles and sample count plus the machine, versions,
input size and ``src/`` line count, and print as the last line one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``. The exit
code is 0 when every check passed, 1 when one failed, and 2 when the
benchmark could not run (no ``src/seasondid`` in the working directory).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import pickle
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy

import spans
from calibration import calibrate, speed_factors
from checks import compare_reference, compare_runs, read_output
from workloads import WORKLOADS, generate_inputs, write_run_config

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
REFERENCE_DIR = HERE / "reference"
WORK_DIR = HERE / ".work"

MIN_RUNS = 3
DEADLINE_S = 170.0
REFERENCE_SEED = 20201203

END_TO_END = {
    "setup_s": "s",
    "run_wall_s": "s",
    "tasks_per_s": "1/s",
    "peak_rss_mb": "MiB",
}
# On the report line only: the first two are 0 on some workloads; the
# measured_* times are setup_s and run_wall_s before the machine-speed scaling
# (see calibration.py), calibration_s the job passes they were scaled by;
# run_cpu_s, the CPU time of the run and its workers, tells computing from
# waiting.
REPORT_ONLY = {
    "replicates_per_s": "1/s",
    "task_fail_share": "ratio",
    "measured_setup_s": "s",
    "measured_run_wall_s": "s",
    "calibration_s": "s",
    "run_cpu_s": "s",
}

_S, _N, _R = "s", "count", "ratio"
PER_LAYER = {
    # name: (unit, better)
    "ingest.read_prices_s": (_S, "lower"),
    "ingest.rows_per_s": ("1/s", "higher"),
    "ingest.rows_matching_calls": (_N, "lower"),
    "ingest.rows_matching_s": (_S, "lower"),
    "calendar.from_csv_s": (_S, "lower"),
    "config.expand_tasks_s": (_S, "lower"),
    "panel.label_panel_s": (_S, "lower"),
    "panel.rows_labeled": (_N, "lower"),
    "panel.label_week_hit_ratio": (_R, "higher"),
    "panel.season_start_week_hit_ratio": (_R, "higher"),
    "transforms.standardize_s": (_S, "lower"),
    "transforms.volatility_s": (_S, "lower"),
    "transforms.restrict_s": (_S, "lower"),
    "transforms.rows_out": (_N, "lower"),
    "pipeline.prepare_rows_s": (_S, "lower"),
    "pipeline.tasks": (_N, "higher"),
    "pipeline.task_s_p50": (_S, "lower"),
    "pipeline.task_s_tail": (_S, "lower"),
    "pipeline.task_s_tail_pct": ("%", "higher"),
    "pipeline.task_s_tail_beyond": (_N, "higher"),
    "did.replicates": (_N, "higher"),
    "did.replicate_failures": (_N, "lower"),
    "did.replicate_ok_ratio": (_R, "higher"),
    "did.cell_means_calls": (_N, "lower"),
    "glm.fit_logistic_calls": (_N, "lower"),
    "glm.irls_iterations_mean": (_N, "lower"),
    "glm.irls_iterations_max": (_N, "lower"),
    "glm.fit_failures.SeparationError": (_N, "lower"),
    "glm.fit_failures.ConvergenceError": (_N, "lower"),
    "glm.fit_failures.RankError": (_N, "lower"),
    "glm.fit_failures.DegenerateOutcomeError": (_N, "lower"),
    "glm.pruned_columns": (_N, "lower"),
    "glm.prune_design_calls": (_N, "lower"),
    "glm.fit_ols_calls": (_N, "lower"),
    "cli.run_wall_s": (_S, "lower"),
    "cli.payload_bytes": ("B", "lower"),
    "cli.payload_bytes_total": ("B", "lower"),
    "cli.pool_overhead_s": (_S, "lower"),
    "cli.parallel_efficiency": (_R, "higher"),
    "cli.replicates_per_s": ("1/s", "higher"),
    "cli.task_fail_share": (_R, "lower"),
    "trace.wall_s": (_S, "lower"),
    "trace.untraced_wall_s": (_S, "lower"),
    "trace.overhead_s": (_S, "lower"),
    "trace.unattributed_s": (_S, "lower"),
    "trace.spans": (_N, "lower"),
    **{
        f"{layer}.self_s": (_S, "lower")
        for layer in spans.LAYERS
        if layer not in ("glm", "diagnostics")
    },
}
# Times of layers that some workload never calls: they read 0 on every run of
# that workload, so they go on the report line only.
LAYER_REPORT_ONLY = {
    "did.build_sample_s": _S,
    "did.ipw_point_s": _S,
    "did.ols_s": _S,
    "did.bootstrap_s": _S,
    "did.replicate_s": _S,
    "did.cell_means_s": _S,
    "glm.fit_logistic_s": _S,
    "glm.fit_s_mean": _S,
    "glm.prune_design_s": _S,
    "glm.fit_ols_s": _S,
    "diagnostics.pretrend_placebo_s": _S,
    "glm.self_s": _S,
    "diagnostics.self_s": _S,
}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


class Bench:
    """One invocation: its workload, seed, paths and deadline."""

    def __init__(self, workload, seed: int, root: Path):
        self.workload = workload
        self.seed = seed
        self.src = root / "src"
        self.started = time.perf_counter()
        self.work = WORK_DIR / f"{workload.name}-seed{seed}-{os.getpid()}"
        self.env = dict(os.environ, TMPDIR=str(self.work))
        self.problems: list[str] = []
        self.attempted = 0

    def remaining(self) -> float:
        left = DEADLINE_S - (time.perf_counter() - self.started)
        if left <= 1.0:
            raise BenchError("out of time before the benchmark finished")
        return left

    def prepare(self, name: str, seed: int, only_products=None):
        """Generate inputs under ``work/name``; returns (that dir, data dir, price rows)."""
        base = self.work / name
        data = base / "data"
        rows = generate_inputs(self.workload.panel, seed, data, only_products)
        return base, data, rows

    def cli_run(self, base: Path, data: Path, seed: int, workers: int, tag: str):
        """Run the workload's CLI command once in a fresh process."""
        config = base / f"{tag}.cfg"
        out_dir = base / f"out-{tag}"
        write_run_config(self.workload, config, data, out_dir, seed, workers)
        report = base / f"{tag}.json"
        argv = [
            sys.executable, str(CHILD), str(self.src), str(report),
            self.workload.command, "--config", str(config),
        ]
        # A session of its own, so that a timeout also stops the pool's workers.
        proc = subprocess.Popen(
            argv, cwd=self.work, env=self.env, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True, start_new_session=True,
        )
        try:
            _, stderr = proc.communicate(timeout=self.remaining())
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"CLI run {tag} did not finish before the deadline") from None
        if proc.returncode != 0:
            raise BenchError(f"CLI run {tag} crashed:\n{stderr[-2000:]}")
        result = json.loads(report.read_text())
        return result, self.collect(out_dir, result["exit_code"], tag)

    def collect(self, out_dir: Path, exit_code: int, tag: str):
        """Read a CLI run's output and check its exit code against its failed tasks."""
        output = read_output(self.workload.command, out_dir)
        self.attempted += output.n_tasks
        expected_code = 2 if output.n_failed else 0
        if exit_code != expected_code:
            self.problems.append(f"{tag}: exit code {exit_code}, expected {expected_code}")
        return output

    def check_same(self, base_output, other_output, what: str) -> None:
        self.problems += [f"{what}: {p}" for p in compare_runs(base_output, other_output)]

    def reference_check(self) -> None:
        """Slice at the reference seed, at 1 and 2 workers: identical bytes,
        and equal to the recorded table."""
        base, data, _ = self.prepare("reference", REFERENCE_SEED, self.workload.reference_products)
        _, one = self.cli_run(base, data, REFERENCE_SEED, 1, "w1")
        _, two = self.cli_run(base, data, REFERENCE_SEED, 2, "w2")
        self.check_same(one, two, "reference slice, 1 vs 2 workers")
        path = REFERENCE_DIR / f"{self.workload.name}.json"
        reference = json.loads(path.read_text())
        self.problems += [
            f"reference: {p}"
            for p in compare_reference(self.workload.command, one, reference)
        ]

    def environment(self, rows: int, n_tasks: int) -> dict:
        src_lines = sum(
            len(path.read_text().splitlines()) for path in sorted(self.src.rglob("*.py"))
        )
        return {
            "workload": self.workload.name,
            "seed": self.seed,
            "command": self.workload.command,
            "workers": self.workload.workers,
            "reps": self.workload.reps,
            "price_rows": rows,
            "tasks": n_tasks,
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "machine": platform.machine(),
            "src_lines": src_lines,
        }

    def finish(self, report: dict, metrics: dict[str, float], units: dict[str, str]) -> int:
        failed = len(self.problems)
        report["problems"] = self.problems
        results = WORK_DIR / "results"
        results.mkdir(parents=True, exist_ok=True)
        name = f"{self.workload.name}-seed{self.seed}-trace{report['trace']}.json"
        (results / name).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        for problem in self.problems:
            print(f"check failed: {problem}", file=sys.stderr)
        print(json.dumps({"report": report}, sort_keys=True))
        print(
            json.dumps(
                {
                    "correct": failed == 0,
                    "attempted": self.attempted,
                    "failed": failed,
                    "metrics": {
                        name: {"value": metrics[name], "unit": units[name]} for name in units
                    },
                }
            )
        )
        return 0 if failed == 0 else 1


def summary(values: list[float], unit: str) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {
        "value": statistics.median(values), "unit": unit, "samples": len(values),
        "q1": q1, "q3": q3,
    }


def replicates_attempted(output, reps: int) -> int:
    """Bootstrap replicates the run attempted: every task that reached its
    bootstrap ran all ``reps``, including those that then failed as degenerate."""
    reached = ("ok", "failed:BootstrapDegenerateError")
    return reps * sum(1 for s in output.statuses.values() if s in reached)


def timed_runs(bench: Bench, seconds: float) -> int:
    workload = bench.workload
    base, data, rows = bench.prepare("timed", bench.seed)
    runs = []
    outputs = []
    lengths = []  # wall time of each run and the job pass after it
    start = time.perf_counter()
    with ProcessPoolExecutor(workload.workers) as pool:
        job_seconds = [calibrate(pool, workload.workers)]
        while len(runs) < MIN_RUNS or (
            time.perf_counter() - start + statistics.median(lengths) <= seconds
        ):
            run_start = time.perf_counter()
            result, output = bench.cli_run(
                base, data, bench.seed, workload.workers, f"run{len(runs)}"
            )
            job_seconds.append(calibrate(pool, workload.workers))
            lengths.append(time.perf_counter() - run_start)
            runs.append(result)
            outputs.append(output)
    for i, output in enumerate(outputs[1:], start=1):
        bench.check_same(outputs[0], output, f"rerun {i} vs run 0")
    bench.reference_check()

    first = outputs[0]
    factors = speed_factors(job_seconds)
    walls = [r["wall_s"] * f for r, f in zip(runs, factors)]
    values = {
        "setup_s": [r["setup_s"] * f for r, f in zip(runs, factors)],
        "run_wall_s": walls,
        "tasks_per_s": [first.n_tasks / wall for wall in walls],
        "peak_rss_mb": [r["peak_rss_mb"] for r in runs],
        "measured_setup_s": [r["setup_s"] for r in runs],
        "measured_run_wall_s": [r["wall_s"] for r in runs],
        "calibration_s": job_seconds,
        "run_cpu_s": [r["cpu_s"] for r in runs],
        "task_fail_share": [first.n_failed / first.n_tasks] * len(runs),
    }
    if workload.reps:
        replicates = replicates_attempted(first, workload.reps)
        values["replicates_per_s"] = [replicates / wall for wall in walls]
    units = {**END_TO_END, **REPORT_ONLY}
    report = {
        "trace": 0,
        "environment": bench.environment(rows, first.n_tasks),
        "metrics": {name: summary(v, units[name]) for name, v in values.items()},
    }
    medians = {name: report["metrics"][name]["value"] for name in END_TO_END}
    return bench.finish(report, medians, END_TO_END)


def in_process_pass(bench: Bench, config_path: Path, out_dir: Path, tag: str, install):
    """Run the workload's CLI command in this process with the call sites
    ``install`` patches traced; returns (wall, output, tracer)."""
    import seasondid.cli as cli
    from seasondid import panel

    shutil.rmtree(out_dir, ignore_errors=True)
    # As in a fresh process.
    panel.label_week.cache_clear()
    panel.season_start_week.cache_clear()
    tracer = spans.Tracer()
    install(tracer)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            code = cli.main([bench.workload.command, "--config", str(config_path)])
            wall = time.perf_counter() - start
    finally:
        tracer.restore()
    return wall, bench.collect(out_dir, code, tag), tracer


def traced_run(bench: Bench, seconds: float) -> int:
    from seasondid import panel
    from seasondid.calendar import ProtectionCalendar
    from seasondid.config import RunConfig, expand_tasks
    from seasondid.ingest import read_prices

    workload = bench.workload
    base, data, rows = bench.prepare("traced", bench.seed)
    start = time.perf_counter()
    cli_result, cli_output = bench.cli_run(base, data, bench.seed, workload.workers, "cli")
    config_path = base / "in-process.cfg"
    out_dir = base / "out-in-process"
    write_run_config(workload, config_path, data, out_dir, bench.seed, 1)

    # Untraced and traced passes alternate, so that both see the same mix of
    # machine speed; the spans of the last traced pass are kept. An untraced
    # pass records only the per-task calls, for the task times.
    installs = {"untraced": spans.install_task_calls, "traced": spans.install}
    walls: dict[str, list[float]] = {"untraced": [], "traced": []}
    untraced_tasks = []
    passes_start = time.perf_counter()
    while True:
        pairs = len(walls["traced"])
        now = time.perf_counter()
        if pairs and now - start + (now - passes_start) / pairs > seconds:
            break
        for kind, install in installs.items():
            tag = f"{kind} in-process pass {pairs}"
            wall, output, tracer = in_process_pass(bench, config_path, out_dir, tag, install)
            walls[kind].append(wall)
            bench.check_same(cli_output, output, f"{tag} vs CLI run")
            if kind == "untraced":
                untraced_tasks.append(spans.task_seconds(tracer.spans))
        label_info = panel.label_week.cache_info()
        season_info = panel.season_start_week.cache_info()
    bench.reference_check()

    untraced_wall = statistics.median(walls["untraced"])
    task_seconds = [statistics.median(times) for times in zip(*untraced_tasks)]
    metrics = spans.layer_metrics(tracer.spans, walls["traced"][-1], task_seconds)
    replicates = replicates_attempted(cli_output, workload.reps)
    if metrics["did.replicates"] != replicates:
        bench.problems.append(
            f"traced replicates {metrics['did.replicates']} vs {replicates} from the CLI run"
        )
    metrics["panel.label_week_hit_ratio"] = _hit_ratio(label_info)
    metrics["panel.season_start_week_hit_ratio"] = _hit_ratio(season_info)
    metrics["trace.untraced_wall_s"] = untraced_wall
    metrics["trace.overhead_s"] = statistics.median(walls["traced"]) - untraced_wall

    busy = sum(task_seconds)
    cli_wall = cli_result["wall_s"]
    payload_bytes = 0
    if workload.command == "run" and workload.workers > 1:
        # What the CLI pickles for each task it sends to a worker.
        cfg = RunConfig.from_file(config_path)
        store, _ = read_prices(cfg.prices)
        cal = ProtectionCalendar.from_csv(cfg.calendar)
        task = expand_tasks(cfg, store=store)[0]
        payload_bytes = len(pickle.dumps((task, store, cal, cfg.methods, cfg.seed)))
    metrics["cli.run_wall_s"] = cli_wall
    metrics["cli.payload_bytes"] = payload_bytes
    metrics["cli.payload_bytes_total"] = payload_bytes * cli_output.n_tasks
    metrics["cli.pool_overhead_s"] = cli_wall - busy / workload.workers
    metrics["cli.parallel_efficiency"] = busy / (workload.workers * cli_wall)
    metrics["cli.replicates_per_s"] = replicates / cli_wall
    metrics["cli.task_fail_share"] = cli_output.n_failed / cli_output.n_tasks

    results = WORK_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    spans.write_spans(tracer.spans, results / f"{workload.name}-seed{bench.seed}-spans.jsonl")
    units = {name: unit for name, (unit, _) in PER_LAYER.items()}
    reported = {**units, **LAYER_REPORT_ONLY}
    report = {
        "trace": 1,
        "environment": bench.environment(rows, cli_output.n_tasks),
        "metrics": {name: {"value": metrics[name], "unit": reported[name]} for name in reported},
    }
    return bench.finish(report, metrics, units)


def _hit_ratio(info) -> float:
    calls = info.hits + info.misses
    return info.hits / calls if calls else 0.0


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_program(root: Path) -> None:
    """Import seasondid from ``root/src`` and nowhere else."""
    package = root / "src" / "seasondid"
    if not (package / "__init__.py").is_file():
        raise BenchError(f"no seasondid sources under {root / 'src'}; run from a checkout")
    sys.path.insert(0, str(root / "src"))
    import seasondid

    if Path(seasondid.__file__).resolve().parent != package.resolve():
        raise BenchError(f"imported seasondid from {seasondid.__file__}, not {package}")


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    try:
        load_program(root)
        if args.workload not in WORKLOADS:
            raise BenchError(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
        bench = Bench(WORKLOADS[args.workload], args.seed, root)
        shutil.rmtree(bench.work, ignore_errors=True)
        bench.work.mkdir(parents=True)
        try:
            if args.trace:
                return traced_run(bench, args.seconds)
            return timed_runs(bench, args.seconds)
        finally:
            shutil.rmtree(bench.work, ignore_errors=True)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
