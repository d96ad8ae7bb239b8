"""Alternating parent/change benchmark pairs, with a comparison of outputs.

Usage, from the root of a checkout::

    python3 tools/pairs.py --parent HEAD~1 --change . --workload wide-panel \\
        --seeds 11,29 --pairs 10 --seconds 35 --out BENCH_<pr>.json

``--parent`` and ``--change`` each name a git revision of this repository or
a directory that holds a tree (``src/`` and ``perfbench/``). Each side is
exported to a fresh directory, ``parent`` and ``change`` under ``--work``
(names of equal length), and byte-compiled there, so both sides start in
the same bytecode-cache state. Git runs only on the local repository.

For each workload and seed, ``--pairs`` pairs of ``perfbench/run.py --trace
0`` runs alternate between the sides, the side that goes first swapping
from pair to pair; every run keeps ``run.py``'s own checks and reports
``correct``. Then both sides' CLIs run the workload's command on the same
generated inputs at 1 and 2 workers, and their tables and manifests (the
manifests without their paths) are compared byte for byte.

The record written to ``--out`` holds, per workload, seed and metric, both
sides' medians and quartiles over the pairs, the number of pairs the change
won and whether the change's median gain exceeds the parent's interquartile
range; every run's ``correct`` and metrics; the output comparison; both
trees' ``src/`` line counts; and the machine, Python and numpy versions.
The exit code is 0 when every run was correct and every output equal.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
# Which way each compared metric is better; the end-to-end ones come from
# BENCHMARK.json.
REPORTED = {
    "run_cpu_s": "lower",
    "measured_setup_s": "lower",
    "measured_run_wall_s": "lower",
    "replicates_per_s": "higher",
}
# Writes a workload's inputs and one run config per side and worker count,
# with perfbench's own generator; prints the command and its output files.
PREPARE = """
import json, sys
from pathlib import Path
sys.path[:0] = ["perfbench", "src"]
from checks import OUTPUT_FILES
from workloads import WORKLOADS, generate_inputs, write_run_config
name, seed, base = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
workload = WORKLOADS[name]
generate_inputs(workload.panel, seed, base / "data")
for side in ("parent", "change"):
    for workers in (1, 2):
        tag = f"{side}-w{workers}"
        write_run_config(workload, base / f"{tag}.cfg", base / "data", base / tag, seed, workers)
print(json.dumps([workload.command, OUTPUT_FILES[workload.command]]))
"""


def export(source: str, dest: Path) -> dict:
    """Put the tree ``source`` names (a directory or a git revision) at
    ``dest``, byte-compiled; returns where it came from."""
    if Path(source).is_dir():
        ignore = shutil.ignore_patterns(".git", "__pycache__", ".work", ".hypothesis",
                                        ".pytest_cache")
        shutil.copytree(source, dest, ignore=ignore)
        origin = {"source": source, "revision": None}
    else:
        git = ["git", "-C", str(ROOT)]
        revision = subprocess.run(git + ["rev-parse", "--verify", f"{source}^{{commit}}"],
                                  check=True, capture_output=True, text=True).stdout.strip()
        archive = subprocess.run(git + ["archive", "--format=tar", revision],
                                 check=True, capture_output=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(dest)
        origin = {"source": source, "revision": revision}
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "perfbench"],
                   cwd=dest, check=True, stdout=subprocess.DEVNULL)
    lines = sum(len(path.read_text().splitlines()) for path in (dest / "src").rglob("*.py"))
    return {**origin, "dir": dest.name, "src_lines": lines}


def bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``run.py --trace 0`` child run in ``tree``: its exit code,
    ``correct``, failed checks, metric medians and environment."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        raise SystemExit(f"{tree}: run.py exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result, report = json.loads(lines[-1]), json.loads(lines[-2])["report"]
    return {
        "exit_code": proc.returncode,
        "correct": result["correct"],
        "failed": result["failed"],
        "metrics": {name: metric["value"] for name, metric in report["metrics"].items()},
        "environment": report["environment"],
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def compare_metric(parent: list[float], change: list[float], better: str) -> dict:
    """Both sides' median and quartiles, the pairs the change won, and
    whether its median gain exceeds the parent's interquartile range."""
    sign = 1.0 if better == "lower" else -1.0
    (p1, p2, p3), (c1, c2, c3) = quartiles(parent), quartiles(change)
    return {
        "better": better,
        "parent": {"median": p2, "q1": p1, "q3": p3},
        "change": {"median": c2, "q1": c1, "q3": c3},
        "wins": sum(sign * (p - c) > 0 for p, c in zip(parent, change)),
        "pairs": len(parent),
        "median_gain": sign * (p2 - c2),
        "parent_iqr": p3 - p1,
        "gain_exceeds_parent_iqr": sign * (p2 - c2) > p3 - p1,
    }


def compare_outputs(trees: dict[str, Path], workload: str, seed: int, base: Path) -> dict:
    """Both sides' CLI outputs on the same inputs at 1 and 2 workers: per
    worker count, whether each output file and the exit codes are equal."""
    prepared = subprocess.run([sys.executable, "-c", PREPARE, workload, str(seed), str(base)],
                              cwd=trees["parent"], check=True, capture_output=True, text=True)
    command, files = json.loads(prepared.stdout.strip().splitlines()[-1])
    comparison = {}
    for workers in (1, 2):
        outputs = {}
        for side, tree in trees.items():
            tag = f"{side}-w{workers}"
            env = dict(os.environ, PYTHONPATH=str(tree / "src"))
            proc = subprocess.run(
                [sys.executable, "-m", "seasondid.cli", command, "--config",
                 str(base / f"{tag}.cfg")],
                cwd=tree, env=env, capture_output=True, text=True,
            )
            # a manifest names the output directory, whose name holds the side
            outputs[side] = {"exit_code": proc.returncode, **{
                name: (base / tag / name).read_bytes().replace(str(base / tag).encode(), b"<out>")
                if (base / tag / name).exists() else None
                for name in files
            }}
        comparison[f"workers_{workers}"] = {
            name: outputs["parent"][name] is not None
            and outputs["parent"][name] == outputs["change"][name]
            for name in ("exit_code", *files)
        }
    return comparison


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision or directory")
    parser.add_argument("--change", required=True, help="git revision or directory")
    parser.add_argument("--workload", required=True, help="workload name(s), comma-separated")
    parser.add_argument("--seeds", required=True, help="comma-separated seeds")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0, help="run.py --seconds")
    parser.add_argument("--out", required=True, help="record to write, e.g. BENCH_<pr>.json")
    parser.add_argument("--work", help="directory for the trees and outputs (default: a "
                        "temporary one, removed at the end)")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    seeds = [int(seed) for seed in args.seeds.split(",")]
    work = Path(args.work or tempfile.mkdtemp(prefix="pairs-")).resolve()
    work.mkdir(parents=True, exist_ok=True)
    try:
        trees = {side: work / side for side in SIDES}
        origins = {side: export(getattr(args, side), trees[side]) for side in SIDES}
        benchmark = json.loads((trees["change"] / "BENCHMARK.json").read_text())
        directions = {m["name"]: m["better"] for m in benchmark["end_to_end"]} | REPORTED
        record: dict = {"pairs": args.pairs, "seconds": args.seconds, "trees": origins,
                        "workloads": {}}
        for workload in args.workload.split(","):
            for seed in seeds:
                runs = []
                for pair in range(args.pairs):
                    order = SIDES if pair % 2 == 0 else SIDES[::-1]
                    for side in order:
                        run = bench(trees[side], workload, seed, args.seconds)
                        record.setdefault("environment", run.pop("environment"))
                        runs.append({"pair": pair, "side": side, **run})
                        print(f"{workload} seed {seed} pair {pair} {side}: "
                              f"correct {run['correct']}, run_wall_s "
                              f"{run['metrics']['run_wall_s']:.4f}", file=sys.stderr)
                values = {side: [r["metrics"] for r in runs if r["side"] == side]
                          for side in SIDES}
                metrics = {
                    name: compare_metric([m[name] for m in values["parent"]],
                                         [m[name] for m in values["change"]], better)
                    for name, better in directions.items() if name in values["parent"][0]
                }
                outputs = compare_outputs(trees, workload, seed, work / f"{workload}-{seed}")
                record["workloads"].setdefault(workload, {})[str(seed)] = {
                    "metrics": metrics, "outputs": outputs, "runs": runs,
                }
        environment = record.pop("environment")
        record["machine"] = {
            "machine": platform.machine(), "nproc": os.cpu_count(),
            "python": environment["python"], "numpy": environment["numpy"],
        }
        results = [seed for workload in record["workloads"].values() for seed in workload.values()]
        record["all_correct"] = all(run["correct"] for r in results for run in r["runs"])
        record["outputs_equal"] = all(
            equal for r in results for files in r["outputs"].values() for equal in files.values()
        )
        Path(args.out).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    finally:
        if not args.work:
            shutil.rmtree(work, ignore_errors=True)
    return 0 if record["all_correct"] and record["outputs_equal"] else 1


if __name__ == "__main__":
    sys.exit(main())
