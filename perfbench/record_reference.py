"""Record the reference tables the benchmark's reference check compares with.

Usage, from the root of a checkout: ``python3 perfbench/record_reference.py``

For each workload this generates its reference slice at ``REFERENCE_SEED``,
runs the CLI once at one worker, and writes ``reference/<workload>.json``.
Re-record only when a change is meant to alter results, and say why.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import run


def main() -> int:
    run.load_program(Path.cwd())
    from checks import reference_table
    from workloads import WORKLOADS

    for workload in WORKLOADS.values():
        bench = run.Bench(workload, run.REFERENCE_SEED, Path.cwd())
        shutil.rmtree(bench.work, ignore_errors=True)
        bench.work.mkdir(parents=True)
        try:
            base, data, _ = bench.prepare(
                "reference", run.REFERENCE_SEED, workload.reference_products
            )
            _, output = bench.cli_run(base, data, run.REFERENCE_SEED, 1, "w1")
        finally:
            shutil.rmtree(bench.work, ignore_errors=True)
        table = {
            "workload": workload.name,
            "seed": run.REFERENCE_SEED,
            "products": list(workload.reference_products),
            **reference_table(workload.command, output),
        }
        path = run.REFERENCE_DIR / f"{workload.name}.json"
        path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path} ({len(table['tasks'])} tasks, {len(table['rows'])} rows)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
