"""Correctness checks on the CLI's outputs.

* Byte check: ``effects.csv`` (``run``) or ``pretrends.csv`` (``pretrend``)
  must be byte-identical between reruns and between worker counts.
* Reference check: a slice of each workload, generated at a fixed seed, is
  compared with a table recorded from this repository's code, keyed by
  (task key, method). Status class and exception type, the cell counts,
  ``trimmed`` (``seasons_used`` for pretrend) and ``reps`` must match
  exactly; ``atet``, ``se`` and ``p`` within ``ATOL + RTOL * |reference|``.

Every mismatching task counts as one failed operation.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

ATOL = 1e-9
RTOL = 1e-9
FLOAT_FIELDS = ("atet", "se", "p")
EXACT_FIELDS = {
    "run": ("n11", "n10", "n01", "n00", "trimmed", "reps"),
    "pretrend": ("n11", "n10", "n01", "n00", "seasons_used", "reps"),
}
OUTPUT_FILES = {
    "run": ("effects.csv", "manifest.json"),
    "pretrend": ("pretrends.csv", "pretrend_manifest.json"),
}


@dataclass(frozen=True)
class RunOutput:
    """What one CLI run wrote: the table's bytes, each task's status class,
    and its rows keyed by ``<product>|<quality>|<control>|<outcome>|<method>``."""

    table_bytes: bytes
    statuses: dict[str, str]
    rows: dict[str, dict[str, str]]

    @property
    def n_tasks(self) -> int:
        return len(self.statuses)

    @property
    def n_failed(self) -> int:
        return sum(1 for s in self.statuses.values() if s.startswith("failed"))


def status_class(status: str) -> str:
    """``ok``, ``infeasible:<reason>`` or ``failed:<exception type>``."""
    kind, _, detail = status.partition(": ")
    if kind == "ok":
        return "ok"
    return f"{kind}:{detail.split(':', 1)[0].strip()}"


def read_output(command: str, out_dir: Path) -> RunOutput:
    table_name, manifest_name = OUTPUT_FILES[command]
    table = (out_dir / table_name).read_bytes()
    manifest = json.loads((out_dir / manifest_name).read_text())
    statuses = {t["task"]: status_class(t["status"]) for t in manifest["tasks"]}
    rows = {}
    for record in csv.DictReader(table.decode().splitlines()):
        method = record.get("method", "means")
        key = "|".join(
            (record["product"], record["quality"], record["control_country"],
             record["outcome"], method)
        )
        rows[key] = record
    return RunOutput(table, statuses, rows)


def compare_runs(base: RunOutput, other: RunOutput) -> list[str]:
    """Differences between two runs that must be byte-identical."""
    problems = [
        f"task {key}: status {base.statuses.get(key)} vs {other.statuses.get(key)}"
        for key in sorted(set(base.statuses) | set(other.statuses))
        if base.statuses.get(key) != other.statuses.get(key)
    ]
    problems += [
        f"row {key}: {base.rows.get(key)} vs {other.rows.get(key)}"
        for key in sorted(set(base.rows) | set(other.rows))
        if base.rows.get(key) != other.rows.get(key)
    ]
    if not problems and base.table_bytes != other.table_bytes:
        problems.append("tables differ in bytes but not in parsed rows")
    return problems


def reference_table(command: str, output: RunOutput) -> dict:
    """The parts of a run's output that the reference check compares."""
    keep = FLOAT_FIELDS + EXACT_FIELDS[command]
    return {
        "tasks": dict(sorted(output.statuses.items())),
        "rows": {
            key: {name: record[name] for name in keep}
            for key, record in sorted(output.rows.items())
        },
    }


def _close(value: str, expected: str) -> bool:
    a, b = float(value), float(expected)
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= ATOL + RTOL * abs(b)


def compare_reference(command: str, output: RunOutput, reference: dict) -> list[str]:
    """Differences between a run and its recorded reference table."""
    actual = reference_table(command, output)
    problems = []
    for key in sorted(set(actual["tasks"]) | set(reference["tasks"])):
        got, want = actual["tasks"].get(key), reference["tasks"].get(key)
        if got != want:
            problems.append(f"task {key}: status {got}, reference {want}")
    for key in sorted(set(actual["rows"]) | set(reference["rows"])):
        got, want = actual["rows"].get(key), reference["rows"].get(key)
        if got is None or want is None:
            problems.append(f"row {key}: {'missing' if got is None else 'not in reference'}")
            continue
        bad = [n for n in EXACT_FIELDS[command] if got[n] != want[n]]
        bad += [n for n in FLOAT_FIELDS if not _close(got[n], want[n])]
        if bad:
            problems.append(
                f"row {key}: " + ", ".join(f"{n} {got[n]} vs {want[n]}" for n in bad)
            )
    return problems
