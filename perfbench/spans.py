"""Outside-in tracing: spans recorded around calls into seasondid's modules.

Each public function is wrapped at the module attribute its caller looks up
(``seasondid.cli.run_task`` for the calls the CLI makes,
``seasondid.did.fit_logistic`` for those ``propensity_report`` makes,
``seasondid.pipeline.bootstrap_se`` for those ``run_task`` makes, ...). A span
holds its name, start, end, parent, task id and, where the call raised, the
exception type. The CLI's per-task calls set the task id from their task
argument. Spans stay in memory; ``write_spans`` saves them at the end.

Span names are ``<layer>.<function>``; a layer's self time is the time its
spans cover minus the part of that time their child spans cover.
"""

from __future__ import annotations

import inspect
import json
import math
import statistics
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable

LAYERS = (
    "ingest", "calendar", "config", "panel", "transforms", "pipeline", "did", "glm",
    "diagnostics",
)
GLM_ERRORS = ("SeparationError", "ConvergenceError", "RankError", "DegenerateOutcomeError")
ESTIMATORS = ("did.estimate_ipw_did", "did.cell_means_did")


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    task: str | None
    error: str | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """Records nested spans on one thread and undoes its patches on ``restore``."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.task: str | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(
        self, name: str, fn: Callable, attrs: Callable | None = None, per_task: bool = False
    ) -> Callable:
        """``fn`` recording a span per call; ``attrs(result)`` adds facts.
        With ``per_task``, the first argument is a task whose key becomes the
        task id of this span and of the spans after it."""

        def traced(*args, **kwargs):
            if per_task:
                self.task = args[0].key()
            span = Span(
                id=len(self.spans), name=name, start=0.0, end=0.0,
                parent=self._stack[-1] if self._stack else None, task=self.task,
            )
            self.spans.append(span)
            self._stack.append(span.id)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.end = time.perf_counter()
                span.error = type(exc).__name__
                raise
            else:
                span.end = time.perf_counter()
                if attrs is not None:
                    span.attrs = attrs(result)
                return result
            finally:
                self._stack.pop()

        return traced

    def patch(
        self,
        owner: object,
        attribute: str,
        name: str,
        attrs: Callable | None = None,
        per_task: bool = False,
    ):
        # The static attribute is put back, so a classmethod stays one.
        self._patches.append((owner, attribute, inspect.getattr_static(owner, attribute)))
        setattr(owner, attribute, self.wrap(name, getattr(owner, attribute), attrs, per_task))

    def restore(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)


# The calls the CLI makes once per task, as (attribute of seasondid.cli, span name).
TASK_CALLS = (
    ("run_task", "pipeline.run_task"),
    ("prepare_outcome_rows", "pipeline.prepare_outcome_rows"),
    ("pretrend_placebo", "diagnostics.pretrend_placebo"),
)


def install_task_calls(tracer: Tracer) -> None:
    """Patch only the CLI's per-task calls: task times for a few spans a task."""
    import seasondid.cli as cli

    for attribute, name in TASK_CALLS:
        tracer.patch(cli, attribute, name, per_task=True)


def install(tracer: Tracer) -> None:
    """Patch every traced call site in seasondid."""
    import seasondid.cli as cli
    import seasondid.diagnostics as diagnostics
    import seasondid.did as did
    import seasondid.glm as glm
    import seasondid.ingest as ingest
    import seasondid.pipeline as pipeline

    def rows(result) -> dict:
        return {"rows": len(result)}

    tracer.patch(cli, "read_prices", "ingest.read_prices", lambda r: {"rows": r[1].rows_kept})
    tracer.patch(cli.ProtectionCalendar, "from_csv", "calendar.from_csv")
    tracer.patch(cli, "expand_tasks", "config.expand_tasks")
    install_task_calls(tracer)
    tracer.patch(ingest.PanelStore, "rows_matching", "ingest.rows_matching")
    tracer.patch(pipeline, "prepare_outcome_rows", "pipeline.prepare_outcome_rows")
    tracer.patch(pipeline, "label_panel", "panel.label_panel", rows)
    tracer.patch(pipeline, "apply_boundary_exclusion", "panel.apply_boundary_exclusion")
    tracer.patch(pipeline, "standardize_prices", "transforms.standardize_prices", rows)
    tracer.patch(pipeline, "compute_volatility", "transforms.compute_volatility", rows)
    tracer.patch(
        pipeline, "restrict_to_production_weeks", "transforms.restrict_to_production_weeks"
    )
    tracer.patch(pipeline, "build_sample", "did.build_sample")
    tracer.patch(pipeline, "estimate_ipw_did", "did.estimate_ipw_did")
    tracer.patch(pipeline, "estimate_ols_did", "did.estimate_ols_did")
    tracer.patch(pipeline, "bootstrap_se", "did.bootstrap_se")
    tracer.patch(diagnostics, "bootstrap_se", "did.bootstrap_se")
    tracer.patch(diagnostics, "cell_means_did", "did.cell_means_did")
    tracer.patch(did, "fit_logistic", "glm.fit_logistic", lambda r: {"iterations": r.iterations})
    tracer.patch(did, "fit_ols", "glm.fit_ols")
    tracer.patch(glm, "prune_design", "glm.prune_design", lambda r: {"dropped": len(r[1])})


def write_spans(spans: list[Span], path: Path) -> None:
    with path.open("w") as handle:
        for span in spans:
            handle.write(json.dumps(asdict(span), sort_keys=True) + "\n")


def covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total = 0.0
    end = -math.inf
    for lo, hi in sorted(intervals):
        lo = max(lo, end)
        if hi > lo:
            total += hi - lo
            end = hi
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = {}
    for span in spans:
        inside = [
            (max(lo, span.start), min(hi, span.end)) for lo, hi in children.get(span.id, ())
        ]
        out[span.id] = span.duration - covered(inside)
    return out


def tail(values: list[float], min_beyond: int = 10) -> tuple[float, int, int]:
    """(value, percentile, count beyond) at the highest whole percentile with
    at least ``min_beyond`` values above its rank; the maximum if there are
    too few values."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= min_beyond:
        return ordered[-1], 100, 0
    percentile = (100 * (n - min_beyond)) // n
    rank = math.ceil(percentile * n / 100)
    return ordered[rank - 1], percentile, n - rank


def task_seconds(spans: list[Span]) -> list[float]:
    """Time of each task: the top-level spans with its task id, in task order."""
    per_task: dict[str, float] = {}
    for span in spans:
        if span.parent is None and span.task is not None:
            per_task[span.task] = per_task.get(span.task, 0.0) + span.duration
    return list(per_task.values())


def layer_metrics(spans: list[Span], wall: float, tasks: list[float]) -> dict[str, float]:
    """Per-layer metrics of one traced pass that took ``wall`` seconds;
    ``tasks`` are the task times to summarise."""
    by_name: dict[str, list[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def calls(name: str) -> list[Span]:
        return by_name.get(name, [])

    def busy(name: str) -> float:
        return sum(s.duration for s in calls(name))

    m: dict[str, float] = {}
    own = self_times(spans)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(own[s.id] for s in spans if s.layer == layer)
    top_level = sum(s.duration for s in spans if s.parent is None)
    m["trace.wall_s"] = wall
    m["trace.unattributed_s"] = wall - top_level
    m["trace.spans"] = len(spans)

    read = calls("ingest.read_prices")
    m["ingest.read_prices_s"] = busy("ingest.read_prices")
    rows_read = sum(s.attrs.get("rows", 0) for s in read)
    m["ingest.rows_per_s"] = rows_read / m["ingest.read_prices_s"] if read else 0.0
    m["ingest.rows_matching_calls"] = len(calls("ingest.rows_matching"))
    m["ingest.rows_matching_s"] = busy("ingest.rows_matching")
    m["calendar.from_csv_s"] = busy("calendar.from_csv")
    m["config.expand_tasks_s"] = busy("config.expand_tasks")

    m["panel.label_panel_s"] = busy("panel.label_panel")
    m["panel.rows_labeled"] = sum(s.attrs.get("rows", 0) for s in calls("panel.label_panel"))
    m["transforms.standardize_s"] = busy("transforms.standardize_prices")
    m["transforms.volatility_s"] = busy("transforms.compute_volatility")
    m["transforms.restrict_s"] = busy("transforms.restrict_to_production_weeks")
    m["transforms.rows_out"] = sum(
        s.attrs.get("rows", 0)
        for name in ("transforms.standardize_prices", "transforms.compute_volatility")
        for s in calls(name)
    )

    m["pipeline.prepare_rows_s"] = busy("pipeline.prepare_outcome_rows")
    m["pipeline.tasks"] = len(tasks)
    m["pipeline.task_s_p50"] = statistics.median(tasks) if tasks else 0.0
    value, percentile, beyond = tail(tasks) if tasks else (0.0, 0, 0)
    m["pipeline.task_s_tail"] = value
    m["pipeline.task_s_tail_pct"] = percentile
    m["pipeline.task_s_tail_beyond"] = beyond

    boot_ids = {s.id for s in calls("did.bootstrap_se")}
    point_ipw = [s for s in calls("did.estimate_ipw_did") if s.parent not in boot_ids]
    replicates = []
    for boot_id in sorted(boot_ids):
        estimates = [s for s in spans if s.parent == boot_id and s.name in ESTIMATORS]
        replicates += estimates[1:]  # the first call re-estimates the point
    m["did.build_sample_s"] = busy("did.build_sample")
    m["did.ipw_point_s"] = sum(s.duration for s in point_ipw)
    m["did.ols_s"] = busy("did.estimate_ols_did")
    m["did.bootstrap_s"] = busy("did.bootstrap_se")
    m["did.replicates"] = len(replicates)
    m["did.replicate_failures"] = sum(1 for s in replicates if s.error)
    m["did.replicate_s"] = (
        sum(s.duration for s in replicates) / len(replicates) if replicates else 0.0
    )
    m["did.replicate_ok_ratio"] = (
        1.0 - m["did.replicate_failures"] / len(replicates) if replicates else 0.0
    )
    m["did.cell_means_calls"] = len(calls("did.cell_means_did"))
    m["did.cell_means_s"] = busy("did.cell_means_did")

    fits = calls("glm.fit_logistic")
    iterations = [s.attrs["iterations"] for s in fits if "iterations" in s.attrs]
    m["glm.fit_logistic_calls"] = len(fits)
    m["glm.fit_logistic_s"] = busy("glm.fit_logistic")
    m["glm.fit_s_mean"] = m["glm.fit_logistic_s"] / len(fits) if fits else 0.0
    m["glm.irls_iterations_mean"] = statistics.fmean(iterations) if iterations else 0.0
    m["glm.irls_iterations_max"] = max(iterations, default=0)
    for error in GLM_ERRORS:
        m[f"glm.fit_failures.{error}"] = sum(1 for s in fits if s.error == error)
    m["glm.pruned_columns"] = sum(s.attrs.get("dropped", 0) for s in calls("glm.prune_design"))
    m["glm.prune_design_calls"] = len(calls("glm.prune_design"))
    m["glm.prune_design_s"] = busy("glm.prune_design")
    m["glm.fit_ols_calls"] = len(calls("glm.fit_ols"))
    m["glm.fit_ols_s"] = busy("glm.fit_ols")

    m["diagnostics.pretrend_placebo_s"] = busy("diagnostics.pretrend_placebo")
    return m
