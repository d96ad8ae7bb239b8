"""Per-task orchestration: raw panel -> transformed rows -> estimates.

Control observations are placed on the treated product's protection
timeline: their phase labels and seasons come from the treated product's
window, since the policy whose effect is estimated is the treated market's.

Rows travel as ``PanelRows`` arrays from the store to ``build_sample``.
A batch is many tasks over few series. ``prepare_outcome_rows`` takes a
series' labelled and outcome rows from two memos keyed by store, calendar,
``SeriesKey`` and window product (and outcome), each bounded at ``_MEMO_SIZE``
entries and returning read-only arrays no task can change; a call that
raises leaves nothing behind. Tasks run in key order, in contiguous groups
that share a treated series (``cli._task_groups``), each group in one
process, so each series is labelled and transformed once per group.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass

from .calendar import ProtectionCalendar
from .did import (
    METHODS,
    EffectEstimate,
    EstimationTask,
    bootstrap_se,
    build_sample,
    estimate_ipw_did,
    estimate_ols_did,
)
from .errors import ConfigError
from .ingest import PanelStore
from .panel import Outcome, PanelRows, SeriesKey, apply_boundary_exclusion, label_panel
from .transforms import (
    compute_volatility,
    restrict_to_production_weeks,
    standardize_prices,
)

# Holds the rows of one (product, quality)'s treated series and its control
# series across the tasks that share them. Unbounded, a batch keeps every
# series' rows to its end: peak RSS of a 54,000-row, 320-task run went from
# 71 to 102 MiB.
_MEMO_SIZE = 8


def task_seed(master_seed: int, key: str) -> int:
    """Stable per-task seed: independent of task order and worker count."""
    digest = hashlib.sha256(f"{master_seed}:{key}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1  # keep it positive


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _labeled_rows(
    store: PanelStore, calendar: ProtectionCalendar, key: SeriesKey, window_product: str
) -> PanelRows:
    return label_panel(store.rows_matching(key), calendar, window_product=window_product)


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _outcome_rows(
    store: PanelStore,
    calendar: ProtectionCalendar,
    key: SeriesKey,
    window_product: str,
    outcome: Outcome,
) -> PanelRows:
    return outcome_rows(_labeled_rows(store, calendar, key, window_product), outcome)


def outcome_rows(labeled: PanelRows, outcome: Outcome) -> PanelRows:
    """Labelled rows on the ``outcome`` scale: standardized prices without
    Boundary weeks, or volatility."""
    if outcome is Outcome.LEVEL:
        return apply_boundary_exclusion(standardize_prices(labeled))
    return compute_volatility(labeled)


def prepare_outcome_rows(
    task: EstimationTask,
    store: PanelStore,
    calendar: ProtectionCalendar,
) -> tuple[PanelRows, PanelRows]:
    """Transformed (treated, control) outcome rows for one task.

    Pipeline order: label phases/seasons, transform to the outcome scale,
    drop Boundary weeks, then restrict control rows to treated production
    weeks. Standardization therefore sees every observed week of a season.
    Both series must have price data before either is labelled.
    """
    for side, key in (("treated", task.treated), ("control", task.control)):
        if not store.has_rows(key):
            raise ConfigError(f"no price data for {side} series {key}")

    window_product = task.treated.product
    treated_rows = _outcome_rows(store, calendar, task.treated, window_product, task.outcome)
    control_rows = _outcome_rows(store, calendar, task.control, window_product, task.outcome)
    return treated_rows, restrict_to_production_weeks(control_rows, treated_rows)


@dataclass(frozen=True)
class TaskResult:
    task: EstimationTask
    estimates: tuple[EffectEstimate, ...]


def run_task(
    task: EstimationTask,
    store: PanelStore,
    calendar: ProtectionCalendar,
    methods: tuple[str, ...] = ("ipw",),
) -> TaskResult:
    """Estimate one task with the requested methods.

    The IPW estimate carries bootstrap inference (requires ``task.seed``);
    the OLS estimate carries classical standard errors and reps=0.
    """
    unknown = [m for m in methods if m not in METHODS]
    if unknown:
        raise ConfigError(f"unknown methods {unknown}; expected subset of {METHODS}")
    if "ipw" in methods and task.bootstrap_reps > 0 and task.seed is None:
        raise ConfigError("a seed is required for bootstrap inference")
    treated_rows, control_rows = prepare_outcome_rows(task, store, calendar)
    sample = build_sample(task, treated_rows, control_rows)
    ipw = functools.partial(
        estimate_ipw_did, trim_threshold=task.trim_threshold, trim_treated=task.trim_treated
    )
    estimates = []
    for method in methods:
        if method == "ols":
            estimates.append(estimate_ols_did(sample))
        elif task.bootstrap_reps > 0:
            estimates.append(bootstrap_se(sample, ipw, task.bootstrap_reps, task.seed))
        else:
            estimates.append(ipw(sample.cell_table()))
    return TaskResult(task=task, estimates=tuple(estimates))
