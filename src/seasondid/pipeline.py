"""Per-task orchestration: raw panel -> transformed rows -> estimates.

Control observations are placed on the treated product's protection
timeline: their phase labels and seasons come from the treated product's
window, since the policy whose effect is estimated is the treated market's.
"""

from __future__ import annotations

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
    with_inference,
)
from .errors import ConfigError
from .ingest import PanelStore
from .panel import Outcome, apply_boundary_exclusion, label_panel
from .transforms import (
    OutcomeObservation,
    compute_volatility,
    restrict_to_production_weeks,
    standardize_prices,
)


def task_seed(master_seed: int, key: str) -> int:
    """Stable per-task seed: independent of task order and worker count."""
    digest = hashlib.sha256(f"{master_seed}:{key}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1  # keep it positive


def prepare_outcome_rows(
    task: EstimationTask,
    store: PanelStore,
    calendar: ProtectionCalendar,
) -> tuple[list[OutcomeObservation], list[OutcomeObservation]]:
    """Transformed (treated, control) outcome rows for one task.

    Pipeline order: label phases/seasons, transform to the outcome scale,
    drop Boundary weeks, then restrict control rows to treated production
    weeks. Standardization therefore sees every observed week of a season.
    """
    treated_raw = store.rows_matching(
        task.treated.product, task.treated.quality, task.treated.country, task.treated.region
    )
    control_raw = store.rows_matching(
        task.control.product, task.control.quality, task.control.country, task.control.region
    )
    if not treated_raw:
        raise ConfigError(f"no price data for treated series {task.treated}")
    if not control_raw:
        raise ConfigError(f"no price data for control series {task.control}")

    window_product = task.treated.product
    treated_labeled = label_panel(treated_raw, calendar, window_product=window_product)
    control_labeled = label_panel(control_raw, calendar, window_product=window_product)

    if task.outcome is Outcome.LEVEL:
        treated_rows = apply_boundary_exclusion(standardize_prices(treated_labeled))
        control_rows = apply_boundary_exclusion(standardize_prices(control_labeled))
    else:
        treated_rows = compute_volatility(treated_labeled)
        control_rows = compute_volatility(control_labeled)

    control_rows = restrict_to_production_weeks(
        control_rows,
        treated_rows,
        product_map={task.control.product: task.treated.product},
    )
    return treated_rows, control_rows


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
    treated_rows, control_rows = prepare_outcome_rows(task, store, calendar)
    sample = build_sample(task, treated_rows, control_rows)
    estimates = []
    for method in methods:
        if method == "ipw":
            point = estimate_ipw_did(sample, task.trim_threshold, task.trim_treated)
            if task.bootstrap_reps > 0:
                if task.seed is None:
                    raise ConfigError("a seed is required for bootstrap inference")
                boot = bootstrap_se(
                    sample,
                    lambda s: estimate_ipw_did(
                        s, task.trim_threshold, task.trim_treated
                    ).atet,
                    task.bootstrap_reps,
                    task.seed,
                )
                point = with_inference(point, boot, task.seed)
            estimates.append(point)
        else:
            ols = estimate_ols_did(sample)
            estimates.append(ols)
    return TaskResult(task=task, estimates=tuple(estimates))
