"""Per-task orchestration: raw panel -> transformed rows -> estimates.

Control observations are placed on the treated product's protection
timeline: their phase labels and seasons come from the treated product's
window, since the policy whose effect is estimated is the treated market's.

Rows travel as ``PanelRows`` arrays from the store to ``build_sample``.
A batch is many tasks over few markets, so tasks are prepared in a
``TaskGroup``: tasks that share a treated market (``cli._task_groups`` cuts
a key-ordered batch into them). A group reads, labels and transforms the
rows of all its markets as one block and slices each task's rows out of
it; the block lives as long as the group. ``prepare_outcome_rows`` and
``run_task`` on a task alone prepare it as a group of one.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass

import numpy as np

from .calendar import ProtectionCalendar
from .did import (
    EffectEstimate,
    EstimationTask,
    bootstrap_se,
    build_sample,
    check_methods,
    estimate_ipw_did,
    estimate_ols_did,
)
from .errors import ConfigError
from .ingest import PanelStore
from .panel import (
    Outcome,
    PanelRows,
    apply_boundary_exclusion,
    label_panel,
)
from .transforms import (
    compute_volatility,
    restrict_to_production_weeks,
    standardize_prices,
)


def task_seed(master_seed: int, key: str) -> int:
    """Stable per-task seed: independent of task order and worker count."""
    digest = hashlib.sha256(f"{master_seed}:{key}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1  # keep it positive


def outcome_rows(labeled: PanelRows, outcome: Outcome) -> PanelRows:
    """Labelled rows on the ``outcome`` scale: standardized prices without
    Boundary weeks, or volatility."""
    if outcome is Outcome.LEVEL:
        return apply_boundary_exclusion(standardize_prices(labeled))
    return compute_volatility(labeled)


class TaskGroup:
    """Tasks that share a treated market, prepared as one block.

    The block holds the rows of the treated market and then of each distinct
    control market, in task order. On first use it is read from ``store``
    in one ``rows_matching`` call, labelled on the treated product's window
    in one ``label_panel`` call, and put on an outcome's scale in one
    ``outcome_rows`` call per outcome. Series codes run market by market and
    both transforms keep series order, so each market's rows are a
    contiguous slice of every block. A store holds no week that cannot be
    labelled, so only a calendar miss, checked first, keeps a block from
    being labelled, and it fails every task of the group.
    """

    def __init__(
        self, tasks: list[EstimationTask], store: PanelStore, calendar: ProtectionCalendar
    ):
        treated = tasks[0].treated
        if any(task.treated != treated for task in tasks):
            raise ValueError("the tasks of a group share one treated market")
        self.store, self.calendar, self.window_product = store, calendar, treated.product
        self._market = {key: i for i, key in enumerate(
            dict.fromkeys([treated, *(task.control for task in tasks)])
        )}
        # series codes of market i: codes[i] .. codes[i + 1] - 1
        self._codes = np.cumsum([0] + [len(store.market_series(key)) for key in self._market])
        self._labeled: PanelRows | None = None
        self._outcomes: dict[Outcome, list[PanelRows]] = {}  # each market's rows

    def task_rows(self, task: EstimationTask) -> tuple[PanelRows, PanelRows]:
        """Transformed (treated, control) outcome rows of one of the tasks,
        or its error: no price data for either side, checked before anything
        is read, then a calendar miss, then no overlap."""
        for side, key in (("treated", task.treated), ("control", task.control)):
            if not self.store.has_rows(key):
                raise ConfigError(f"no price data for {side} series {key}")
        self.calendar.window_for(self.window_product)
        markets = self._outcome_block(task.outcome)
        treated = markets[self._market[task.treated]]
        return treated, restrict_to_production_weeks(markets[self._market[task.control]], treated)

    def _outcome_block(self, outcome: Outcome) -> list[PanelRows]:
        if outcome not in self._outcomes:
            if self._labeled is None:
                self._labeled = label_panel(self.store.rows_matching(*self._market),
                                            self.calendar, window_product=self.window_product)
            rows = outcome_rows(self._labeled, outcome)
            edges = rows.series.searchsorted(self._codes).tolist()
            self._outcomes[outcome] = [rows.take(slice(*ends)) for ends in zip(edges, edges[1:])]
        return self._outcomes[outcome]


def prepare_outcome_rows(
    task: EstimationTask,
    store: PanelStore,
    calendar: ProtectionCalendar,
    group: TaskGroup | None = None,
) -> tuple[PanelRows, PanelRows]:
    """Transformed (treated, control) outcome rows for one task, from its
    ``group`` (built on ``store`` and ``calendar``) or a group of its own.

    Pipeline order: label phases/seasons, transform to the outcome scale,
    drop Boundary weeks, then restrict control rows to treated production
    weeks. Standardization therefore sees every observed week of a season.
    Both series must have price data before either is labelled.
    """
    return (group or TaskGroup([task], store, calendar)).task_rows(task)


@dataclass(frozen=True)
class TaskResult:
    task: EstimationTask
    estimates: tuple[EffectEstimate, ...]


def run_task(
    task: EstimationTask,
    store: PanelStore,
    calendar: ProtectionCalendar,
    methods: tuple[str, ...] = ("ipw",),
    group: TaskGroup | None = None,
) -> TaskResult:
    """Estimate one task with the requested methods, on rows from its
    ``group`` or a group of its own (see ``prepare_outcome_rows``).

    The IPW estimate carries bootstrap inference (requires ``task.seed``);
    the OLS estimate carries classical standard errors and reps=0.
    """
    check_methods(methods)
    treated_rows, control_rows = prepare_outcome_rows(task, store, calendar, group)
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
