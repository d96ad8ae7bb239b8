"""Per-task orchestration: raw panel -> transformed rows -> estimates.

Control observations are placed on the treated product's protection
timeline: their phase labels and seasons come from the treated product's
window, since the policy whose effect is estimated is the treated market's.

Rows travel as ``PanelRows`` arrays from the store to ``build_sample``.
A batch is many tasks over few markets, so tasks are prepared in a
``TaskGroup``: tasks that share a treated market (``cli._task_groups`` cuts
a key-ordered batch into them). A group reads, labels and transforms the
rows of all its markets as one block and slices each task's rows out of
it. It builds the samples of all its tasks together and then drops the
block. The OLS DiDs of a unit of consecutive groups, taken until their
samples hold ``UNIT_ROWS`` rows, are fitted as one ``estimate_ols_did``
call, one stacked QR per bin design. Each task's sample and estimate, or its error,
is kept until ``run_task`` asks for it. ``prepare_outcome_rows`` and
``run_task`` on a task alone prepare it as a group of one, a unit of one.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass

import numpy as np

from .calendar import ProtectionCalendar
from .did import (
    DidSample,
    EffectEstimate,
    EstimationTask,
    bootstrap_se,
    build_sample,
    check_methods,
    estimate_ipw_did,
    estimate_ols_did,
)
from .errors import ConfigError, SeasonDidError, unwrap
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


def _sample_key(task: EstimationTask) -> tuple:
    """What a task's sample, and so its OLS estimate, depend on."""
    return task.treated, task.control, task.outcome, task.covariates, task.min_cell


# Sample rows at which a unit of task groups stops taking groups: a constant
# with no setting, which bounds the samples alive at a time.
UNIT_ROWS = 1 << 16


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

    The first task to ask for its sample has every task prepared
    (``prepare_outcome_rows``) and sampled (``build_sample``), and the
    blocks released. The first to ask for its OLS estimate fits the group's
    unit: the group, then the groups of the task lists it takes from
    ``following`` (an iterator the caller runs on; the groups go to
    ``taken``) until the unit's samples hold ``UNIT_ROWS`` rows, all
    estimated by one ``estimate_ols_did`` call. Each sample or estimate, or
    its error, is kept for the task that asks, and raised there.
    """

    def __init__(self, tasks: list[EstimationTask], store: PanelStore,
                 calendar: ProtectionCalendar, following=()):
        treated = tasks[0].treated
        if any(task.treated != treated for task in tasks):
            raise ValueError("the tasks of a group share one treated market")
        self.tasks, self.store, self.calendar = tasks, store, calendar
        self.window_product = treated.product
        self._market = {key: i for i, key in enumerate(
            dict.fromkeys([treated, *(task.control for task in tasks)])
        )}
        # series codes of market i: codes[i] .. codes[i + 1] - 1
        self._codes = np.cumsum([0] + [len(store.market_series(key)) for key in self._market])
        self._following = iter(following)
        self.taken: list[TaskGroup] = []
        self._labeled: PanelRows | None = None
        self._outcomes: dict[Outcome, list[PanelRows]] = {}  # each market's rows
        self._samples: dict[tuple, DidSample | SeasonDidError] | None = None
        self._ols: dict[tuple, EffectEstimate | SeasonDidError] | None = None

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

    def sample(self, task: EstimationTask) -> DidSample:
        """The sample of one of the tasks (whatever its trim, reps or seed)."""
        return unwrap(self.samples()[_sample_key(task)])

    def samples(self) -> dict[tuple, DidSample | SeasonDidError]:
        """Each task's sample or error, by ``_sample_key``."""
        if self._samples is None:
            self._samples = {}
            for task in self.tasks:
                try:
                    rows = prepare_outcome_rows(task, self.store, self.calendar, self)
                    self._samples[_sample_key(task)] = build_sample(task, *rows)
                except SeasonDidError as exc:  # raised when the task asks
                    self._samples[_sample_key(task)] = exc
            self._labeled, self._outcomes = None, {}
        return self._samples

    def ols_estimate(self, task: EstimationTask) -> EffectEstimate:
        """The OLS estimate of one of the tasks that has a sample."""
        if self._ols is None:
            self._fit_unit()
        return unwrap(self._ols[_sample_key(task)])

    def _fit_unit(self) -> None:
        unit, rows = [self], sum(sample.y.size for sample in _fitted(self).values())
        while rows < UNIT_ROWS and (tasks := next(self._following, None)) is not None:
            unit.append(TaskGroup(tasks, self.store, self.calendar))
            rows += sum(sample.y.size for sample in _fitted(unit[-1]).values())
        self.taken = unit[1:]
        estimates = iter(estimate_ols_did([s for group in unit for s in _fitted(group).values()]))
        for group in unit:
            group._ols = {key: next(estimates) for key in _fitted(group)}

    def _outcome_block(self, outcome: Outcome) -> list[PanelRows]:
        if outcome not in self._outcomes:
            if self._labeled is None:
                self._labeled = label_panel(self.store.rows_matching(*self._market),
                                            self.calendar, window_product=self.window_product)
            rows = outcome_rows(self._labeled, outcome)
            edges = rows.series.searchsorted(self._codes).tolist()
            self._outcomes[outcome] = [rows.take(slice(*ends)) for ends in zip(edges, edges[1:])]
        return self._outcomes[outcome]


def _fitted(group: TaskGroup) -> dict[tuple, DidSample]:
    """The samples of ``group``, without its tasks' errors, in task order."""
    return {key: s for key, s in group.samples().items() if isinstance(s, DidSample)}


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
    """Estimate one task with the requested methods, on the sample and OLS
    estimate its ``group``, or a group of its own, keeps for it, raising
    the task's own error where its preparation, sample or fit failed.

    The IPW estimate carries bootstrap inference (requires ``task.seed``);
    the OLS estimate carries classical standard errors and reps=0.
    """
    check_methods(methods)
    group = group or TaskGroup([task], store, calendar)
    sample = group.sample(task)
    ipw = functools.partial(
        estimate_ipw_did, trim_threshold=task.trim_threshold, trim_treated=task.trim_treated
    )
    estimates = []
    for method in methods:
        if method == "ols":
            estimates.append(group.ols_estimate(task))
        elif task.bootstrap_reps > 0:
            estimates.append(bootstrap_se(sample, ipw, task.bootstrap_reps, task.seed))
        else:
            estimates.append(ipw(sample.cell_table()))
    return TaskResult(task=task, estimates=tuple(estimates))
