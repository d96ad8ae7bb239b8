"""Diagnostics around the main estimator.

* ``pretrend_placebo``: a falsification DiD in the run-up to protection,
  contrasting offsets {-2, -1} (pseudo-post) against {-4, -3} (pre). A
  significant estimate flags diverging pre-trends.
* ``rolling_biweekly_effects``: the effect profile over the protected phase,
  one cell-means DiD per biweek of protection against the last two
  pre-protection weeks.
* ``describe_distribution``: phase-level outcome summaries per country.
* ``heterogeneity_regression``: OLS of estimated effects (joined with their
  product attributes by ``join_effect_attributes``) on those attributes and
  comparison-country dummies derived from the rows, pooled and per quality.

Offsets are counted in whole non-Boundary weeks walking back from the week
of the window's first day; Boundary weeks are skipped, not counted.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .calendar import ProtectionCalendar, ProtectionWindow
from .did import (
    DidSample,
    EffectEstimate,
    EstimationTask,
    bootstrap_se,
    cell_means_did,
    quantile,
)
from .errors import ConfigError, InfeasibleSampleError, IngestError, read_table
from .glm import DesignMatrix, FitResult, fit_ols
from .ingest import ATTRIBUTE_HEADER, EFFECTS_COLUMNS, AttributeRecord, read_attributes
from .panel import PHASES, Outcome, PanelRows, PhaseLabel, Quality, cut_runs, week_phases
from .weeks import IsoWeek

_MAX_OFFSET_WALK = 120


@dataclass(frozen=True)
class PlaceboResult:
    estimate: EffectEstimate
    seasons_used: int


@dataclass(frozen=True)
class BiweekEffect:
    biweek: int
    status: str  # "ok" or "infeasible"
    reason: str | None
    estimate: EffectEstimate | None
    seasons_used: int


@dataclass(frozen=True)
class PhaseSummary:
    country: str
    phase: PhaseLabel
    outcome: Outcome
    mean: float
    q1: float
    median: float
    q3: float
    n: int


@dataclass(frozen=True)
class EffectAttributeRow:
    """One estimated effect joined with its product's attributes."""

    outcome: Outcome
    effect: float
    attributes: AttributeRecord


@dataclass(frozen=True)
class HeterogeneityResult:
    outcome: Outcome
    subsample: str  # "pooled", "conventional" or "organic"
    fit: FitResult
    n: int
    r_squared: float


@functools.lru_cache(maxsize=None)
def offset_weeks(window: ProtectionWindow, year: int, count: int) -> tuple[IsoWeek, ...]:
    """The ``count`` whole non-Boundary weeks before the year's protection
    start, nearest first (offset -1, -2, ...). Boundary weeks are skipped.
    Returns fewer than ``count`` weeks if the walk runs into the previous
    protection phase. Each (window, year, count) is walked once."""
    if count < 0:
        raise ValueError(f"offset count must be >= 0, got {count}")
    start = window.start_week(year).ordinal
    weeks = np.arange(start - 1, start - 1 - _MAX_OFFSET_WALK, -1)
    phases = week_phases(window, weeks)
    before = np.logical_and.accumulate(phases != PhaseLabel.PROTECTED.code)
    picked = weeks[before & (phases == PhaseLabel.UNPROTECTED.code)][:count]
    return tuple(IsoWeek.from_ordinal(week) for week in picked.tolist())


def _pool_seasons(
    treated_rows: PanelRows,
    control_rows: PanelRows,
    contrasts: list[tuple[Sequence[IsoWeek], Sequence[IsoWeek]]],
) -> tuple[DidSample, int]:
    """Pool (post weeks, pre weeks) contrasts, one per season, into a 2x2
    sample with no covariates. A season enters only if both series are
    observed at every one of its weeks. Returns the sample and the number of
    seasons used."""
    treated_index, control_index = treated_rows.values_by_week, control_rows.values_by_week
    values: list[np.ndarray] = [np.empty(0)]  # no season: an empty sample
    d: list[int] = []
    t: list[int] = []
    seasons_used = 0
    for post_weeks, pre_weeks in contrasts:
        ordinals = [w.ordinal for w in (*post_weeks, *pre_weeks)]
        if not all(w in treated_index and w in control_index for w in ordinals):
            continue
        for weeks, pseudo in ((post_weeks, 1), (pre_weeks, 0)):
            for week in weeks:
                for side, index in ((1, treated_index), (0, control_index)):
                    values.append(index[week.ordinal])
                    d += [side] * values[-1].size
                    t += [pseudo] * values[-1].size
        seasons_used += 1
    sample = DidSample(
        y=np.concatenate(values),
        d=np.array(d, dtype=np.int8),
        t=np.array(t, dtype=np.int8),
        stratum=np.zeros(len(d), dtype=np.intp),
    )
    return sample, seasons_used


def pretrend_placebo(
    task: EstimationTask,
    treated_rows: PanelRows,
    control_rows: PanelRows,
    calendar: ProtectionCalendar,
    reps: int,
    seed: int,
) -> PlaceboResult:
    """Placebo DiD on pre-protection weeks, pooled across seasons.

    Within each season, offsets {-2, -1} act as pseudo-post and {-4, -3} as
    pre. Seasons missing any of the four offset weeks in either series are
    dropped; with no usable season the sample is infeasible, and each cell
    needs ``task.min_cell`` rows, as in ``build_sample``. No covariates or
    trimming; the point estimate is the exact 2x2 cell-means DiD and
    inference is the same stratified bootstrap as the main estimator.
    """
    window = calendar.window_for(task.treated.product)
    years = sorted({*treated_rows.season.tolist(), *control_rows.season.tolist()})
    contrasts = []
    for year in years:
        offsets = offset_weeks(window, year, 4)
        if len(offsets) == 4:
            contrasts.append((offsets[:2], offsets[2:]))
    sample, seasons_used = _pool_seasons(treated_rows, control_rows, contrasts)
    if seasons_used == 0:
        raise InfeasibleSampleError(
            "pretrend_no_complete_season",
            "no season has both series observed at all four pre-protection offsets",
        )
    sample.cell_table().validate(task.min_cell)
    return PlaceboResult(
        estimate=bootstrap_se(sample, cell_means_did, reps, seed), seasons_used=seasons_used
    )


def _protected_weeks(window: ProtectionWindow, year: int) -> list[IsoWeek]:
    """The Protected weeks from the year's start week to its end week."""
    weeks = np.arange(window.start_week(year).ordinal, window.end_week(year).ordinal + 1)
    protected = weeks[week_phases(window, weeks) == PhaseLabel.PROTECTED.code]
    return [IsoWeek.from_ordinal(week) for week in protected.tolist()]


def rolling_biweekly_effects(
    task: EstimationTask,
    treated_rows: PanelRows,
    control_rows: PanelRows,
    calendar: ProtectionCalendar,
    reps: int,
    seed: int,
) -> list[BiweekEffect]:
    """Cell-means DiD per protected biweek against offsets {-2, -1}.

    Biweek b of a season covers protected weeks 2b-2 and 2b-1 (0-based; a
    trailing odd week forms a one-week biweek). A season enters biweek b's
    contrast only if both series are observed at both pre weeks and every
    week of that season's biweek b. Biweeks with no usable season are
    reported as infeasible markers rather than dropped silently.
    """
    window = calendar.window_for(task.treated.product)
    years = sorted({*treated_rows.season.tolist(), *control_rows.season.tolist()})
    season_pre: dict[int, tuple[IsoWeek, ...]] = {}
    season_biweeks: dict[int, list[list[IsoWeek]]] = {}
    for year in years:
        pre = offset_weeks(window, year, 2)
        if len(pre) < 2:
            continue
        protected = _protected_weeks(window, year)
        season_pre[year] = pre
        season_biweeks[year] = [protected[i : i + 2] for i in range(0, len(protected), 2)]
    n_biweeks = max((len(chunks) for chunks in season_biweeks.values()), default=0)
    if n_biweeks == 0:
        raise InfeasibleSampleError(
            "rolling_no_protected_weeks",
            "no season has pre-protection offsets and protected weeks to compare",
        )

    results: list[BiweekEffect] = []
    for b in range(1, n_biweeks + 1):
        contrasts = [
            (chunks[b - 1], season_pre[year])
            for year, chunks in season_biweeks.items()
            if len(chunks) >= b
        ]
        sample, seasons_used = _pool_seasons(treated_rows, control_rows, contrasts)
        if seasons_used == 0:
            results.append(
                BiweekEffect(
                    biweek=b,
                    status="infeasible",
                    reason="no_complete_season",
                    estimate=None,
                    seasons_used=0,
                )
            )
            continue
        results.append(
            BiweekEffect(
                biweek=b,
                status="ok",
                reason=None,
                estimate=bootstrap_se(sample, cell_means_did, reps, seed + b),
                seasons_used=seasons_used,
            )
        )
    return results


def describe_distribution(rows: PanelRows, outcome: Outcome) -> list[PhaseSummary]:
    """Phase-level summaries per country.

    First averages the outcome within each (series, season, phase) unit,
    then summarizes those unit averages per country and phase with mean and
    quartiles. ``rows.keys`` must be distinct. Output order is deterministic
    and independent of input order.
    """
    groups: dict[tuple[str, PhaseLabel], list[float]] = {}
    order = np.lexsort((rows.phase, rows.season, rows.series))
    unit = np.stack([rows.series, rows.season, rows.phase])[:, order]
    starts = [0, *(np.flatnonzero((unit[:, 1:] != unit[:, :-1]).any(axis=0)) + 1).tolist()]
    for first, values in zip(starts, cut_runs(rows.value[order], starts)):
        if values.size:
            series, _, phase = unit[:, first].tolist()
            group = (rows.keys[series].country, PHASES[phase])
            groups.setdefault(group, []).append(float(np.mean(values)))
    summaries = []
    for (country, phase) in sorted(groups, key=lambda k: (k[0], k[1].value)):
        values = np.array(sorted(groups[(country, phase)]))
        summaries.append(
            PhaseSummary(
                country=country,
                phase=phase,
                outcome=outcome,
                mean=float(values.mean()),
                q1=quantile(values, 0.25),
                median=quantile(values, 0.5),
                q3=quantile(values, 0.75),
                n=int(values.size),
            )
        )
    return summaries


def join_effect_attributes(
    effects: str | Path, attributes: str | Path, method: str
) -> list[EffectAttributeRow]:
    """The ``method`` rows of an effects table, each joined with the row of
    an attributes file for its (product, quality, control country).

    A bad or repeated attributes row, or a bad effects row, is an
    :class:`IngestError` at its ``file:line`` (effects rows may repeat a
    key: task lines may differ only in the control product or region); an
    effect without an attribute row, or no row of ``method``, is a
    :class:`ConfigError` that names what is missing."""
    by_key = {(a.product, a.quality, a.comparison): a for a in read_attributes(attributes)}
    missing: set[str] = set()

    def join(lineno: int, row: list[str]) -> EffectAttributeRow | None:
        record = dict(zip(EFFECTS_COLUMNS, (cell.strip() for cell in row)))
        if record["method"] != method:
            return None
        quality = Quality.parse(record["quality"])
        outcome = Outcome(record["outcome"])
        effect = float(record["atet"])
        if not math.isfinite(effect):
            raise ConfigError(f"atet must be a finite number, got {effect!r}")
        key = (record["product"], quality, record["control_country"])
        if key not in by_key:
            missing.add(f"{key[0]}/{quality}/{key[2]}")
            return None
        return EffectAttributeRow(outcome, effect, by_key[key])

    joined, _ = read_table(Path(effects), EFFECTS_COLUMNS, join, IngestError)
    rows = [row for row in joined if row is not None]
    if missing:
        raise ConfigError("no attribute row for estimated effects: " + ", ".join(sorted(missing)))
    if not rows:
        raise ConfigError(f"no effect rows with method {method!r} to regress")
    return rows


def heterogeneity_regression(rows: list[EffectAttributeRow]) -> list[HeterogeneityResult]:
    """OLS of estimated effects on product attributes.

    Six regressions: one per outcome for the pooled sample (with a
    conventional-quality dummy) and per quality subsample (without it).
    The comparison countries of all ``rows`` set the country dummies: each
    fit's reference level is the first country in sorted order among its
    own rows, and every other country has a ``country_<code>`` column, in
    sorted order. Degenerate columns, such as the dummy of a country a
    subsample lacks, are pruned and reported by the fitter; genuinely
    collinear attributes raise a rank error.
    """
    countries = sorted({row.attributes.comparison for row in rows})
    results = []
    for outcome in (Outcome.LEVEL, Outcome.VOLATILITY):
        outcome_rows = [row for row in rows if row.outcome is outcome]
        subsamples = [("pooled", outcome_rows)] + [
            (q.value, [r for r in outcome_rows if r.attributes.quality is q]) for q in Quality
        ]
        for name, subset in subsamples:
            if not subset:
                continue
            y = np.array([r.effect for r in subset])
            records = [r.attributes for r in subset]
            columns = [("const", np.ones(len(subset)))]
            if name == "pooled":
                quality = [a.quality is Quality.CONVENTIONAL for a in records]
                columns.append(("conventional", np.array(quality, dtype=float)))
            reference = min(a.comparison for a in records)
            for country in (c for c in countries if c != reference):
                dummy = [a.comparison == country for a in records]
                columns.append((f"country_{country}", np.array(dummy, dtype=float)))
            for attribute in ATTRIBUTE_HEADER[3:]:  # the columns after the join key
                columns.append(
                    (attribute, np.array([float(getattr(a, attribute)) for a in records]))
                )
            names, values = zip(*columns)
            fit = fit_ols(DesignMatrix(np.column_stack(values), names), y)
            residuals = y - fit.fitted
            centered = y - y.mean()
            tss = float(centered @ centered)
            r_squared = 1.0 - float(residuals @ residuals) / tss if tss > 0 else 0.0
            results.append(
                HeterogeneityResult(
                    outcome=outcome,
                    subsample=name,
                    fit=fit,
                    n=len(subset),
                    r_squared=r_squared,
                )
            )
    return results
