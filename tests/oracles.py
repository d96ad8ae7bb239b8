"""Independent reference implementations used to cross-check the library.

Everything here is written in the most transparent way available — explicit
enumeration, grid/golden-section searches, textbook matrix formulas — and
shares no code with the package under test. Slow is fine; obviously correct
is the point. Two parts reuse the package on purpose:

* ``row_level_bootstrap`` reuses its sample type, estimators and errors:
  what it checks is the resampling, not the estimators.
  ``row_level_ols_did`` reuses its sample type and ``fit_ols``: what it
  checks is the reduction of the OLS DiD to the (cell, stratum) bins.
* the row-level data preparation at the end (one object per row, from
  ``rows_matching`` to ``describe_distribution``) reuses its scalar week
  rules (``label_week``, ``assign_season_week``, ``offset_weeks``), its row
  and sample types, its estimators and its bootstrap: what it checks is the
  array bookkeeping of the package's columnar pipeline, which must give the
  same samples bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from seasondid.did import (
    CovariateSpec,
    DidSample,
    EffectEstimate,
    bootstrap_se,
    cell_means_did,
    two_sided_normal_p,
)
from seasondid.diagnostics import BiweekEffect, PhaseSummary, PlaceboResult, offset_weeks
from seasondid.errors import (
    BootstrapDegenerateError,
    ConfigError,
    EmptyOverlapError,
    GlmError,
    InfeasibleSampleError,
    TrimExhaustionError,
)
from seasondid.glm import INTERCEPT_NAME, DesignMatrix, fit_ols
from seasondid.panel import PhaseLabel, PriceObservation, SeriesKey, assign_season_week, label_week
from seasondid.weeks import IsoWeek


def did_from_cell_means(y, d, t) -> float:
    """(mean Y | D=1,T=1) - (D=1,T=0) - [(D=0,T=1) - (D=0,T=0)], computed
    with four independent boolean masks."""
    y = np.asarray(y, dtype=float)
    d = np.asarray(d)
    t = np.asarray(t)

    def cell(dd, tt):
        values = y[(d == dd) & (t == tt)]
        assert values.size > 0, f"empty cell D={dd}, T={tt}"
        return values.mean()

    return float(cell(1, 1) - cell(1, 0) - (cell(0, 1) - cell(0, 0)))


def stratified_did(y, d, t, strata) -> float:
    """Per-stratum 2x2 DiDs averaged with treated-post stratum shares.

    This is what inverse-probability weighting with a saturated (one
    parameter per stratum) propensity model computes: within stratum s the
    fitted odds of treated-post membership against cell g are
    n11_s / n_g_s, so the weighted comparison-cell mean reduces to the
    stratum mean reweighted by the treated-post share of stratum s.
    """
    y = np.asarray(y, dtype=float)
    d = np.asarray(d)
    t = np.asarray(t)
    strata = np.asarray(strata)
    n11_total = np.sum((d == 1) & (t == 1))
    assert n11_total > 0
    total = 0.0
    for s in np.unique(strata):
        mask = strata == s
        share = np.sum((d == 1) & (t == 1) & mask) / n11_total
        total += share * did_from_cell_means(y[mask], d[mask], t[mask])
    return float(total)


def logistic_nll(x_matrix, y, beta) -> float:
    """Negative Bernoulli log-likelihood, the function the fitter minimizes."""
    x_matrix = np.asarray(x_matrix, dtype=float)
    y = np.asarray(y, dtype=float)
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    eta = x_matrix @ beta
    return float(np.logaddexp(0.0, eta).sum() - y @ eta)


def golden_section_logit_1d(x, y, lo=-25.0, hi=25.0, tol=1e-12) -> float:
    """Single-coefficient logistic MLE by golden-section search on the
    negative log-likelihood (unimodal in one dimension)."""
    x_matrix = np.asarray(x, dtype=float).reshape(-1, 1)
    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc = logistic_nll(x_matrix, y, c)
    fd = logistic_nll(x_matrix, y, d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = logistic_nll(x_matrix, y, c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = logistic_nll(x_matrix, y, d)
    return float(0.5 * (a + b))


def prune_column_by_column(values, names) -> tuple[list[str], list[str]]:
    """(kept, dropped) column names: each column in turn is dropped when it
    is constant (unless named ``const``) or equal to a column kept before
    it."""
    kept: list[int] = []
    dropped = []
    for j, name in enumerate(names):
        col = values[:, j]
        if name != "const" and col.size and np.ptp(col) == 0.0:
            dropped.append(name)
        elif any(np.array_equal(col, values[:, i]) for i in kept):
            dropped.append(name)
        else:
            kept.append(j)
    return [names[j] for j in kept], dropped


def normal_equations_ols(x_matrix, y) -> tuple[np.ndarray, np.ndarray]:
    """beta = (X'X)^-1 X'y with classical SEs from sigma2 = RSS / (n - k)."""
    x_matrix = np.asarray(x_matrix, dtype=float)
    y = np.asarray(y, dtype=float)
    xtx_inv = np.linalg.inv(x_matrix.T @ x_matrix)
    beta = xtx_inv @ (x_matrix.T @ y)
    residuals = y - x_matrix @ beta
    n, k = x_matrix.shape
    sigma2 = float(residuals @ residuals) / (n - k)
    se = np.sqrt(np.diag(sigma2 * xtx_inv))
    return beta, se


def central_difference_gradient(f, beta, h=1e-5) -> np.ndarray:
    """Central finite differences of a scalar function, one coordinate at a
    time."""
    beta = np.asarray(beta, dtype=float)
    grad = np.zeros_like(beta)
    for j in range(beta.size):
        bump = np.zeros_like(beta)
        bump[j] = h
        grad[j] = (f(beta + bump) - f(beta - bump)) / (2.0 * h)
    return grad


def central_difference_hessian(f, beta, h=1e-4) -> np.ndarray:
    """Central finite-difference Hessian of a scalar function."""
    beta = np.asarray(beta, dtype=float)
    k = beta.size
    hessian = np.zeros((k, k))
    for i in range(k):
        for j in range(k):
            ei = np.zeros(k)
            ej = np.zeros(k)
            ei[i] = h
            ej[j] = h
            hessian[i, j] = (
                f(beta + ei + ej) - f(beta + ei - ej) - f(beta - ei + ej) + f(beta - ei - ej)
            ) / (4.0 * h * h)
    return hessian


def midpoint_week_by_enumeration(gap_weeks: list) -> object:
    """Season-opening week of an explicit, ordered list of gap weeks: the one
    at index (G - 1) // 2, i.e. the middle week, with ties rounding toward
    the earlier period."""
    assert gap_weeks, "enumeration oracle needs a non-empty gap"
    return gap_weeks[(len(gap_weeks) - 1) // 2]


def row_level_ols_did(sample):
    """Reference for ``did.estimate_ols_did``: the D:T coefficient of the
    n x p design (const, d, t, d_t, stratum dummies) fitted on the rows by
    ``fit_ols``."""
    n_by_cell = sample.cell_table().validate()
    columns = [
        (INTERCEPT_NAME, np.ones(sample.n_obs)),
        ("d", sample.d.astype(float)),
        ("t", sample.t.astype(float)),
        ("d_t", (sample.d * sample.t).astype(float)),
    ]
    columns += [
        (f"stratum_{s}", (sample.stratum == s).astype(float))
        for s in range(1, int(sample.stratum.max()) + 1)
    ]
    fit = fit_ols(DesignMatrix.from_columns(columns), sample.y)
    atet = fit.coefficient("d_t")
    se = fit.standard_error("d_t")
    return EffectEstimate(
        method="ols",
        atet=atet,
        se=se,
        p_value=two_sided_normal_p(atet, se),
        n_by_cell=n_by_cell,
    )


def row_level_bootstrap(sample, estimator, reps: int, seed: int) -> tuple:
    """Reference for ``did.bootstrap_se``: the stratified bootstrap that
    builds each replicate's sample from its drawn rows and tables it on its
    own, so a replicate's table is only as wide as its largest stratum.

    Replicate r draws ``integers`` once per cell in the order (1,1), (1,0),
    (0,1), (0,0) from ``SeedSequence((seed, r))``. Returns (atet, se, p,
    ci_normal, ci_percentile, failures); raises what the full-sample
    estimate raises, or ``BootstrapDegenerateError`` past 10% failures.
    """
    point = estimator(sample.cell_table()).atet
    cells = [
        np.flatnonzero((sample.d == d) & (sample.t == t))
        for d, t in ((1, 1), (1, 0), (0, 1), (0, 0))
    ]
    estimates = []
    failures = 0
    for rep in range(reps):
        rng = np.random.default_rng(np.random.SeedSequence((seed, rep)))
        rows = np.concatenate([cell[rng.integers(0, cell.size, cell.size)] for cell in cells])
        replicate = type(sample)(
            sample.y[rows], sample.d[rows], sample.t[rows], sample.stratum[rows]
        )
        try:
            estimates.append(estimator(replicate.cell_table()).atet)
        except (GlmError, TrimExhaustionError, InfeasibleSampleError):
            failures += 1
    if failures > 0.1 * reps:
        raise BootstrapDegenerateError(
            f"{failures} of {reps} bootstrap replicates failed; "
            "the sample cannot support this estimator"
        )
    draws = np.asarray(estimates)
    se = float(draws.std(ddof=1))
    if se == 0.0 or not math.isfinite(se):
        p = 1.0 if point == 0.0 else 0.0
    else:
        p = math.erfc(abs(point / se) / math.sqrt(2.0))
    z = 1.959963984540054
    return (
        point,
        se,
        p,
        (point - z * se, point + z * se),
        (float(np.quantile(draws, 0.025)), float(np.quantile(draws, 0.975))),
        failures,
    )


# ---------------------------------------------------------------------------
# row-level data preparation: the pipeline one row object at a time


@dataclass(frozen=True)
class SeasonId:
    """Season ``index`` on ``product``'s protection timeline."""

    product: str
    index: int


@dataclass(frozen=True)
class LabeledObservation:
    obs: PriceObservation
    phase: PhaseLabel
    season: SeasonId


@dataclass(frozen=True)
class OutcomeObservation:
    """One transformed outcome value on the weekly grid."""

    series: SeriesKey
    week: IsoWeek
    season: SeasonId
    phase: PhaseLabel
    value: float


def series_of(obs: PriceObservation) -> SeriesKey:
    return SeriesKey(obs.product, obs.quality, obs.country, obs.region)


def rows_matching(observations, product, quality, country, region=None):
    """The observations of a (product, quality, country) market: series in
    (product, quality, country, region) order, each sorted by week (stably)."""
    by_series: dict[SeriesKey, list[PriceObservation]] = {}
    for obs in observations:
        key = series_of(obs)
        if (key.product, key.quality, key.country) != (product, quality, country):
            continue
        if region is None or key.region == region:
            by_series.setdefault(key, []).append(obs)
    rows = []
    for key in sorted(by_series, key=lambda k: (k.product, k.quality.value, k.country,
                                                k.region or "")):
        rows.extend(sorted(by_series[key], key=lambda o: o.week))
    return rows


def label_panel(observations, calendar, window_product=None):
    """Phase and season of every row, each worked out on its own."""
    labeled = []
    for obs in observations:
        product = window_product if window_product is not None else obs.product
        window = calendar.window_for(product)
        labeled.append(
            LabeledObservation(
                obs=obs,
                phase=label_week(window, obs.week),
                season=SeasonId(product, assign_season_week(window, obs.week)),
            )
        )
    return labeled


def apply_boundary_exclusion(rows):
    return [row for row in rows if row.phase is not PhaseLabel.BOUNDARY]


def standardize_prices(labeled):
    """100 * price / season mean per (series, season) cell; the mean adds
    the cell's prices in row order, one at a time (``sum`` of floats is
    compensated from Python 3.12 on)."""
    cells: dict[tuple, list[LabeledObservation]] = {}
    for row in labeled:
        cells.setdefault((series_of(row.obs), row.season), []).append(row)
    out = []
    for rows in cells.values():
        total = 0.0
        for r in rows:
            total += r.obs.price
        mean = total / len(rows)
        for r in rows:
            out.append(
                OutcomeObservation(
                    series=series_of(r.obs),
                    week=r.obs.week,
                    season=r.season,
                    phase=r.phase,
                    value=100.0 * r.obs.price / mean,
                )
            )
    return out


def compute_volatility(labeled):
    """|p_w / p_(w-1) - 1| for consecutive weeks of a series that share a
    non-Boundary phase, recorded at the later week."""
    by_series: dict[SeriesKey, list[LabeledObservation]] = {}
    for row in labeled:
        by_series.setdefault(series_of(row.obs), []).append(row)
    out = []
    for key, rows in by_series.items():
        rows = sorted(rows, key=lambda r: r.obs.week)
        for prev, cur in zip(rows, rows[1:]):
            if (cur.obs.week.monday() - prev.obs.week.monday()).days != 7:
                continue
            if PhaseLabel.BOUNDARY in (prev.phase, cur.phase) or prev.phase is not cur.phase:
                continue
            out.append(
                OutcomeObservation(
                    series=key,
                    week=cur.obs.week,
                    season=cur.season,
                    phase=cur.phase,
                    value=abs(cur.obs.price / prev.obs.price - 1.0),
                )
            )
    return out


def restrict_to_production_weeks(control, treated, product_map=None):
    """Control rows whose (mapped product, quality, week) has a treated row."""
    product_map = product_map or {}
    available = {(row.series.product, row.series.quality, row.week) for row in treated}
    kept = [
        row
        for row in control
        if (product_map.get(row.series.product, row.series.product), row.series.quality,
            row.week) in available
    ]
    if control and not kept:
        control_names = sorted({str(row.series) for row in control})
        treated_names = sorted({str(row.series) for row in treated})
        raise EmptyOverlapError(
            "no control observation falls in a treated production week "
            f"(control {', '.join(control_names)}; treated {', '.join(treated_names)})"
        )
    return kept


def prepare_outcome_rows(task, observations, calendar):
    """(treated, control) outcome rows of one task, from its own rows."""
    raw = {}
    for side, spec in (("treated", task.treated), ("control", task.control)):
        raw[side] = rows_matching(observations, spec.product, spec.quality, spec.country,
                                  spec.region)
        if not raw[side]:
            raise ConfigError(f"no price data for {side} series {spec}")
    prepared = []
    for side in ("treated", "control"):
        labeled = label_panel(raw[side], calendar, window_product=task.treated.product)
        if task.outcome.value == "level":
            prepared.append(apply_boundary_exclusion(standardize_prices(labeled)))
        else:
            prepared.append(compute_volatility(labeled))
    treated_rows, control_rows = prepared
    control_rows = restrict_to_production_weeks(
        control_rows, treated_rows, product_map={task.control.product: task.treated.product}
    )
    return treated_rows, control_rows


def build_sample(task, treated_rows, control_rows):
    """D/T indicators and season stratum codes (earliest season 0) of the
    treated rows followed by the control rows; every cell needs
    ``task.min_cell`` rows."""
    rows = list(treated_rows) + list(control_rows)
    if any(row.phase is PhaseLabel.BOUNDARY for row in rows):
        raise ValueError("sample construction received Boundary rows")
    seasons = sorted({row.season.index for row in rows})
    sample = DidSample(
        y=np.array([row.value for row in rows]),
        d=np.array([1] * len(treated_rows) + [0] * len(control_rows), dtype=np.int8),
        t=np.array([row.phase is PhaseLabel.PROTECTED for row in rows], dtype=np.int8),
        stratum=np.array(
            [seasons.index(row.season.index) if task.covariates is CovariateSpec.SEASONAL
             else 0 for row in rows],
            dtype=np.intp,
        ),
    )
    sample.cell_table().validate(task.min_cell)
    return sample


def _rows_by_week(rows):
    index: dict[IsoWeek, list[OutcomeObservation]] = {}
    for row in rows:
        index.setdefault(row.week, []).append(row)
    return index


def _pool_seasons(treated_index, control_index, contrasts):
    values, d, t = [], [], []
    seasons_used = 0
    for post_weeks, pre_weeks in contrasts:
        if not all(w in treated_index and w in control_index for w in post_weeks + pre_weeks):
            continue
        for weeks, pseudo in ((post_weeks, 1), (pre_weeks, 0)):
            for week in weeks:
                for side, index in ((1, treated_index), (0, control_index)):
                    for row in index[week]:
                        values.append(row.value)
                        d.append(side)
                        t.append(pseudo)
        seasons_used += 1
    sample = DidSample(
        y=np.array(values),
        d=np.array(d, dtype=np.int8),
        t=np.array(t, dtype=np.int8),
        stratum=np.zeros(len(values), dtype=np.intp),
    )
    return sample, seasons_used


def _seasons(treated_rows, control_rows):
    return sorted({row.season.index for row in list(treated_rows) + list(control_rows)})


def pretrend_placebo(task, treated_rows, control_rows, calendar, reps, seed):
    """Offsets {-2, -1} against {-4, -3}, pooled over the seasons observed at
    all four in both series."""
    window = calendar.window_for(task.treated.product)
    contrasts = []
    for year in _seasons(treated_rows, control_rows):
        offsets = offset_weeks(window, year, 4)
        if len(offsets) == 4:
            contrasts.append((offsets[:2], offsets[2:]))
    sample, seasons_used = _pool_seasons(
        _rows_by_week(treated_rows), _rows_by_week(control_rows), contrasts
    )
    if seasons_used == 0:
        raise InfeasibleSampleError(
            "pretrend_no_complete_season",
            "no season has both series observed at all four pre-protection offsets",
        )
    return PlaceboResult(
        estimate=bootstrap_se(sample, cell_means_did, reps, seed), seasons_used=seasons_used
    )


def rolling_biweekly_effects(task, treated_rows, control_rows, calendar, reps, seed):
    """One cell-means DiD per protected biweek against offsets {-2, -1}."""
    window = calendar.window_for(task.treated.product)
    season_pre, season_biweeks = {}, {}
    for year in _seasons(treated_rows, control_rows):
        pre = offset_weeks(window, year, 2)
        if len(pre) < 2:
            continue
        protected = []
        week = window.start_week(year)
        while not window.end_week(year) < week:
            if label_week(window, week) is PhaseLabel.PROTECTED:
                protected.append(week)
            week = week.next()
        season_pre[year] = pre
        season_biweeks[year] = [protected[i : i + 2] for i in range(0, len(protected), 2)]
    n_biweeks = max((len(chunks) for chunks in season_biweeks.values()), default=0)
    if n_biweeks == 0:
        raise InfeasibleSampleError(
            "rolling_no_protected_weeks",
            "no season has pre-protection offsets and protected weeks to compare",
        )
    treated_index, control_index = _rows_by_week(treated_rows), _rows_by_week(control_rows)
    results = []
    for b in range(1, n_biweeks + 1):
        contrasts = [
            (chunks[b - 1], season_pre[year])
            for year, chunks in season_biweeks.items()
            if len(chunks) >= b
        ]
        sample, seasons_used = _pool_seasons(treated_index, control_index, contrasts)
        if seasons_used == 0:
            results.append(BiweekEffect(b, "infeasible", "no_complete_season", None, 0))
        else:
            estimate = bootstrap_se(sample, cell_means_did, reps, seed + b)
            results.append(BiweekEffect(b, "ok", None, estimate, seasons_used))
    return results


def describe_distribution(rows, outcome):
    """Unit means per (series, season, phase), then mean and quartiles of
    the unit means per (country, phase)."""
    units: dict[tuple, list[float]] = {}
    for row in rows:
        units.setdefault((row.series, row.season, row.phase), []).append(row.value)
    groups: dict[tuple, list[float]] = {}
    for (series, _, phase), values in units.items():
        groups.setdefault((series.country, phase), []).append(float(np.mean(values)))
    summaries = []
    for country, phase in sorted(groups, key=lambda k: (k[0], k[1].value)):
        values = np.array(sorted(groups[(country, phase)]))
        summaries.append(
            PhaseSummary(
                country=country,
                phase=phase,
                outcome=outcome,
                mean=float(values.mean()),
                q1=float(np.quantile(values, 0.25)),
                median=float(np.quantile(values, 0.5)),
                q3=float(np.quantile(values, 0.75)),
                n=int(values.size),
            )
        )
    return summaries
