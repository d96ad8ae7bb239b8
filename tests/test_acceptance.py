"""Acceptance gate: ten end-to-end checks with pinned tolerances.

Each test prints exactly one ``[acceptance NN] PASS/FAIL`` line (straight to
the real stdout, past pytest's capture) so the gate can be read off a plain
``pytest -v`` run. A failing line carries the measured quantity.

Check 09 compares the heterogeneity regression against a reference fit whose
underlying per-variety estimates and attribute codings were never published;
the committed fixtures carry the 44 published product-level estimates (of 72
used by the reference) and documented best-effort attribute reconstructions,
so the check reports the honest discrepancy rather than hiding it.
"""

import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from helpers import (
    basic_task,
    panel_rows,
    phases_of,
    random_cell_sample,
    shift,
    stratified_sample,
    weeks_of,
)
from oracles import (
    cell_mask,
    central_difference_gradient,
    golden_section_logit_1d,
    logistic_nll,
    normal_equations_ols,
    stratified_did,
)

from seasondid import (
    CovariateSpec,
    DesignMatrix,
    DidSample,
    Outcome,
    PanelStore,
    PhaseLabel,
    SimConfig,
    bootstrap_se,
    build_calendar,
    build_sample,
    cell_means_did,
    compute_volatility,
    estimate_ipw_did,
    estimate_ols_did,
    fit_logistic,
    fit_ols,
    generate_panel,
    heterogeneity_regression,
    join_effect_attributes,
    label_panel,
    prepare_outcome_rows,
    pretrend_placebo,
    propensity_report,
    standardize_prices,
    true_effect,
)
from seasondid.cli import main
from seasondid.glm import logistic_score

DATA = Path(__file__).parent / "data"


@pytest.fixture
def report(capsys):
    """One visible pass/fail line per criterion, written past pytest's
    capture so it shows up on every run, green or red."""
    def _line(number: int, name: str, ok: bool, detail: str) -> None:
        status = "PASS" if ok else "FAIL"
        with capsys.disabled():
            print(f"[acceptance {number:02d}] {status} {name}: {detail}",
                  flush=True)
    return _line


def _pipeline_sample(cfg: SimConfig, covariates: CovariateSpec) -> DidSample:
    treated, control, calendar = generate_panel(cfg)
    store = PanelStore(treated + control)
    task = basic_task(product=cfg.product, control_country=cfg.control_country,
                      covariates=covariates)
    treated_rows, control_rows = prepare_outcome_rows(task, store, calendar)
    return build_sample(task, treated_rows, control_rows)


def test_01_no_covariate_estimator_equivalence(report):
    """Without covariates, IPW, OLS and the direct 2x2 cell-means DiD are the
    same number, to 1e-10, on 100 random samples, in under 5 seconds."""
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        sample = random_cell_sample(rng)
        reference = cell_means_did(sample.cell_table()).atet
        worst = max(
            worst,
            abs(estimate_ipw_did(sample.cell_table()).atet - reference),
            abs(estimate_ols_did(sample).atet - reference),
        )
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and elapsed < 5.0
    report(1, "no-covariate IPW = OLS = cell-means",
            ok, f"max |difference| {worst:.2e} over 100 samples, {elapsed:.1f}s")
    assert ok


def test_02_saturated_design_matches_stratified_oracle(report):
    """With saturated stratum dummies, IPW equals the brute-force
    treated-post-share-weighted stratum DiD, to 1e-8, on 50 random panels,
    in under 10 seconds."""
    rng = np.random.default_rng(202)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        sample, strata = stratified_sample(rng, int(rng.integers(1, 7)))
        oracle = stratified_did(sample.y, sample.d, sample.t, strata)
        worst = max(worst, abs(estimate_ipw_did(sample.cell_table()).atet - oracle))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-8 and elapsed < 10.0
    report(2, "saturated-design IPW matches stratified oracle",
            ok, f"max |difference| {worst:.2e} over 50 panels, {elapsed:.1f}s")
    assert ok


def _recovery_config(seed: int, noise_sd: float) -> SimConfig:
    return SimConfig(n_seasons=22, weeks_per_season=45, protected_start=12,
                     protected_end=34, true_atet=20.0, noise_sd=noise_sd,
                     seed=seed)


def test_03_recovers_the_injected_effect(report):
    """200 Monte Carlo panels of ~2,000 observations with a true effect of
    20 index points: the mean estimate is within +-0.5, and a noise-free
    panel is recovered to 1e-9, all in under 2 minutes."""
    start = time.perf_counter()
    estimates = [
        estimate_ipw_did(
            _pipeline_sample(_recovery_config(5000 + r, 5.0), CovariateSpec.SEASONAL).cell_table()
        ).atet
        for r in range(200)
    ]
    mean = float(np.mean(estimates))
    exact = estimate_ipw_did(
        _pipeline_sample(_recovery_config(1, 0.0), CovariateSpec.SEASONAL).cell_table()
    ).atet
    elapsed = time.perf_counter() - start
    ok = abs(mean - 20.0) < 0.5 and abs(exact - 20.0) < 1e-9 and elapsed < 120.0
    report(3, "injected-effect recovery",
            ok, f"MC mean {mean:.3f} (truth 20), noise-free error "
                f"{abs(exact - 20.0):.1e}, {elapsed:.0f}s")
    assert ok


def test_04_bootstrap_interval_calibration(report):
    """Across 300 Monte Carlo panels the 95% normal bootstrap interval covers
    the true effect between 90% and 98% of the time, in under 5 minutes."""
    start = time.perf_counter()
    covered = 0
    for r in range(300):
        cfg = SimConfig(n_seasons=1, weeks_per_season=40, protected_start=10,
                        protected_end=28, true_atet=20.0, noise_sd=5.0,
                        seed=2000 + r)
        target = true_effect(cfg)
        sample = _pipeline_sample(cfg, CovariateSpec.NONE)
        boot = bootstrap_se(sample, cell_means_did, reps=199, seed=3000 + r)
        lo, hi = boot.ci_normal
        covered += lo <= target <= hi
    coverage = covered / 300
    elapsed = time.perf_counter() - start
    ok = 0.90 <= coverage <= 0.98 and elapsed < 300.0
    report(4, "bootstrap CI calibration",
            ok, f"coverage {coverage:.3f} over 300 panels (band 0.90..0.98), "
                f"{elapsed:.0f}s")
    assert ok


def _placebo_p(seed: int, divergence: float) -> float:
    cfg = SimConfig(n_seasons=6, weeks_per_season=30, protected_start=8,
                    protected_end=22, true_atet=20.0, noise_sd=3.0,
                    trend_divergence_per_week=divergence, seed=seed)
    treated, control, calendar = generate_panel(cfg)
    store = PanelStore(treated + control)
    task = basic_task(product=cfg.product, control_country=cfg.control_country)
    treated_rows, control_rows = prepare_outcome_rows(task, store, calendar)
    result = pretrend_placebo(task, treated_rows, control_rows, calendar,
                              reps=99, seed=seed + 7)
    return result.estimate.p_value


def test_05_pretrend_placebo_size_and_power(report):
    """Under common trends the 10%-level placebo rejects between 5% and 16%
    of 500 runs; under a 3-index-unit-per-week divergence it rejects more
    than 80% of the time, all in under 3 minutes."""
    start = time.perf_counter()
    size = sum(_placebo_p(10_000 + r, 0.0) < 0.10 for r in range(500)) / 500
    power = sum(_placebo_p(60_000 + r, 3.0) < 0.10 for r in range(500)) / 500
    elapsed = time.perf_counter() - start
    ok = 0.05 <= size <= 0.16 and power > 0.80 and elapsed < 180.0
    report(5, "pre-trend placebo size and power",
            ok, f"size {size:.3f} (band 0.05..0.16), power {power:.3f} "
                f"(> 0.80), {elapsed:.0f}s")
    assert ok


def test_06_transform_invariants(report):
    """Standardized levels average exactly 100 per series-season cell (1e-9);
    volatility is exactly invariant to a currency rescale; and no volatility
    observation ever spans a phase transition, even with mid-week period
    starts."""
    rng = np.random.default_rng(606)
    worst_mean = 0.0
    for _ in range(20):
        cfg = SimConfig(
            n_seasons=3, weeks_per_season=30,
            protected_start=int(rng.integers(5, 11)),
            protected_end=int(rng.integers(15, 26)),
            true_atet=float(rng.choice((-10.0, 0.0, 15.0))),
            noise_sd=float(rng.choice((0.0, 2.0, 5.0))),
            season_shock_sd=4.0,
            shared_season_shocks=bool(rng.integers(0, 2)),
            seed=int(rng.integers(0, 1 << 30)),
        )
        treated, control, calendar = generate_panel(cfg)
        standardized = standardize_prices(label_panel(panel_rows(treated + control), calendar))
        cells = {}
        for code, season, value in zip(standardized.series.tolist(),
                                       standardized.season.tolist(), standardized.value):
            cells.setdefault((code, season), []).append(value)
        for values in cells.values():
            worst_mean = max(worst_mean, abs(sum(values) / len(values) - 100.0))

    cfg = SimConfig(n_seasons=3, weeks_per_season=30, protected_start=8,
                    protected_end=22, true_atet=15.0, noise_sd=3.0, seed=77)
    treated, _, calendar = generate_panel(cfg)
    scaled = [replace(obs, price=obs.price * 2.0) for obs in treated]
    vol = compute_volatility(label_panel(panel_rows(treated), calendar))
    vol_scaled = compute_volatility(label_panel(panel_rows(scaled), calendar))
    rescale_exact = (
        len(vol) == len(vol_scaled)
        and all(a == b for a, b in zip(weeks_of(vol), weeks_of(vol_scaled)))
        and all(a == b for a, b in zip(vol.value, vol_scaled.value))
    )

    midweek = replace(cfg, midweek_boundaries=True, seed=78)
    treated, control, calendar = generate_panel(midweek)
    labeled = label_panel(panel_rows(treated + control), calendar)
    phase_of = {
        (labeled.keys[code], wk): phase
        for code, wk, phase in zip(labeled.series, weeks_of(labeled), phases_of(labeled))
    }
    assert PhaseLabel.BOUNDARY in phase_of.values()
    vol = compute_volatility(labeled)
    no_spans = all(
        phase is not PhaseLabel.BOUNDARY
        and phase_of[(vol.keys[code], shift(wk, -1))] is phase
        for code, wk, phase in zip(vol.series, weeks_of(vol), phases_of(vol))
    )

    ok = worst_mean < 1e-9 and rescale_exact and no_spans
    spans = "none" if no_spans else "FOUND"
    report(6, "outcome-transform invariants",
            ok, f"max |cell mean - 100| {worst_mean:.1e}, currency rescale "
                f"exact: {rescale_exact}, phase-transition spans: {spans}")
    assert ok


def _imbalanced_sample(rng: np.random.Generator) -> DidSample:
    """Random stratified sample with heavy treated-post cells, pushing some
    propensities above the trim thresholds."""
    n_strata = int(rng.integers(1, 5))
    y, d, t, strata = [], [], [], []
    for s in range(n_strata):
        for dd, tt in ((1, 1), (1, 0), (0, 1), (0, 0)):
            size = int(rng.integers(1, 151)) if (dd, tt) == (1, 1) else int(
                rng.integers(1, 13))
            y.extend(rng.normal(rng.normal(0.0, 5.0), 1.0, size))
            d.extend([dd] * size)
            t.extend([tt] * size)
            strata.extend([s] * size)
    return DidSample(y=np.asarray(y, dtype=float), d=np.asarray(d, dtype=np.int8),
                     t=np.asarray(t, dtype=np.int8), stratum=np.array(strata))


def _retained_rows(sample: DidSample, threshold: float) -> set:
    kept = set(range(sample.n_obs))
    for cell, rho in propensity_report(sample.cell_table()).items():
        rows = np.flatnonzero(cell_mask(sample, *cell))
        kept -= set(rows[rho[sample.stratum[rows]] > threshold].tolist())
    return kept


def test_07_trimming_monotonicity(report):
    """Loosening the trim threshold from 0.95 to 0.99 can only add rows: on
    100 random samples the 0.95-retained set is a subset of the
    0.99-retained set."""
    rng = np.random.default_rng(707)
    samples_that_trimmed = 0
    ok = True
    for _ in range(100):
        sample = _imbalanced_sample(rng)
        tight = _retained_rows(sample, 0.95)
        loose = _retained_rows(sample, 0.99)
        ok = ok and tight <= loose
        samples_that_trimmed += len(tight) < sample.n_obs
    report(7, "propensity-trim monotonicity",
            ok, f"retained(0.95) ⊆ retained(0.99) on 100 samples "
                f"({samples_that_trimmed} actually trimmed rows)")
    assert ok


def test_08_glm_matches_independent_oracles(report):
    """The logistic fit matches a one-dimensional golden-section search to
    1e-6; the analytic score matches central finite differences to a relative
    1e-4; the OLS fit matches the normal equations to 1e-8."""
    rng = np.random.default_rng(808)
    x = rng.normal(0.0, 1.0, 60)
    y = (rng.random(60) < 1.0 / (1.0 + np.exp(-0.8 * x))).astype(float)
    fitted = fit_logistic(DesignMatrix(x.reshape(-1, 1), ("slope",)), y)
    logit_gap = abs(fitted.coefficients[0] - golden_section_logit_1d(x, y))

    matrix = np.column_stack([np.ones(80), rng.normal(0.0, 1.0, (80, 2))])
    design = DesignMatrix(matrix, ("const", "a", "b"))
    y_bin = (rng.random(80) < 0.4).astype(float)
    beta = np.array([0.3, -0.5, 0.2])
    analytic = logistic_score(design, y_bin, beta)
    numeric = -central_difference_gradient(
        lambda b: logistic_nll(matrix, y_bin, b), beta)
    score_rel = float(np.max(np.abs(analytic - numeric)
                             / np.maximum(np.abs(numeric), 1e-8)))

    x_ols = np.column_stack([np.ones(50), rng.normal(0.0, 2.0, (50, 3))])
    y_ols = x_ols @ np.array([1.0, -2.0, 0.5, 3.0]) + rng.normal(0.0, 1.0, 50)
    fit = fit_ols(DesignMatrix(x_ols, ("const", "a", "b", "c")), y_ols)
    beta_oracle, se_oracle = normal_equations_ols(x_ols, y_ols)
    ols_gap = max(float(np.max(np.abs(fit.coefficients - beta_oracle))),
                  float(np.max(np.abs(fit.standard_errors - se_oracle))))

    ok = logit_gap < 1e-6 and score_rel < 1e-4 and ols_gap < 1e-8
    report(8, "GLM against independent oracles",
            ok, f"logit vs grid search {logit_gap:.1e}, score vs finite "
                f"differences {score_rel:.1e} (rel), OLS vs normal equations "
                f"{ols_gap:.1e}")
    assert ok


def test_09_reference_heterogeneity_reproduction(report):
    """The committed reference estimates and reconstructed attribute file
    should reproduce the reference pooled-level coefficient on the
    conventional-quality dummy, 16.8435 (SE 8.4514), to +-0.01.

    Known shortfall, reported rather than hidden: the reference fit pooled 72
    per-variety level estimates, but only 44 product-level estimates were
    ever published, and the attribute codings in the fixture are best-effort
    reconstructions. The measured coefficient is printed for the record.
    """
    rows = join_effect_attributes(DATA / "reference_effects.csv",
                                  DATA / "reference_attributes.csv", "ipw")
    pooled = next(r for r in heterogeneity_regression(rows)
                  if r.outcome is Outcome.LEVEL and r.subsample == "pooled")
    measured = pooled.fit.coefficient("conventional")
    se = pooled.fit.standard_error("conventional")
    ok = abs(measured - 16.8435) <= 0.01
    report(9, "reference heterogeneity reproduction",
            ok, f"conventional coefficient {measured:.4f} (se {se:.4f}) vs "
                f"reference 16.8435 (se 8.4514) on n={pooled.n} of the "
                f"reference's 72 level estimates; only published estimates "
                f"and reconstructed attributes are available")
    assert ok


def test_10_cli_byte_determinism(report, tmp_path):
    """Two CLI runs from identical inputs and seed produce byte-identical
    effects tables, regardless of the worker count."""
    sim_cfg = tmp_path / "sim.cfg"
    sim_cfg.write_text("n_seasons = 2\nweeks_per_season = 20\n"
                       "protected_start = 6\nprotected_end = 14\n"
                       "true_atet = 15\nnoise_sd = 2\nseed = 1\n")
    data = tmp_path / "data"
    assert main(["simulate", "--config", str(sim_cfg), "--out", str(data)]) == 0
    out = tmp_path / "out"
    run_cfg = tmp_path / "run.cfg"
    run_cfg.write_text(f"prices = {data / 'prices.csv'}\n"
                       f"calendar = {data / 'calendar.csv'}\n"
                       "outcomes = level,volatility\nreps = 25\nseed = 11\n"
                       f"output_dir = {out}\n")
    assert main(["run", "--config", str(run_cfg)]) == 0
    first = (out / "effects.csv").read_bytes()
    assert main(["run", "--config", str(run_cfg)]) == 0
    second = (out / "effects.csv").read_bytes()
    assert main(["run", "--config", str(run_cfg), "--workers", "2"]) == 0
    third = (out / "effects.csv").read_bytes()
    ok = first == second == third
    report(10, "CLI byte determinism",
            ok, f"effects table stable at {len(first)} bytes across reruns "
                f"and worker counts")
    assert ok
