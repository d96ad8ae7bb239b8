"""
IPW difference-in-differences with trimming and bootstrap
=========================================================

The treated group is the protected phase of the treated country's series;
the control group is the same product in a country without protection. The
ATET comes from inverse-probability weighting, with propensities from three
pairwise comparisons (closed-form season shares, which is what a logit on
season dummies fits), extreme weights trimmed, and a stratified bootstrap
for the standard error.
"""

from seasondid import (
    CovariateSpec,
    EstimationTask,
    Outcome,
    PanelStore,
    SeriesKey,
    SimConfig,
    bootstrap_se,
    build_sample,
    cell_means_did,
    estimate_ipw_did,
    estimate_ols_did,
    generate_panel,
    prepare_outcome_rows,
    run_task,
    true_effect,
)

# Generate a panel with a known true effect of 20 index points.
config = SimConfig(n_seasons=6, weeks_per_season=30, protected_start=8,
                   protected_end=22, true_atet=20.0, noise_sd=4.0,
                   season_shock_sd=3.0, seed=7)
print(f"true standardized effect: {true_effect(config)}")
treated, control, calendar = generate_panel(config)
store = PanelStore(treated + control)

# An estimation task names the two markets as SeriesKeys (a region of None
# pools every region), the outcome, the covariate set, and the inference
# settings.
task = EstimationTask(
    treated=SeriesKey(config.product, config.quality, config.treated_country),
    control=SeriesKey(config.product, config.quality, config.control_country),
    outcome=Outcome.LEVEL,
    covariates=CovariateSpec.SEASONAL,
    trim_threshold=0.95,
    bootstrap_reps=500,
    seed=2024,
)
treated_rows, control_rows = prepare_outcome_rows(task, store, calendar)
sample = build_sample(task, treated_rows, control_rows)

# IPW and the cell-means DiD read only the row counts and outcome sums per
# (cell, season); OLS works on the rows.
table = sample.cell_table()
print(f"sample cells (D,T) = (1,1),(1,0),(0,1),(0,0): {table.n_by_cell}")
print(f"treated-post rows per season: {table.counts[0].tolist()}")

# Point estimates: with season fixed effects in the propensity model the IPW
# estimate reweights seasons by their treated-post share; OLS with the same
# dummies and the raw 2x2 cell means are shown for comparison.
ipw = estimate_ipw_did(table, trim_threshold=task.trim_threshold)
ols = estimate_ols_did(sample)
print(f"IPW ATET        {ipw.atet:8.3f}   (trimmed rows: {ipw.n_trimmed})")
print(f"OLS ATET        {ols.atet:8.3f}   (se {ols.se:.3f})")
print(f"cell-means DiD  {cell_means_did(table).atet:8.3f}")

# The stratified bootstrap takes the sample and a table estimator, and
# returns the full-sample estimate with its inference filled in.
means = bootstrap_se(sample, cell_means_did, reps=200, seed=task.seed)
print(f"cell-means bootstrap se {means.se:.3f} "
      f"({means.bootstrap_failures} failed of {means.bootstrap_reps})")

# Full inference in one call: run_task wires the stratified bootstrap to the
# IPW estimator and returns normal and percentile intervals.
estimate = run_task(task, store, calendar).estimates[0]
lo, hi = estimate.ci_normal
print(f"bootstrap se {estimate.se:.3f}, p = {estimate.p_value:.4f}, "
      f"95% CI [{lo:.2f}, {hi:.2f}] from {estimate.bootstrap_reps} replicates")
