"""
Pre-trend placebo, rolling effects and descriptives
===================================================

Three checks around the main estimate: a placebo DiD on the weeks just
before protection starts (it should find nothing under common trends),
biweekly effects rolling through the protected phase, and distribution
summaries per country and phase.
"""

from seasondid import (
    CovariateSpec,
    EstimationTask,
    Outcome,
    PanelStore,
    SeriesKey,
    SimConfig,
    describe_distribution,
    generate_panel,
    prepare_outcome_rows,
    pretrend_placebo,
    rolling_biweekly_effects,
)

config = SimConfig(n_seasons=6, weeks_per_season=30, protected_start=8,
                   protected_end=22, true_atet=20.0, noise_sd=3.0, seed=99)
treated, control, calendar = generate_panel(config)
store = PanelStore(treated + control)
task = EstimationTask(
    treated=SeriesKey(config.product, config.quality, config.treated_country),
    control=SeriesKey(config.product, config.quality, config.control_country),
    outcome=Outcome.LEVEL,
    covariates=CovariateSpec.NONE,
)
treated_rows, control_rows = prepare_outcome_rows(task, store, calendar)

# Placebo: pretend protection starts four weeks early and difference the two
# pre-protection fortnights. Under common trends this is noise around zero.
placebo = pretrend_placebo(task, treated_rows, control_rows, calendar,
                           reps=499, seed=11)
print(f"placebo ATET {placebo.estimate.atet:+.3f} "
      f"(se {placebo.estimate.se:.3f}, p = {placebo.estimate.p_value:.3f}, "
      f"{placebo.seasons_used} seasons)")

# The same machinery flags a diverging trend loudly.
diverging = SimConfig(n_seasons=6, weeks_per_season=30, protected_start=8,
                      protected_end=22, true_atet=20.0, noise_sd=3.0,
                      trend_divergence_per_week=3.0, seed=99)
d_treated, d_control, d_calendar = generate_panel(diverging)
d_store = PanelStore(d_treated + d_control)
d_rows = prepare_outcome_rows(task, d_store, d_calendar)
flagged = pretrend_placebo(task, d_rows[0], d_rows[1], d_calendar,
                           reps=499, seed=11)
print(f"placebo under a 3-unit/week divergence: {flagged.estimate.atet:+.3f} "
      f"(p = {flagged.estimate.p_value:.4f})")

# Rolling biweekly effects: the protected phase in two-week chunks, each
# differenced against the same pre-protection baseline.
print("\nbiweek  status      ATET     seasons")
for effect in rolling_biweekly_effects(task, treated_rows, control_rows,
                                       calendar, reps=199, seed=5):
    atet = f"{effect.estimate.atet:8.3f}" if effect.estimate else "       -"
    print(f"{effect.biweek:>6}  {effect.status:<10}{atet}     {effect.seasons_used}")

# Distribution summaries of the standardized levels per country and phase;
# the treated rows are all Swiss and the control rows all German.
print("\ncountry  phase        mean     IQR")
summaries = (describe_distribution(treated_rows, Outcome.LEVEL)
             + describe_distribution(control_rows, Outcome.LEVEL))
for row in summaries:
    print(f"{row.country:<8} {row.phase.value:<12}{row.mean:7.2f}  "
          f"[{row.q1:7.2f}, {row.q3:7.2f}]  n={row.n}")
