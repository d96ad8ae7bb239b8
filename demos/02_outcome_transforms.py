"""
Standardized price levels and week-to-week volatility
=====================================================

Raw weekly prices are turned into two outcomes: levels standardized to mean
100 per series-season cell, and absolute week-to-week relative changes on the
raw prices. Volatility never uses a week pair that crosses a phase change.

The panel travels as ``PanelRows``: parallel arrays of series code, ISO-week
ordinal and value, plus a phase code and a season once labelled.
"""

import numpy as np

from seasondid import (
    PanelStore,
    PhaseLabel,
    SimConfig,
    apply_boundary_exclusion,
    compute_volatility,
    generate_panel,
    label_panel,
    standardize_prices,
)

# A small synthetic panel: 2 seasons of 30 weeks, protection weeks 8..22,
# with a 12-point protected-phase premium on the treated series.
config = SimConfig(n_seasons=2, weeks_per_season=30, protected_start=8,
                   protected_end=22, true_atet=12.0, noise_sd=3.0, seed=42)
treated, control, calendar = generate_panel(config)
store = PanelStore(treated + control)
labeled = label_panel(store.rows(), calendar)
countries = np.array([key.country for key in labeled.keys])

# Standardization: each (series, season) cell is scaled by its own mean, so
# every cell averages exactly 100 and seasons become comparable.
levels = standardize_prices(labeled)
for country in ("CH", "DE"):
    for season in np.unique(levels.season):
        values = levels.value[(countries[levels.series] == country) & (levels.season == season)]
        print(f"{country} season {season}: mean {values.mean():.10f}, n = {values.size}")

# The protected-phase premium is visible as a gap in the standardized means
# of the treated series, and absent from the control.
kept = apply_boundary_exclusion(levels)
for country in ("CH", "DE"):
    ours = countries[kept.series] == country
    protected = kept.value[ours & (kept.phase == PhaseLabel.PROTECTED.code)].mean()
    unprotected = kept.value[ours & (kept.phase == PhaseLabel.UNPROTECTED.code)].mean()
    print(f"{country}: protected {protected:6.2f}  unprotected {unprotected:6.2f}  "
          f"gap {protected - unprotected:+.2f}")

# Volatility: |p_w / p_(w-1) - 1| on raw prices, defined only for consecutive
# weeks that share a non-Boundary phase. Rescaling the currency changes
# nothing because the ratio is scale-free.
volatility = compute_volatility(labeled)
values = volatility.value
print(f"volatility: n = {values.size}, mean {values.mean():.4f}, "
      f"90th percentile {np.quantile(values, 0.9):.4f}")
