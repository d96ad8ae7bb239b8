"""Synthetic panel generator: determinism, calibration, failure knobs."""

from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from seasondid import (
    CovariateSpec,
    PanelStore,
    PhaseLabel,
    SimConfig,
    build_calendar,
    build_sample,
    estimate_ipw_did,
    generate_panel,
    label_panel,
    prepare_outcome_rows,
    true_effect,
)
from seasondid.errors import ConfigError
from seasondid.simgen import _PRICE_FLOOR

from helpers import basic_task, panel_rows, phases_of, weeks_of


def pipeline_estimate(cfg, covariates=CovariateSpec.SEASONAL):
    """Run the generated panel through the level pipeline, return the IPW
    point estimate without bootstrap."""
    treated, control, calendar = generate_panel(cfg)
    store = PanelStore(treated + control)
    task = basic_task(
        product=cfg.product,
        control_country=cfg.control_country,
        covariates=covariates,
    )
    treated_rows, control_rows = prepare_outcome_rows(task, store, calendar)
    sample = build_sample(task, treated_rows, control_rows)
    return estimate_ipw_did(sample.cell_table()).atet


class TestDeterminism:
    def test_identical_configs_give_identical_panels(self):
        cfg = SimConfig(n_seasons=3, noise_sd=4.0, missing_week_prob=0.2, seed=7)
        first = generate_panel(cfg)
        second = generate_panel(cfg)
        assert first[0] == second[0]
        assert first[1] == second[1]

    def test_seed_changes_the_draws(self):
        cfg = SimConfig(n_seasons=2, noise_sd=4.0, seed=7)
        other = replace(cfg, seed=8)
        assert generate_panel(cfg)[0] != generate_panel(other)[0]

    def test_control_knobs_do_not_reshuffle_treated_draws(self):
        cfg = SimConfig(n_seasons=2, noise_sd=4.0, seed=7)
        tweaked = replace(cfg, base_price_control=99.0, control_country="IT")
        assert generate_panel(cfg)[0] == generate_panel(tweaked)[0]

    def test_season_streams_are_independent(self):
        short = SimConfig(n_seasons=2, noise_sd=4.0, seed=7)
        longer = replace(short, n_seasons=3)
        short_treated = generate_panel(short)[0]
        longer_treated = generate_panel(longer)[0]
        # adding a season appends rows without changing earlier seasons
        assert longer_treated[: len(short_treated)] == short_treated


class TestCalibration:
    def test_noise_free_panel_recovers_the_injected_effect_exactly(self):
        cfg = SimConfig(n_seasons=3, weeks_per_season=30, true_atet=20.0, seed=3)
        assert true_effect(cfg) == 20.0
        assert_allclose(pipeline_estimate(cfg), 20.0, atol=1e-9)

    def test_negative_and_zero_effects(self):
        for atet in (-15.0, 0.0):
            cfg = SimConfig(n_seasons=2, true_atet=atet, seed=5)
            assert_allclose(pipeline_estimate(cfg), atet, atol=1e-9)

    def test_common_trend_cancels_in_the_contrast(self):
        trend = tuple(8.0 * np.sin(np.linspace(0.0, 3.0, 30)))
        cfg = SimConfig(
            n_seasons=3, weeks_per_season=30, true_atet=20.0,
            common_trend=trend, season_shock_sd=6.0, seed=11,
        )
        assert true_effect(cfg) == 20.0  # shared shocks and trend cancel
        assert_allclose(pipeline_estimate(cfg), 20.0, atol=1e-9)

    def test_trend_divergence_shifts_the_estimand_by_the_closed_form_bias(self):
        cfg = SimConfig(
            n_seasons=3, weeks_per_season=30, true_atet=12.0,
            trend_divergence_per_week=0.5, seed=13,
        )
        target = true_effect(cfg)
        assert target != pytest.approx(12.0)
        assert_allclose(pipeline_estimate(cfg), target, atol=1e-9)

    def test_unshared_season_shocks_bias_the_estimand(self):
        # a flat weekly profile makes season shocks cancel exactly: the shock
        # shifts the whole season and standardization divides it away
        flat = SimConfig(
            n_seasons=4, true_atet=10.0, season_shock_sd=5.0,
            shared_season_shocks=False, seed=17,
        )
        assert true_effect(flat) == 10.0
        # with a within-season gradient, unshared shocks rescale the two
        # series' seasonal gaps differently and the estimand moves
        trend = tuple(float(v) for v in np.linspace(0.0, 12.0, 30))
        tilted = replace(flat, common_trend=trend)
        target = true_effect(tilted)
        assert target != pytest.approx(10.0)
        assert_allclose(pipeline_estimate(tilted), target, atol=1e-9)

    def test_noisy_estimates_scatter_around_the_target(self):
        estimates = [
            pipeline_estimate(SimConfig(n_seasons=4, true_atet=20.0, noise_sd=5.0, seed=s))
            for s in range(30)
        ]
        assert abs(float(np.mean(estimates)) - 20.0) < 1.5
        assert float(np.std(estimates)) > 0.1

    def test_unattainable_effect_is_rejected(self):
        # 2 of 4 weeks protected: a 200-point target makes the calibration
        # denominator vanish
        cfg = SimConfig(
            n_seasons=1, weeks_per_season=4, protected_start=1, protected_end=3,
            true_atet=200.0, seed=0,
        )
        with pytest.raises(ConfigError):
            true_effect(cfg)


class TestCalendarLayout:
    def test_first_year_labels_match_the_configured_offsets(self):
        cfg = SimConfig(n_seasons=1, weeks_per_season=20, protected_start=5,
                        protected_end=12, seed=0)
        treated, _, calendar = generate_panel(cfg)
        labeled = label_panel(panel_rows(treated), calendar)
        by_offset = {
            wk.week - cfg.season_start_week: phase
            for wk, phase in zip(weeks_of(labeled), phases_of(labeled))
        }
        for offset in range(cfg.weeks_per_season):
            expected = (
                PhaseLabel.PROTECTED
                if cfg.protected_start <= offset < cfg.protected_end
                else PhaseLabel.UNPROTECTED
            )
            assert by_offset[offset] is expected

    def test_midweek_boundaries_create_boundary_weeks(self):
        cfg = SimConfig(n_seasons=2, midweek_boundaries=True, seed=0)
        treated, _, calendar = generate_panel(cfg)
        labeled = label_panel(panel_rows(treated), calendar)
        assert PhaseLabel.BOUNDARY in phases_of(labeled)

    def test_calendar_window_is_year_independent(self):
        cfg = SimConfig(n_seasons=3, seed=0)
        calendar = build_calendar(cfg)
        window = calendar.window_for(cfg.product)
        # the same month-day window is applied to every year
        assert window.start_week(cfg.first_year + 1).year == cfg.first_year + 1


class TestImperfections:
    def test_missing_weeks_thin_the_panel(self):
        full = SimConfig(n_seasons=3, seed=9)
        gappy = replace(full, missing_week_prob=0.3)
        n_full = len(generate_panel(full)[0])
        n_gappy = len(generate_panel(gappy)[0])
        assert n_full == 3 * full.weeks_per_season
        assert 0 < n_gappy < n_full

    def test_nonpositive_prices_fail_loudly_by_default(self):
        cfg = SimConfig(n_seasons=1, weeks_per_season=6, protected_start=2,
                        protected_end=4, noise_sd=300.0, seed=1)
        with pytest.raises(ConfigError):
            generate_panel(cfg)

    def test_truncation_floors_the_price_instead(self):
        cfg = SimConfig(n_seasons=1, weeks_per_season=6, protected_start=2,
                        protected_end=4, noise_sd=300.0, seed=1,
                        truncate_nonpositive=True)
        treated, control, _ = generate_panel(cfg)
        prices = [row.price for row in treated + control]
        assert min(prices) >= _PRICE_FLOOR
        assert any(p == _PRICE_FLOOR for p in prices)


class TestValidation:
    @pytest.mark.parametrize(
        "overrides",
        [
            dict(n_seasons=0),
            dict(weeks_per_season=3),
            dict(protected_start=0),
            dict(protected_start=10, protected_end=10),
            dict(protected_end=30),          # == weeks_per_season: no right margin
            dict(season_start_week=0),
            dict(season_start_week=40),      # 40 + 30 - 1 > 52
            dict(common_trend=(1.0, 2.0)),   # wrong length
            dict(base_price_treated=0.0),
            dict(base_price_control=-2.0),
            dict(season_shock_sd=-1.0),
            dict(noise_sd=-0.5),
            dict(missing_week_prob=1.0),
            dict(missing_week_prob=-0.1),
            dict(seed=-1),
            dict(control_country="CH"),      # same as treated
        ],
    )
    def test_bad_configs_are_rejected(self, overrides):
        with pytest.raises(ConfigError):
            SimConfig(**overrides)

    @pytest.mark.filterwarnings("error")  # refused before numpy computes with it
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize(
        "key",
        ["base_price_treated", "base_price_control", "season_shock_sd", "noise_sd",
         "true_atet", "missing_week_prob", "trend_divergence_per_week", "common_trend"],
    )
    def test_a_non_finite_number_is_refused_by_its_key(self, key, value):
        # not later as a price row that no one wrote
        if key == "common_trend":
            overrides = {key: (1.0,) * 10 + (value,) + (2.0,) * 19}
        else:
            overrides = {key: value}
        with pytest.raises(ConfigError, match=f"^{key} must be a finite number, got {value!r}$"):
            SimConfig(**overrides)

    @pytest.mark.parametrize("first_year,n_seasons", [(2, 1), (9994, 6), (9999, 1)])
    def test_seasons_outside_the_labelled_years_are_rejected(self, first_year, n_seasons):
        # a week of year y is labelled from the windows of years y - 2 .. y + 1
        with pytest.raises(ConfigError, match="the years whose weeks can be labelled"):
            SimConfig(first_year=first_year, n_seasons=n_seasons)

    @pytest.mark.parametrize("first_year", [3, 9993])
    def test_seasons_at_the_ends_of_the_labelled_years_are_generated(self, first_year):
        treated, control, _ = generate_panel(SimConfig(first_year=first_year))
        years = {row.week.year for row in treated + control}
        assert years == set(range(first_year, first_year + 6))

    def test_default_config_is_valid(self):
        cfg = SimConfig()
        assert cfg.n_seasons == 6
        treated, control, calendar = generate_panel(cfg)
        assert treated and control
        assert calendar.window_for(cfg.product) is not None
