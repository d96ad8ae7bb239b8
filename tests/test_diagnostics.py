"""Placebo, rolling-effect, descriptive, and meta-regression diagnostics."""

import csv
import dataclasses
import random
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import oracles
from seasondid import (
    PHASES,
    AttributeRecord,
    EffectAttributeRow,
    Outcome,
    PanelRows,
    PanelStore,
    PhaseLabel,
    ProtectionCalendar,
    ProtectionWindow,
    Quality,
    SeriesKey,
    SimConfig,
    describe_distribution,
    generate_panel,
    heterogeneity_regression,
    join_effect_attributes,
    label_panel,
    offset_weeks,
    prepare_outcome_rows,
    pretrend_placebo,
    rolling_biweekly_effects,
    standardize_prices,
    compute_volatility,
)
from seasondid import diagnostics
from seasondid.errors import ConfigError, InfeasibleSampleError, IngestError, SeasonDidError
from seasondid.ingest import ATTRIBUTE_HEADER, EFFECTS_COLUMNS

from helpers import (
    basic_task, month_days, panel_rows, price_row, shift, week, weeks_of, window,
)
from oracles import did_from_cell_means, normal_equations_ols


def outcome_row(
    country,
    wk,
    value,
    phase,
    season_year,
    product="tomato",
    quality=Quality.CONVENTIONAL,
    region=None,
):
    return SeriesKey(product, quality, country, region), wk, value, phase, season_year


def outcome_panel(rows) -> PanelRows:
    """Outcome rows in the given order, from ``outcome_row`` tuples."""
    keys = list(dict.fromkeys(key for key, *_ in rows))
    return PanelRows(
        tuple(keys),
        np.array([keys.index(key) for key, *_ in rows], dtype=np.intp),
        np.array([wk.ordinal for _, wk, *_ in rows], dtype=np.int64),
        np.array([value for _, _, value, *_ in rows], dtype=float),
        np.array([phase.code for *_, phase, _ in rows], dtype=np.int8),
        np.array([season for *_, season in rows], dtype=np.int64),
    )


def without_weeks(rows, weeks):
    """``rows`` less those at any of ``weeks``."""
    return rows.take(~np.isin(rows.week, [wk.ordinal for wk in weeks]))


def simulated_rows(cfg):
    """(task, treated_rows, control_rows, calendar) for a generated panel."""
    treated, control, calendar = generate_panel(cfg)
    store = PanelStore(treated + control)
    task = basic_task(product=cfg.product, control_country=cfg.control_country)
    treated_rows, control_rows = prepare_outcome_rows(task, store, calendar)
    return task, treated_rows, control_rows, calendar


class TestOffsetWeeks:
    MAY_AUG = window("05-10", "08-31")

    def test_walks_back_from_the_protection_start(self):
        # the 2016 window starts in W19; W18..W15 are the four nearest
        # fully-unprotected weeks
        offsets = offset_weeks(self.MAY_AUG, 2016, 4)
        assert offsets == (week(2016, 18), week(2016, 17), week(2016, 16), week(2016, 15))

    def test_boundary_weeks_are_skipped_not_counted(self):
        # walking into the previous season: the 2016 end-boundary week (W35)
        # must be skipped while fully-unprotected weeks keep counting
        offsets = offset_weeks(self.MAY_AUG, 2017, 200)
        assert week(2016, 35) not in offsets
        assert week(2016, 36) in offsets
        for wk in offsets:
            assert oracles.label_week(self.MAY_AUG, wk) is PhaseLabel.UNPROTECTED

    def test_walk_stops_at_the_previous_protection_phase(self):
        offsets = offset_weeks(self.MAY_AUG, 2017, 200)
        assert len(offsets) < 200
        # the furthest week collected is the first non-boundary week after
        # the previous protected phase
        assert offsets[-1] == week(2016, 36)
        before = oracles.label_week(self.MAY_AUG, shift(offsets[-1], -1))
        assert before is not PhaseLabel.UNPROTECTED

    def test_offsets_are_nearest_first_and_distinct(self):
        offsets = offset_weeks(self.MAY_AUG, 2016, 6)
        assert len(set(offsets)) == 6
        assert all(b < a for a, b in zip(offsets, offsets[1:]))

    def test_a_zero_count_is_empty_and_a_negative_one_refused(self):
        assert offset_weeks(self.MAY_AUG, 2016, 0) == ()
        with pytest.raises(ValueError, match="count must be >= 0"):
            offset_weeks(self.MAY_AUG, 2016, -1)

    def test_a_leap_day_start_counts_back_from_march_1(self):
        # in 2021 the week of Sunday Feb 28 is the unprotected week right
        # before a window whose first day is Monday Mar 1
        offsets = offset_weeks(window("02-29", "06-30"), 2021, 4)
        assert offsets == (week(2021, 8), week(2021, 7), week(2021, 6), week(2021, 5))


@settings(max_examples=150, deadline=None)
@given(month_days, month_days, st.integers(1995, 2030), st.integers(0, 8))
def test_the_array_walks_match_the_week_by_week_walks(start, end, year, count):
    # windows anywhere in the year, from one day long (no protected week,
    # so the offset walk runs to its limit) to nearly all of it
    assume(start < end)
    win = ProtectionWindow(start, end)
    assert offset_weeks(win, year, count) == oracles.offset_weeks(win, year, count)
    assert diagnostics._protected_weeks(win, year) == oracles.protected_weeks(win, year)


class TestPretrendPlacebo:
    def test_common_trend_panel_gives_an_exactly_null_placebo(self):
        cfg = SimConfig(n_seasons=3, true_atet=25.0, seed=4)
        task, treated_rows, control_rows, calendar = simulated_rows(cfg)
        result = pretrend_placebo(task, treated_rows, control_rows, calendar,
                                  reps=50, seed=7)
        assert_allclose(result.estimate.atet, 0.0, atol=1e-12)
        assert result.seasons_used == 3
        assert result.estimate.method == "means"

    def test_placebo_equals_the_direct_offset_cell_did(self):
        cfg = SimConfig(n_seasons=3, trend_divergence_per_week=0.8, seed=4)
        task, treated_rows, control_rows, calendar = simulated_rows(cfg)
        result = pretrend_placebo(task, treated_rows, control_rows, calendar,
                                  reps=50, seed=7)

        win = calendar.window_for(cfg.product)
        values, d, t = [], [], []
        for year in sorted(set(treated_rows.season.tolist())):
            offsets = offset_weeks(win, year, 4)
            for rows, dd in ((treated_rows, 1), (control_rows, 0)):
                for row_week, value in zip(weeks_of(rows), rows.value):
                    if row_week in offsets[:2]:
                        values.append(value), d.append(dd), t.append(1)
                    elif row_week in offsets[2:]:
                        values.append(value), d.append(dd), t.append(0)
        expected = did_from_cell_means(np.array(values), np.array(d), np.array(t))
        assert_allclose(result.estimate.atet, expected, atol=1e-12)

    def test_diverging_trends_are_flagged(self):
        cfg = SimConfig(n_seasons=4, trend_divergence_per_week=3.0,
                        noise_sd=2.0, seed=4)
        task, treated_rows, control_rows, calendar = simulated_rows(cfg)
        result = pretrend_placebo(task, treated_rows, control_rows, calendar,
                                  reps=199, seed=7)
        assert result.estimate.atet > 3.0
        assert result.estimate.p_value < 0.05

    def test_incomplete_seasons_are_dropped(self):
        cfg = SimConfig(n_seasons=3, seed=4)
        task, treated_rows, control_rows, calendar = simulated_rows(cfg)
        win = calendar.window_for(cfg.product)
        gap_year = cfg.first_year + 1
        missing_week = offset_weeks(win, gap_year, 4)[0]
        thinned = without_weeks(treated_rows, [missing_week])
        result = pretrend_placebo(task, thinned, control_rows, calendar,
                                  reps=50, seed=7)
        assert result.seasons_used == 2

    def test_no_usable_season_is_infeasible(self):
        cfg = SimConfig(n_seasons=2, seed=4)
        task, treated_rows, control_rows, calendar = simulated_rows(cfg)
        win = calendar.window_for(cfg.product)
        blocked = set()
        for year in (cfg.first_year, cfg.first_year + 1):
            blocked.update(offset_weeks(win, year, 4))
        thinned = without_weeks(treated_rows, blocked)
        with pytest.raises(InfeasibleSampleError) as excinfo:
            pretrend_placebo(task, thinned, control_rows, calendar, reps=50, seed=7)
        assert excinfo.value.reason == "pretrend_no_complete_season"


class TestRollingBiweeklyEffects:
    def protected_chunks(self, rows):
        """Per-season protected weeks, chunked in pairs like the estimator."""
        by_season = {}
        for season, phase, row_week in zip(rows.season.tolist(), rows.phase, weeks_of(rows)):
            if PHASES[phase] is PhaseLabel.PROTECTED:
                by_season.setdefault(season, set()).add(row_week)
        return {
            year: [sorted(weeks)[i : i + 2] for i in range(0, len(weeks), 2)]
            for year, weeks in by_season.items()
        }

    def test_constant_effect_shows_a_flat_profile(self):
        cfg = SimConfig(n_seasons=1, true_atet=20.0, seed=6)
        task, treated_rows, control_rows, calendar = simulated_rows(cfg)
        results = rolling_biweekly_effects(task, treated_rows, control_rows,
                                           calendar, reps=50, seed=1)
        chunks = self.protected_chunks(treated_rows)
        assert len(results) == max(len(c) for c in chunks.values())
        assert [r.biweek for r in results] == list(range(1, len(results) + 1))
        for result in results:
            assert result.status == "ok"
            assert result.reason is None
            assert_allclose(result.estimate.atet, 20.0, atol=1e-9)

    def test_multi_season_profile_pools_by_observation_count(self):
        # seasons drift on the ISO grid, so a biweek can pool a two-week
        # chunk from one season with a one-week chunk from another; the
        # cell-means pooling then deviates slightly from the per-season
        # effect, and is exact whenever every season contributes full pairs
        cfg = SimConfig(n_seasons=2, true_atet=20.0, seed=6)
        task, treated_rows, control_rows, calendar = simulated_rows(cfg)
        results = rolling_biweekly_effects(task, treated_rows, control_rows,
                                           calendar, reps=50, seed=1)
        for result in results:
            assert result.status == "ok"
            assert abs(result.estimate.atet - 20.0) < 0.5
            if result.estimate.n_by_cell[0] == 2 * result.seasons_used:
                assert_allclose(result.estimate.atet, 20.0, atol=1e-9)

    def test_trailing_odd_week_forms_a_short_biweek(self):
        cfg = SimConfig(n_seasons=1, weeks_per_season=30, protected_start=8,
                        protected_end=21, true_atet=20.0, seed=6)  # 13 weeks
        task, treated_rows, control_rows, calendar = simulated_rows(cfg)
        results = rolling_biweekly_effects(task, treated_rows, control_rows,
                                           calendar, reps=50, seed=1)
        assert len(results) == 7
        last = results[-1]
        assert last.status == "ok"
        # the final biweek holds a single week: 2 treated + 0 control rows in
        # the pseudo-post cell on the control side comes from the same week
        assert last.estimate.n_by_cell[0] == 1
        assert_allclose(last.estimate.atet, 20.0, atol=1e-9)

    def test_unobserved_biweeks_are_marked_infeasible(self):
        cfg = SimConfig(n_seasons=2, true_atet=20.0, seed=6)
        task, treated_rows, control_rows, calendar = simulated_rows(cfg)
        chunks = self.protected_chunks(treated_rows)
        n_common = min(len(c) for c in chunks.values())
        blocked = set()
        for year, season_chunks in chunks.items():
            for chunk in season_chunks[n_common - 1 :]:
                blocked.update(chunk)
        thinned = without_weeks(treated_rows, blocked)
        results = rolling_biweekly_effects(task, thinned, control_rows,
                                           calendar, reps=50, seed=1)
        for result in results:
            if result.biweek < n_common:
                assert result.status == "ok"
            else:
                assert result.status == "infeasible"
                assert result.reason == "no_complete_season"
                assert result.estimate is None
                assert result.seasons_used == 0

    def test_all_boundary_window_cannot_roll(self):
        calendar = ProtectionCalendar({"tomato": window("06-07", "06-09")})
        task = basic_task(product="tomato")
        treated_rows = outcome_panel([
            outcome_row("CH", week(2016, 10 + j), 100.0, PhaseLabel.UNPROTECTED, 2016)
            for j in range(6)
        ])
        control_rows = outcome_panel([
            outcome_row("DE", week(2016, 10 + j), 100.0, PhaseLabel.UNPROTECTED, 2016)
            for j in range(6)
        ])
        with pytest.raises(InfeasibleSampleError) as excinfo:
            rolling_biweekly_effects(task, treated_rows, control_rows, calendar,
                                     reps=50, seed=1)
        assert excinfo.value.reason == "rolling_no_protected_weeks"


class TestDescribeDistribution:
    def hand_rows(self):
        return outcome_panel([
            # DE protected: two units with means 10 and 30
            outcome_row("DE", week(2016, 20), 5.0, PhaseLabel.PROTECTED, 2016),
            outcome_row("DE", week(2016, 21), 15.0, PhaseLabel.PROTECTED, 2016),
            outcome_row("DE", week(2016, 20), 30.0, PhaseLabel.PROTECTED, 2016,
                        quality=Quality.ORGANIC),
            # DE unprotected: one unit
            outcome_row("DE", week(2016, 10), 7.0, PhaseLabel.UNPROTECTED, 2016),
            # CH protected: one unit
            outcome_row("CH", week(2016, 20), 2.0, PhaseLabel.PROTECTED, 2016),
        ])

    def test_two_stage_aggregation_by_hand(self):
        summaries = describe_distribution(self.hand_rows(), Outcome.LEVEL)
        assert [(s.country, s.phase) for s in summaries] == [
            ("CH", PhaseLabel.PROTECTED),
            ("DE", PhaseLabel.PROTECTED),
            ("DE", PhaseLabel.UNPROTECTED),
        ]
        de_protected = summaries[1]
        assert de_protected.n == 2
        assert_allclose(
            (de_protected.mean, de_protected.q1, de_protected.median, de_protected.q3),
            (20.0, 15.0, 20.0, 25.0),
        )
        de_unprotected = summaries[2]
        assert de_unprotected.n == 1
        assert de_unprotected.q1 == de_unprotected.median == de_unprotected.q3 == 7.0

    def test_input_order_is_irrelevant(self):
        rows = self.hand_rows()
        order = list(range(len(rows)))
        random.Random(5).shuffle(order)
        shuffled = rows.take(np.array(order))
        assert describe_distribution(rows, Outcome.LEVEL) == describe_distribution(
            shuffled, Outcome.LEVEL
        )

    def test_regions_are_separate_units(self):
        rows = outcome_panel([
            outcome_row("DE", week(2016, 20), 10.0, PhaseLabel.PROTECTED, 2016,
                        region="north"),
            outcome_row("DE", week(2016, 20), 30.0, PhaseLabel.PROTECTED, 2016,
                        region="south"),
        ])
        summary = describe_distribution(rows, Outcome.LEVEL)[0]
        assert summary.n == 2
        assert summary.mean == 20.0

    def test_constant_price_panel(self, tomato_calendar):
        prices = [
            price_row("tomato", "CH", week(2016, number), 80.0)
            for number in range(10, 45)
        ]
        labeled = label_panel(panel_rows(prices), tomato_calendar)
        level = describe_distribution(standardize_prices(labeled), Outcome.LEVEL)
        for summary in level:
            assert_allclose(
                (summary.mean, summary.q1, summary.median, summary.q3),
                (100.0, 100.0, 100.0, 100.0),
            )
        volatility = describe_distribution(compute_volatility(labeled), Outcome.VOLATILITY)
        for summary in volatility:
            assert summary.mean == 0.0


class TestDiagnosticsEqualTheRowLevelOracle:
    """Placebo, rolling effects and summaries on array rows equal those of
    the row-level oracle in ``oracles.py``, to the last bit."""

    CONFIGS = {
        "plain": SimConfig(n_seasons=3, noise_sd=2.0, seed=4),
        "missing-weeks": SimConfig(n_seasons=4, noise_sd=3.0, missing_week_prob=0.15, seed=5),
        "midweek-edges": SimConfig(n_seasons=3, noise_sd=1.0, midweek_boundaries=True,
                                   trend_divergence_per_week=1.0, seed=6),
    }

    @staticmethod
    def outcome_of(fn, *args):
        try:
            return fn(*args)
        except SeasonDidError as exc:
            return type(exc), str(exc)

    @pytest.mark.parametrize("outcome", list(Outcome))
    @pytest.mark.parametrize("name", list(CONFIGS))
    def test_placebo_rolling_and_describe(self, name, outcome):
        cfg = self.CONFIGS[name]
        treated, control, calendar = generate_panel(cfg)
        observations = treated + control
        store = PanelStore(observations)
        task = basic_task(outcome, product=cfg.product, control_country=cfg.control_country)
        rows = prepare_outcome_rows(task, store, calendar)
        oracle_rows = oracles.prepare_outcome_rows(task, observations, calendar)
        for fn, oracle_fn in ((pretrend_placebo, oracles.pretrend_placebo),
                              (rolling_biweekly_effects, oracles.rolling_biweekly_effects)):
            got = self.outcome_of(fn, task, *rows, calendar, 30, 7)
            assert got == self.outcome_of(oracle_fn, task, *oracle_rows, calendar, 30, 7)
        for side, oracle_side in zip(rows, oracle_rows):
            got = describe_distribution(side, outcome)
            assert got == oracles.describe_distribution(oracle_side, outcome)

    @pytest.mark.parametrize("min_cell", [6, 7, 12])
    def test_the_placebo_reads_min_cell(self, min_cell):
        cfg = self.CONFIGS["plain"]
        treated, control, calendar = generate_panel(cfg)
        observations = treated + control
        task = basic_task(product=cfg.product, control_country=cfg.control_country,
                          min_cell=min_cell)
        rows = prepare_outcome_rows(task, PanelStore(observations), calendar)
        oracle_rows = oracles.prepare_outcome_rows(task, observations, calendar)
        got = self.outcome_of(pretrend_placebo, task, *rows, calendar, 30, 7)
        assert got == self.outcome_of(oracles.pretrend_placebo, task, *oracle_rows, calendar,
                                      30, 7)
        # three seasons of two pseudo-post and two pre weeks: six rows a cell
        if min_cell > 6:
            assert got[1].startswith("small_cell(D=1,T=1)")
        else:
            assert got.estimate.n_by_cell == (6, 6, 6, 6)

    @pytest.mark.parametrize("outcome", list(Outcome))
    def test_a_side_that_pools_regions(self, outcome):
        # three control regions, each missing its own weeks, pooled into one
        # market: most weeks hold several control rows, some one
        cfg = SimConfig(n_seasons=4, noise_sd=2.0, missing_week_prob=0.15, seed=8)
        treated, _, calendar = generate_panel(cfg)
        control = [
            dataclasses.replace(obs, region=region)
            for seed, region in ((9, "north"), (10, "south"), (11, "west"))
            for obs in generate_panel(dataclasses.replace(cfg, seed=seed))[1]
        ]
        observations = treated + control
        task = basic_task(outcome, product=cfg.product, control_country=cfg.control_country)
        assert task.control.region is None
        rows = prepare_outcome_rows(task, PanelStore(observations), calendar)
        oracle_rows = oracles.prepare_outcome_rows(task, observations, calendar)
        by_week = rows[1].values_by_week
        assert max(values.size for values in by_week.values()) == 3
        assert min(values.size for values in by_week.values()) == 1
        for fn, oracle_fn in ((pretrend_placebo, oracles.pretrend_placebo),
                              (rolling_biweekly_effects, oracles.rolling_biweekly_effects)):
            got = fn(task, *rows, calendar, 30, 7)
            assert got == oracle_fn(task, *oracle_rows, calendar, 30, 7)

    def test_values_by_week_of_no_rows(self):
        empty = np.empty(0, dtype=np.int64)
        assert PanelRows((), empty, empty, np.empty(0)).values_by_week == {}

    @pytest.mark.parametrize("name", list(CONFIGS))
    def test_describe_of_a_whole_store(self, name):
        # as the describe command does it: every series on its own window
        treated, control, calendar = generate_panel(self.CONFIGS[name])
        store = PanelStore(control + treated)
        labeled = label_panel(store.rows(), calendar)
        ordered = [
            obs for key in store.series()
            for obs in oracles.rows_matching(control + treated, key.product, key.quality,
                                             key.country, key.region)
        ]
        oracle_labeled = oracles.label_panel(ordered, calendar)
        pairs = (
            (standardize_prices, oracles.standardize_prices, Outcome.LEVEL),
            (compute_volatility, oracles.compute_volatility, Outcome.VOLATILITY),
        )
        for transform, oracle_transform, outcome in pairs:
            assert describe_distribution(transform(labeled), outcome) == (
                oracles.describe_distribution(oracle_transform(oracle_labeled), outcome)
            )


def joined(directory, effects, method="ipw"):
    """``join_effect_attributes`` of an effects table and an attributes file
    written from ``effects``, a list of (outcome, effect, AttributeRecord)."""
    effects_path, attributes_path = directory / "effects.csv", directory / "attributes.csv"
    with attributes_path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(ATTRIBUTE_HEADER)
        records = dict.fromkeys(record for _, _, record in effects)
        writer.writerows([getattr(r, name) for name in ATTRIBUTE_HEADER] for r in records)
    with effects_path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(EFFECTS_COLUMNS)
        for outcome, effect, r in effects:
            writer.writerow([r.product, r.quality, r.comparison, outcome, "ipw", repr(effect),
                             "1.0", "0.5", 10, 10, 10, 10, 0, 25, 7])
    return join_effect_attributes(effects_path, attributes_path, method)


def random_effects(gen, countries, per_cell, qualities=tuple(Quality), outcomes=tuple(Outcome)):
    """(outcome, effect, attributes) of ``per_cell`` products in each
    (quality, country) cell, for each outcome."""
    records = [
        AttributeRecord(
            product=f"veg{j}",
            quality=quality,
            comparison=country,
            harvested_once=j % 2,
            storability_weeks=float(gen.integers(2, 9)),
            market_share_pct=float(gen.uniform(0.1, 20.0)),
            days_protection=float(gen.integers(30, 200)),
        )
        for quality in qualities for country in countries for j in range(per_cell)
    ]
    return [(outcome, float(gen.normal(10.0, 20.0)), r) for outcome in outcomes for r in records]


def oracle_design(effects, countries, include_conventional):
    """The design of ``effects``: const, the conventional dummy if asked, a
    dummy for each country after the first in sorted order, then the four
    attributes; its constant columns other than const are pruned.
    Returns the kept columns, their names and the pruned names."""
    records = [r for _, _, r in effects]
    columns = {"const": np.ones(len(records))}
    if include_conventional:
        columns["conventional"] = np.array(
            [float(r.quality is Quality.CONVENTIONAL) for r in records]
        )
    for country in sorted(countries)[1:]:
        columns[f"country_{country}"] = np.array([float(r.comparison == country) for r in records])
    for name in ["harvested_once", "storability_weeks", "market_share_pct", "days_protection"]:
        columns[name] = np.array([float(getattr(r, name)) for r in records])
    dropped = tuple(name for name, v in columns.items() if name != "const" and np.ptp(v) == 0)
    names = [name for name in columns if name not in dropped]
    return np.column_stack([columns[name] for name in names]), names, dropped


class TestJoinEffectAttributes:
    def test_rows_of_the_method_are_joined_with_their_attributes(self, tmp_path, rng):
        effects = random_effects(rng, ["FR", "DE"], per_cell=2)
        rows = joined(tmp_path, effects)
        assert rows == [EffectAttributeRow(*effect) for effect in effects]
        with pytest.raises(ConfigError, match="no effect rows with method 'ols'"):
            joined(tmp_path, effects, method="ols")

    def test_every_missing_attribute_row_is_named(self, tmp_path, rng):
        effects = random_effects(rng, ["FR"], per_cell=2)
        joined(tmp_path, effects)
        with (tmp_path / "effects.csv").open("a", newline="") as handle:
            handle.write("kale,organic,AT,level,ipw,1.5,1,1,1,1,1,1,0,25,7\n")
            handle.write("kale,organic,DE,level,ipw,1.5,1,1,1,1,1,1,0,25,7\n")
        with pytest.raises(ConfigError) as excinfo:
            join_effect_attributes(tmp_path / "effects.csv", tmp_path / "attributes.csv", "ipw")
        assert str(excinfo.value).endswith("kale/organic/AT, kale/organic/DE")

    def test_an_effects_file_that_is_not_utf8_is_an_ingest_error_naming_it(self, tmp_path, rng):
        joined(tmp_path, random_effects(rng, ["FR"], per_cell=2))
        with (tmp_path / "effects.csv").open("ab") as handle:
            handle.write("kale,organic,Zürich,level,ipw,1.5,1,1,1,1,1,1,0,25,7\n".encode("latin-1"))
        with pytest.raises(IngestError, match=r"^effects\.csv: not UTF-8 text"):
            join_effect_attributes(tmp_path / "effects.csv", tmp_path / "attributes.csv", "ipw")

    @pytest.mark.parametrize("row,needle", [
        ("kale,organic,AT,levels,ipw,1.5", "'levels' is not a valid Outcome"),
        ("kale,premium,AT,level,ipw,1.5", "unknown quality 'premium'"),
        ("kale,organic,AT,level,ipw,", "could not convert string to float: ''"),
        ("kale,organic,AT,level,ipw,inf", "atet must be a finite number, got inf"),
        ("kale,organic,AT,level,ipw,NaN", "atet must be a finite number, got nan"),
    ])
    def test_bad_effects_rows_are_ingest_errors_with_positions(self, tmp_path, rng, row, needle):
        joined(tmp_path, random_effects(rng, ["FR"], per_cell=2))
        with (tmp_path / "effects.csv").open("a", newline="") as handle:
            handle.write(row + ",1,1,1,1,1,1,0,25,7\n")
            handle.write("kale,organic,AT,level,ipw,1.5,1,1\n")
        with pytest.raises(IngestError) as excinfo:
            join_effect_attributes(tmp_path / "effects.csv", tmp_path / "attributes.csv", "ipw")
        message = str(excinfo.value)
        assert f"effects.csv:10: {needle}" in message
        assert "effects.csv:11: expected 15 fields, got 8" in message


    def test_rows_of_other_methods_are_checked_before_they_are_left_out(self, tmp_path, rng):
        joined(tmp_path, random_effects(rng, ["FR"], per_cell=2))
        with (tmp_path / "effects.csv").open("a", newline="") as handle:
            handle.write("tomato,premium,DE,levels,ols,steep,1,1,1,1,1,1,0,25,7\n")
            handle.write("tomato,conventional,DE,level,IPW ,2.5,1,1,1,1,1,1,0,25,7\n")
        with pytest.raises(IngestError) as excinfo:
            join_effect_attributes(tmp_path / "effects.csv", tmp_path / "attributes.csv", "ipw")
        message = str(excinfo.value)
        assert message.startswith("2 invalid rows in effects.csv:")
        assert "effects.csv:10: unknown quality 'premium'" in message
        assert "effects.csv:11: unknown method 'IPW'" in message


class TestHeterogeneityRegression:
    def test_single_quality_rows_match_the_oracle(self, tmp_path, rng):
        effects = random_effects(rng, ["FR", "DE", "IT"], per_cell=4,
                                 qualities=(Quality.CONVENTIONAL,), outcomes=(Outcome.LEVEL,))
        results = heterogeneity_regression(joined(tmp_path, effects))
        by_name = {r.subsample: r for r in results}
        assert set(by_name) == {"pooled", "conventional"}  # no organic rows

        # in an all-conventional sample the dummy is constant and is pruned
        pooled = by_name["pooled"].fit
        assert pooled.dropped_columns == ("conventional",)
        x, names, _ = oracle_design(effects, ["FR", "DE", "IT"], include_conventional=False)
        beta, se = normal_equations_ols(x, np.array([effect for _, effect, _ in effects]))
        assert pooled.column_names == tuple(names)
        assert_allclose(pooled.coefficients, beta, atol=1e-8)
        assert_allclose(pooled.standard_errors, se, atol=1e-8)
        # the conventional subsample fits the same design
        assert_allclose(by_name["conventional"].fit.coefficients, beta, atol=1e-8)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.sampled_from(["AT", "BE", "CH", "DE", "ES", "FR", "IT", "NL"]),
                    min_size=1, max_size=5, unique=True),
           st.integers(0, 2**32 - 1), st.booleans())
    def test_all_six_columns_match_the_oracle(self, countries, seed, gap):
        effects = random_effects(np.random.default_rng(seed), countries,
                                 per_cell=-(-12 // len(countries)) + 1)
        if gap and len(countries) > 1:
            # the organic rows lack the last country, whose dummy they then drop
            gone = (Quality.ORGANIC, max(countries))
            effects = [e for e in effects if (e[2].quality, e[2].comparison) != gone]
        with tempfile.TemporaryDirectory() as directory:
            results = heterogeneity_regression(joined(Path(directory), effects))
        assert len(results) == 6
        for result in results:
            subset = [e for e in effects if e[0] is result.outcome]
            if result.subsample != "pooled":
                subset = [e for e in subset if e[2].quality.value == result.subsample]
            pooled = result.subsample == "pooled"
            x, names, dropped = oracle_design(subset, countries, include_conventional=pooled)
            y = np.array([effect for _, effect, _ in subset])
            beta, se = normal_equations_ols(x, y)
            assert result.n == len(subset)
            assert result.fit.column_names == tuple(names)
            assert result.fit.dropped_columns == dropped
            assert_allclose(result.fit.coefficients, beta, atol=1e-8)
            assert_allclose(result.fit.standard_errors, se, atol=1e-8)
            fitted = x @ beta
            tss = float(((y - y.mean()) ** 2).sum())
            rss = float(((y - fitted) ** 2).sum())
            assert_allclose(result.r_squared, 1.0 - rss / tss, atol=1e-10)

    def test_constant_effects_put_everything_in_the_intercept(self, tmp_path):
        effects = [
            (
                Outcome.LEVEL,
                42.0,
                AttributeRecord(
                    product=f"veg{i}",
                    quality=Quality.CONVENTIONAL if i % 2 else Quality.ORGANIC,
                    comparison=["DE", "IT", "FR"][i % 3],
                    harvested_once=(i // 2) % 2,
                    storability_weeks=float(2 + i % 5),
                    market_share_pct=float(1 + (3 * i) % 17),
                    days_protection=float(40 + (i * i) % 31),
                ),
            )
            for i in range(20)
        ]
        results = heterogeneity_regression(joined(tmp_path, effects))
        pooled = [r for r in results if r.subsample == "pooled"][0]
        assert_allclose(pooled.fit.coefficient("const"), 42.0, atol=1e-8)
        for name in pooled.fit.column_names[1:]:
            assert_allclose(pooled.fit.coefficient(name), 0.0, atol=1e-8)
        assert pooled.r_squared == 0.0

    def test_each_fit_takes_its_reference_from_its_own_rows(self, tmp_path, rng):
        # The conventional rows lack AT, the first country of all rows: with
        # AT as their reference, their DE and FR dummies would sum to const.
        effects = random_effects(rng, ["DE", "FR"], per_cell=5,
                                 qualities=(Quality.CONVENTIONAL,))
        effects += random_effects(rng, ["AT", "DE", "FR"], per_cell=5,
                                  qualities=(Quality.ORGANIC,))
        results = heterogeneity_regression(joined(tmp_path, effects))
        fits = {(r.outcome, r.subsample): r.fit for r in results}
        assert len(fits) == 6
        for outcome in Outcome:
            assert fits[outcome, "pooled"].column_names[:4] == (
                "const", "conventional", "country_DE", "country_FR")
            assert fits[outcome, "organic"].column_names[:3] == (
                "const", "country_DE", "country_FR")
            conventional = fits[outcome, "conventional"]
            assert conventional.column_names[:2] == ("const", "country_FR")
            assert conventional.dropped_columns == ("country_AT",)
            subset = [e for e in effects
                      if e[0] is outcome and e[2].quality is Quality.CONVENTIONAL]
            x, names, _ = oracle_design(subset, ["DE", "FR"], include_conventional=False)
            beta, se = normal_equations_ols(x, np.array([effect for _, effect, _ in subset]))
            assert conventional.column_names == tuple(names)
            assert_allclose(conventional.coefficients, beta, atol=1e-8)
            assert_allclose(conventional.standard_errors, se, atol=1e-8)

    def test_subsample_design_drops_only_the_quality_dummy(self, tmp_path, rng):
        effects = random_effects(rng, ["FR", "DE", "IT"], per_cell=4, outcomes=(Outcome.LEVEL,))
        results = {r.subsample: r for r in heterogeneity_regression(joined(tmp_path, effects))}
        pooled_names = results["pooled"].fit.column_names
        assert pooled_names[:4] == ("const", "conventional", "country_FR", "country_IT")
        for subsample in ("conventional", "organic"):
            names = results[subsample].fit.column_names
            assert names == tuple(n for n in pooled_names if n != "conventional")
