"""Outcome transforms: standardized levels and week-to-week volatility."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import oracles
from seasondid import (
    PHASES,
    IsoWeek,
    PanelRows,
    PhaseLabel,
    ProtectionCalendar,
    Quality,
    compute_volatility,
    label_panel,
    restrict_to_production_weeks,
    standardize_prices,
)
from seasondid.errors import EmptyOverlapError
from seasondid.panel import SeriesKey

from helpers import (
    oracle_records,
    panel_rows,
    phases_of,
    price_row,
    records,
    week,
    weeks_of,
    window,
)


def labeled_series(calendar, country="CH", product="tomato", prices=None, quality=None,
                   more=()):
    """One series' prices labelled on the tomato window; ``more`` adds the
    (country, prices) of further series to the same rows."""
    kwargs = {"quality": quality} if quality else {}
    rows = [
        price_row(product, c, wk, price, **kwargs)
        for c, series_prices in ((country, prices or {}), *more)
        for wk, price in series_prices.items()
    ]
    return label_panel(panel_rows(rows), calendar, window_product="tomato")


@pytest.fixture
def calendar():
    return ProtectionCalendar({"tomato": window("05-10", "08-31")})


class TestStandardize:
    def test_hand_example(self, calendar):
        labeled = labeled_series(
            calendar, prices={week(2016, 24): 100.0, week(2016, 25): 300.0}
        )
        out = standardize_prices(labeled)
        # season mean is 200, so the values are 50 and 150
        assert_allclose(out.value, [50.0, 150.0])
        assert all(season == 2016 for season in out.season)

    def test_mean_is_100_per_series_season_cell(self, calendar, rng):
        prices = {}
        for year in (2015, 2016):
            for number in range(10, 45):
                prices[week(year, number)] = float(rng.uniform(50, 400))
        labeled = labeled_series(calendar, prices=prices)
        out = standardize_prices(labeled)
        for year in (2015, 2016):
            values = out.value[out.season == year]
            assert_allclose(np.mean(values), 100.0, atol=1e-9)

    def test_cells_split_by_series_not_only_season(self, calendar):
        # two series in the same season standardize independently
        both = labeled_series(
            calendar, country="CH", prices={week(2016, 24): 100.0, week(2016, 25): 300.0},
            more=[("DE", {week(2016, 24): 10.0, week(2016, 25): 30.0})],
        )
        out = standardize_prices(both)
        values = sorted(round(v, 9) for v in out.value)
        assert values == [50.0, 50.0, 150.0, 150.0]

    def test_scale_invariance(self, calendar, rng):
        prices = {week(2016, n): float(rng.uniform(50, 400)) for n in range(10, 45)}
        base = standardize_prices(labeled_series(calendar, prices=prices))
        scaled = standardize_prices(
            labeled_series(calendar, prices={k: 7.25 * v for k, v in prices.items()})
        )
        assert_allclose(scaled.value, base.value, rtol=1e-12)
        assert (scaled.week == base.week).all()

    def test_boundary_weeks_enter_the_season_mean(self, calendar):
        # 2016-W19 is a Boundary week; it still contributes to the mean
        labeled = labeled_series(
            calendar, prices={week(2016, 19): 100.0, week(2016, 24): 200.0, week(2016, 25): 300.0}
        )
        out = standardize_prices(labeled)
        assert_allclose(out.value, [50.0, 100.0, 150.0])
        assert phases_of(out)[0] is PhaseLabel.BOUNDARY


class TestVolatility:
    def test_hand_example_recorded_at_later_week(self, calendar):
        labeled = labeled_series(
            calendar,
            prices={week(2016, 24): 200.0, week(2016, 25): 230.0, week(2016, 26): 207.0},
        )
        out = compute_volatility(labeled)
        assert [wk.week for wk in weeks_of(out)] == [25, 26]
        assert_allclose(out.value, [0.15, 0.1])

    def test_gap_breaks_the_chain(self, calendar):
        labeled = labeled_series(
            calendar, prices={week(2016, 24): 200.0, week(2016, 26): 230.0}
        )
        assert len(compute_volatility(labeled)) == 0

    def test_phase_changes_and_boundary_weeks_break_the_chain(self, calendar):
        # weeks 18 (unprotected), 19 (boundary), 20 (protected): no pair is valid
        labeled = labeled_series(
            calendar,
            prices={week(2016, 18): 200.0, week(2016, 19): 210.0, week(2016, 20): 220.0},
        )
        assert len(compute_volatility(labeled)) == 0
        # without the boundary week in between, 18 -> 20 is a gap, still nothing
        labeled = labeled_series(
            calendar, prices={week(2016, 18): 200.0, week(2016, 20): 220.0}
        )
        assert len(compute_volatility(labeled)) == 0

    def test_uses_raw_prices_and_is_scale_free(self, calendar, rng):
        prices = {week(2016, n): float(rng.uniform(50, 400)) for n in range(21, 34)}
        base = compute_volatility(labeled_series(calendar, prices=prices))
        scaled = compute_volatility(
            labeled_series(calendar, prices={k: 3.0 * v for k, v in prices.items()})
        )
        assert_allclose(scaled.value, base.value, rtol=1e-12)

    def test_series_are_chained_independently(self, calendar):
        both = labeled_series(calendar, country="CH", prices={week(2016, 24): 100.0},
                              more=[("DE", {week(2016, 25): 300.0})])
        # consecutive weeks but different series: no change is defined
        assert len(compute_volatility(both)) == 0


class TestProductionWeekRestriction:
    def test_control_rows_outside_treated_weeks_are_dropped(self, calendar):
        treated = standardize_prices(
            labeled_series(calendar, country="CH", prices={week(2016, 24): 100.0, week(2016, 25): 300.0})
        )
        control = standardize_prices(
            labeled_series(
                calendar,
                country="DE",
                prices={week(2016, 24): 10.0, week(2016, 25): 30.0, week(2016, 30): 20.0},
            )
        )
        kept = restrict_to_production_weeks(control, treated)
        assert sorted(wk.week for wk in weeks_of(kept)) == [24, 25]

    def test_empty_control_passes_through(self, calendar):
        treated = standardize_prices(
            labeled_series(calendar, prices={week(2016, 24): 100.0})
        )
        empty = treated.take(np.zeros(len(treated), dtype=bool))
        assert len(restrict_to_production_weeks(empty, treated)) == 0


FIRST_WEEK = IsoWeek(2016, 1).ordinal


@st.composite
def market_rows(draw, product, quality, country, min_keys):
    """Transformed rows of one market over twelve weeks: up to three of its
    regional series, in series then week order; a key may have no rows."""
    regions = draw(st.lists(st.sampled_from([None, "north", "south"]), min_size=min_keys,
                            max_size=3, unique=True))
    keys = tuple(SeriesKey(product, quality, country, region) for region in regions)
    cells = sorted(draw(st.sets(st.tuples(st.integers(0, len(keys) - 1), st.integers(0, 11)),
                                max_size=30))) if keys else []
    n = len(cells)
    return PanelRows(
        keys,
        np.array([code for code, _ in cells], dtype=np.intp),
        FIRST_WEEK + np.array([offset for _, offset in cells], dtype=np.int64),
        np.arange(n, dtype=float),
        np.array(draw(st.lists(st.sampled_from([0, 1]), min_size=n, max_size=n)), np.int8),
        np.full(n, 2016),
    )


@st.composite
def task_sides(draw):
    """(control, treated, control product, treated product): the rows of a
    control market and of a Swiss market of the same quality."""
    quality = draw(st.sampled_from(list(Quality)))
    treated_product, control_product = (draw(st.sampled_from(["tomato", "leek"])),
                                        draw(st.sampled_from(["tomato", "leek", "porro"])))
    control = draw(market_rows(control_product, quality, draw(st.sampled_from(["DE", "IT"])),
                               min_keys=0))
    treated = draw(market_rows(treated_product, quality, "CH", min_keys=1))
    return control, treated, control_product, treated_product


def as_oracle_rows(rows: PanelRows) -> list:
    return [
        oracles.OutcomeObservation(rows.keys[code], IsoWeek.from_ordinal(w),
                                   oracles.SeasonId("tomato", season), PHASES[phase], value)
        for code, w, season, phase, value in zip(rows.series.tolist(), rows.week.tolist(),
                                                 rows.season.tolist(), rows.phase.tolist(),
                                                 rows.value.tolist())
    ]


@settings(max_examples=300, deadline=None)
@given(task_sides())
def test_restriction_matches_the_row_level_oracle(sides):
    control, treated, control_product, treated_product = sides
    try:
        kept = records(restrict_to_production_weeks(control, treated))
    except EmptyOverlapError as exc:
        kept = exc
    try:
        # the product map a task's control product needs to meet its treated one
        want = oracle_records(oracles.restrict_to_production_weeks(
            as_oracle_rows(control), as_oracle_rows(treated), {control_product: treated_product}))
    except EmptyOverlapError as exc:
        assert isinstance(kept, EmptyOverlapError), kept
        assert str(kept) == str(exc)
        return
    assert kept == want
