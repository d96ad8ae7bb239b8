"""Phase labeling and season assignment."""

import pytest

from seasondid import (
    IsoWeek,
    PhaseLabel,
    ProtectionCalendar,
    SeasonId,
    apply_boundary_exclusion,
    assign_season_week,
    label_panel,
    label_week,
    season_start_week,
    week_range,
    weeks_between,
)
from seasondid.errors import CalendarMissError, ConfigError

from conftest import price_row, week, window
from oracles import midpoint_week_by_enumeration

MAY_AUG = window("05-10", "08-31")


class TestLabelWeek:
    def test_interior_weeks_are_protected(self):
        # 2016: May 10 is a Tuesday, Aug 31 a Wednesday
        for number in range(20, 35):
            assert label_week(MAY_AUG, week(2016, number)) is PhaseLabel.PROTECTED

    def test_outside_weeks_are_unprotected(self):
        for number in (1, 10, 18, 36, 45, 52):
            assert label_week(MAY_AUG, week(2016, number)) is PhaseLabel.UNPROTECTED

    def test_midweek_start_and_end_are_boundary(self):
        assert label_week(MAY_AUG, week(2016, 19)) is PhaseLabel.BOUNDARY
        assert label_week(MAY_AUG, week(2016, 35)) is PhaseLabel.BOUNDARY

    def test_monday_start_makes_the_first_week_protected(self):
        # 2021: May 10 is a Monday, so week 19 is protected wall to wall
        assert week(2021, 19).monday().isoweekday() == 1
        assert label_week(MAY_AUG, week(2021, 19)) is PhaseLabel.PROTECTED
        assert label_week(MAY_AUG, week(2021, 18)) is PhaseLabel.UNPROTECTED


class TestSeasonStart:
    def test_frozen_example_odd_gap(self):
        # Between the 2016 window (ends in week 2016-W35) and the 2017 window
        # (starts in week 2017-W19) lie 35 whole weeks: 2016-W36 .. 2017-W18.
        # The midpoint week at index (35 - 1) // 2 = 17 is 2017-W01.
        assert MAY_AUG.end_week(2016) == week(2016, 35)
        assert MAY_AUG.start_week(2017) == week(2017, 19)
        assert season_start_week(MAY_AUG, 2017) == week(2017, 1)

    @pytest.mark.parametrize(
        "win",
        [MAY_AUG, window("06-01", "11-15"), window("03-03", "10-20"), window("01-20", "02-10")],
    )
    @pytest.mark.parametrize("year", [2015, 2016, 2017, 2019, 2021])
    def test_matches_gap_enumeration_oracle(self, win, year):
        previous_end = win.end_week(year - 1)
        start = win.start_week(year)
        gap_weeks = week_range(previous_end, start)[1:-1]  # strictly between
        if not gap_weeks:
            assert season_start_week(win, year) == start
            return
        expected = midpoint_week_by_enumeration(gap_weeks)
        assert season_start_week(win, year) == expected
        if len(gap_weeks) % 2 == 0:
            # ties round toward the earlier period: the earlier central week
            assert expected == gap_weeks[len(gap_weeks) // 2 - 1]

    def test_season_start_is_never_protected(self):
        for year in range(2014, 2022):
            start = season_start_week(MAY_AUG, year)
            assert label_week(MAY_AUG, start) is not PhaseLabel.PROTECTED


class TestAssignSeason:
    def test_seasons_tile_the_week_axis(self):
        weeks = week_range(week(2014, 30), week(2018, 30))
        seasons = [assign_season_week(MAY_AUG, w) for w in weeks]
        assert seasons == sorted(seasons)
        for previous, current, current_week in zip(seasons, seasons[1:], weeks[1:]):
            assert current - previous in (0, 1)
            if current != previous:
                assert season_start_week(MAY_AUG, current) == current_week

    def test_each_week_within_its_season_bounds(self):
        for wk in week_range(week(2015, 1), week(2017, 52)):
            season = assign_season_week(MAY_AUG, wk)
            assert not wk < season_start_week(MAY_AUG, season)
            assert wk < season_start_week(MAY_AUG, season + 1)

    def test_protected_weeks_belong_to_their_calendar_year_season(self):
        for year in (2015, 2016, 2017, 2020):
            for wk in week_range(
                MAY_AUG.start_week(year).next(), MAY_AUG.end_week(year).prev()
            ):
                assert assign_season_week(MAY_AUG, wk) == year


class TestLabelPanel:
    def test_labels_and_seasons_attach_per_row(self, tomato_calendar):
        rows = [
            price_row("tomato", "CH", week(2016, 25), 240.0),
            price_row("tomato", "CH", week(2016, 10), 220.0),
            price_row("tomato", "CH", week(2016, 19), 230.0),
        ]
        labeled = label_panel(rows, tomato_calendar)
        assert [r.phase for r in labeled] == [
            PhaseLabel.PROTECTED,
            PhaseLabel.UNPROTECTED,
            PhaseLabel.BOUNDARY,
        ]
        assert all(r.season == SeasonId("tomato", 2016) for r in labeled)
        assert [r.obs for r in labeled] == rows

    def test_window_product_puts_controls_on_the_treated_timeline(self, tomato_calendar):
        control = [price_row("paradeiser", "DE", week(2016, 25), 150.0)]
        labeled = label_panel(control, tomato_calendar, window_product="tomato")
        assert labeled[0].phase is PhaseLabel.PROTECTED
        assert labeled[0].season == SeasonId("tomato", 2016)
        with pytest.raises(CalendarMissError):
            label_panel(control, tomato_calendar)  # own product has no window

    def test_rows_sharing_a_week_use_their_own_products_window(self):
        calendar = ProtectionCalendar(
            {"tomato": window("05-10", "08-31"), "leek": window("09-05", "11-30")}
        )
        rows = [
            price_row("tomato", "CH", week(2016, 25), 240.0),
            price_row("leek", "CH", week(2016, 25), 90.0),
            price_row("tomato", "DE", week(2016, 25), 150.0),
        ]
        labeled = label_panel(rows, calendar)
        assert [r.phase for r in labeled] == [
            PhaseLabel.PROTECTED,
            PhaseLabel.UNPROTECTED,
            PhaseLabel.PROTECTED,
        ]
        assert [r.season.product for r in labeled] == ["tomato", "leek", "tomato"]

    def test_boundary_exclusion_drops_only_boundary_rows(self, tomato_calendar):
        rows = [
            price_row("tomato", "CH", week(2016, 19), 230.0),  # boundary
            price_row("tomato", "CH", week(2016, 25), 240.0),
            price_row("tomato", "CH", week(2016, 35), 210.0),  # boundary
            price_row("tomato", "CH", week(2016, 40), 200.0),
        ]
        labeled = label_panel(rows, tomato_calendar)
        kept = apply_boundary_exclusion(labeled)
        assert [r.obs.week.week for r in kept] == [25, 40]
        assert apply_boundary_exclusion(kept) == kept  # idempotent


def test_price_observations_must_be_positive_and_finite():
    with pytest.raises(ConfigError):
        price_row("tomato", "CH", week(2016, 25), 0.0)
    with pytest.raises(ConfigError):
        price_row("tomato", "CH", week(2016, 25), -1.0)
    with pytest.raises(ConfigError):
        price_row("tomato", "CH", week(2016, 25), float("nan"))
    with pytest.raises(ConfigError):
        price_row("tomato", "CH", week(2016, 25), float("inf"))


def test_weeks_between_used_by_seasons_is_consistent():
    # the gap arithmetic behind the midpoint rule
    assert weeks_between(week(2016, 35), week(2017, 19)) == 36
    assert len(week_range(week(2016, 35), week(2017, 19))[1:-1]) == 35
