"""Phase labeling and season assignment."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from seasondid import (
    IsoWeek,
    PanelRows,
    PanelStore,
    ProtectionWindow,
    PhaseLabel,
    ProtectionCalendar,
    Quality,
    SeriesKey,
    apply_boundary_exclusion,
    label_panel,
    label_week,
    season_start_week,
    week_seasons,
)
from seasondid.errors import CalendarMissError, ConfigError

import oracles
from helpers import (
    month_days, panel_rows, phases_of, price_row, shift, week, week_range, weeks_of, window,
)
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
        assert week(2017, 19).ordinal - week(2016, 35).ordinal == 36
        assert len(week_range(week(2016, 35), week(2017, 19))[1:-1]) == 35
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

    @settings(max_examples=300, deadline=None)
    @given(month_days, month_days, st.integers(1995, 2030))
    def test_any_window_matches_the_gap_enumeration_oracle(self, start, end, year):
        # windows anywhere in the year, 02-29 starts and ends included
        assume(start < end)
        win = ProtectionWindow(start, end)
        gap_weeks = week_range(win.end_week(year - 1), win.start_week(year))[1:-1]
        expected = midpoint_week_by_enumeration(gap_weeks) if gap_weeks else win.start_week(year)
        assert season_start_week(win, year) == expected

    def test_season_start_is_never_protected(self):
        for year in range(2014, 2022):
            start = season_start_week(MAY_AUG, year)
            assert label_week(MAY_AUG, start) is not PhaseLabel.PROTECTED


def seasons_of(window_, weeks) -> list[int]:
    return week_seasons(window_, np.array([w.ordinal for w in weeks])).tolist()


class TestAssignSeason:
    def test_seasons_tile_the_week_axis(self):
        weeks = week_range(week(2014, 30), week(2018, 30))
        seasons = seasons_of(MAY_AUG, weeks)
        assert seasons == sorted(seasons)
        for previous, current, current_week in zip(seasons, seasons[1:], weeks[1:]):
            assert current - previous in (0, 1)
            if current != previous:
                assert season_start_week(MAY_AUG, current) == current_week

    def test_each_week_within_its_season_bounds(self):
        weeks = week_range(week(2015, 1), week(2017, 52))
        for wk, season in zip(weeks, seasons_of(MAY_AUG, weeks)):
            assert not wk < season_start_week(MAY_AUG, season)
            assert wk < season_start_week(MAY_AUG, season + 1)

    def test_protected_weeks_belong_to_their_calendar_year_season(self):
        for year in (2015, 2016, 2017, 2020):
            first, last = MAY_AUG.start_week(year), MAY_AUG.end_week(year)
            weeks = week_range(shift(first, 1), shift(last, -1))
            assert set(seasons_of(MAY_AUG, weeks)) == {year}


class TestLabelPanel:
    def test_labels_and_seasons_attach_per_row(self, tomato_calendar):
        rows = [
            price_row("tomato", "CH", week(2016, 25), 240.0),
            price_row("tomato", "CH", week(2016, 10), 220.0),
            price_row("tomato", "CH", week(2016, 19), 230.0),
        ]
        raw = panel_rows(rows)  # rows of a series come in week order
        labeled = label_panel(raw, tomato_calendar)
        assert phases_of(labeled) == [
            PhaseLabel.UNPROTECTED,
            PhaseLabel.BOUNDARY,
            PhaseLabel.PROTECTED,
        ]
        assert all(season == 2016 for season in labeled.season)
        assert weeks_of(labeled) == [week(2016, 10), week(2016, 19), week(2016, 25)]
        assert labeled.value.tolist() == [220.0, 230.0, 240.0]
        assert labeled.keys == raw.keys

    def test_window_product_puts_controls_on_the_treated_timeline(self, tomato_calendar):
        control = panel_rows([price_row("paradeiser", "DE", week(2016, 25), 150.0)])
        labeled = label_panel(control, tomato_calendar, window_product="tomato")
        assert phases_of(labeled)[0] is PhaseLabel.PROTECTED
        assert labeled.season[0] == 2016  # a season of the tomato window
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
        labeled = label_panel(panel_rows(rows), calendar)  # series: leek, tomato CH, DE
        assert phases_of(labeled) == [
            PhaseLabel.UNPROTECTED,
            PhaseLabel.PROTECTED,
            PhaseLabel.PROTECTED,
        ]
        assert [labeled.keys[code].product for code in labeled.series] == [
            "leek", "tomato", "tomato"
        ]
        # seasons follow each row's own window too: in January 2016 the leek
        # season that began in 2015 is still running, the tomato 2016 one is not
        january = [price_row(p, "CH", week(2016, 3), 1.0) for p in ("tomato", "leek")]
        assert label_panel(panel_rows(january), calendar).season.tolist() == [2015, 2016]

    @pytest.mark.parametrize("year", [2, 9999])
    def test_years_that_cannot_be_labelled_are_refused(self, tomato_calendar, year):
        # rows built directly: a PanelStore refuses these weeks itself;
        # season starts of years 0 or 10000 have no date
        def one_row(wk):
            key = SeriesKey("tomato", Quality.CONVENTIONAL, "CH")
            return PanelRows((key,), np.zeros(1, dtype=np.int64), np.array([wk.ordinal]),
                             np.array([5.0]))

        with pytest.raises(ConfigError, match=f"year {year} is outside 3..9998"):
            label_panel(one_row(IsoWeek(year, 20)), tomato_calendar)
        edge = one_row(IsoWeek(3 if year == 2 else 9998, 20))
        assert len(label_panel(edge, tomato_calendar)) == 1

    @pytest.mark.parametrize("ordinal", [-5, 0, 10**9])
    def test_ordinals_outside_the_labelled_years_are_refused(self, tomato_calendar, ordinal):
        # 0 is 0001-W01, an ISO week of a year too early; -5 and 10**9 are
        # no ISO week at all
        key = SeriesKey("tomato", Quality.CONVENTIONAL, "CH")
        needle = "year 1 is outside 3..9998" if ordinal == 0 else f"week ordinal {ordinal} is no"
        with pytest.raises(ConfigError, match=needle):
            PanelStore.from_columns({key: ([ordinal, 1000], [1.0, 1.0])})
        rows = PanelRows((key,), np.zeros(1, dtype=np.int64), np.array([ordinal]),
                         np.array([5.0]))
        with pytest.raises(ConfigError, match=needle):
            label_panel(rows, tomato_calendar)

    def test_boundary_exclusion_drops_only_boundary_rows(self, tomato_calendar):
        rows = [
            price_row("tomato", "CH", week(2016, 19), 230.0),  # boundary
            price_row("tomato", "CH", week(2016, 25), 240.0),
            price_row("tomato", "CH", week(2016, 35), 210.0),  # boundary
            price_row("tomato", "CH", week(2016, 40), 200.0),
        ]
        labeled = label_panel(panel_rows(rows), tomato_calendar)
        kept = apply_boundary_exclusion(labeled)
        assert [wk.week for wk in weeks_of(kept)] == [25, 40]
        again = apply_boundary_exclusion(kept)  # idempotent
        assert weeks_of(again) == weeks_of(kept) and again.value.tolist() == kept.value.tolist()


class TestTake:
    @pytest.mark.parametrize(
        "pick", [np.array([2, 0, 2]), np.array([True, False, True, False]), slice(1, 3)]
    )
    def test_taken_rows_are_read_only_and_build_their_own_week_indexes(
        self, tomato_calendar, pick
    ):
        rows = [price_row("tomato", country, week(2016, w), float(w))
                for country, w in (("CH", 10), ("CH", 19), ("DE", 25), ("DE", 30))]
        for panel in (panel_rows(rows), label_panel(panel_rows(rows), tomato_calendar)):
            panel.sorted_weeks, panel.values_by_week  # noqa: B018  (build the indexes)
            taken = panel.take(pick)
            assert taken.keys is panel.keys
            for name in ("series", "week", "value", "phase", "season"):
                array = getattr(panel, name)
                got = getattr(taken, name)
                if array is None:
                    assert got is None
                    continue
                assert got.tolist() == array[pick].tolist() and got.dtype == array.dtype
                assert not got.flags.writeable
            assert "sorted_weeks" not in vars(taken) and "values_by_week" not in vars(taken)
            weeks = panel.week[pick]
            assert taken.sorted_weeks.tolist() == sorted(weeks.tolist()) + [np.iinfo(np.int64).max]
            assert set(taken.values_by_week) == set(weeks.tolist())


class TestLeapDayWindows:
    """A window that starts or ends on 02-29 is tested day by day as
    ``ProtectionWindow.contains`` tests it: in a common year no day is
    02-29, so a 02-29 start leaves 02-28 out and a 02-29 end takes it in
    (``MonthDay.date_in``, which moves 02-29 to 02-28, would put 02-28
    inside a 02-29 start)."""

    LATE = window("02-29", "06-30")
    EARLY = window("01-10", "02-29")

    def labels(self, window_, weeks):
        rows = panel_rows([price_row("okra", "CH", w, 1.0) for w in weeks])
        return phases_of(label_panel(rows, ProtectionCalendar({"okra": window_})))

    def test_a_leap_day_start_in_common_years(self):
        # 2021-W08 ends on Sunday 02-28; 2022-W09 starts on Monday 02-28
        assert self.labels(self.LATE, [week(2021, 8), week(2021, 9)]) == [
            PhaseLabel.UNPROTECTED, PhaseLabel.PROTECTED]
        assert self.labels(self.LATE, [week(2022, 8), week(2022, 9), week(2022, 10)]) == [
            PhaseLabel.UNPROTECTED, PhaseLabel.BOUNDARY, PhaseLabel.PROTECTED]

    def test_a_leap_day_end_in_common_years(self):
        assert self.labels(self.EARLY, [week(2021, 8), week(2021, 9)]) == [
            PhaseLabel.PROTECTED, PhaseLabel.UNPROTECTED]
        assert self.labels(self.EARLY, [week(2022, 8), week(2022, 9), week(2022, 10)]) == [
            PhaseLabel.PROTECTED, PhaseLabel.BOUNDARY, PhaseLabel.UNPROTECTED]

    @pytest.mark.parametrize("year", [2019, 2020, 2021, 2022, 2023, 2024])
    def test_every_week_follows_the_scalar_rule(self, year):
        weeks = week_range(week(year, 1), week(year, IsoWeek.weeks_in_year(year)))
        for window_ in (self.LATE, self.EARLY):
            assert self.labels(window_, weeks) == [oracles.label_week(window_, w) for w in weeks]


@settings(max_examples=150, deadline=None)
@given(month_days, month_days, st.integers(1995, 2030), st.integers(1, 300),
       st.sets(st.integers(0, 299), max_size=100))
def test_label_panel_applies_the_scalar_rules_to_every_row(start, end, year, n_weeks, gaps):
    # windows anywhere in the year, from one day long to nearly all of it
    assume(start < end)
    window_ = ProtectionWindow(start, end)
    weeks = [w for i, w in enumerate(week_range(week(year, 1), shift(week(year, 1), n_weeks)))
             if i not in gaps]
    rows = panel_rows([price_row("okra", "CH", w, 1.0) for w in weeks])
    labeled = label_panel(rows, ProtectionCalendar({"okra": window_}))
    assert phases_of(labeled) == [oracles.label_week(window_, w) for w in weeks]
    assert labeled.season.tolist() == [oracles.assign_season_week(window_, w) for w in weeks]


def test_price_observations_must_be_positive_and_finite():
    with pytest.raises(ConfigError):
        price_row("tomato", "CH", week(2016, 25), 0.0)
    with pytest.raises(ConfigError):
        price_row("tomato", "CH", week(2016, 25), -1.0)
    with pytest.raises(ConfigError):
        price_row("tomato", "CH", week(2016, 25), float("nan"))
    with pytest.raises(ConfigError):
        price_row("tomato", "CH", week(2016, 25), float("inf"))
