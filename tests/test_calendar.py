"""Protection-calendar parsing and window semantics."""

import csv
import datetime as dt

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from seasondid import IsoWeek, MonthDay, PhaseLabel, ProtectionCalendar, ProtectionWindow
from seasondid.errors import CalendarError, CalendarMissError

import oracles
from helpers import month_days, window

HEADER = "product,start_md,end_md\n"


class TestMonthDay:
    def test_parse_and_str_round_trip(self):
        md = MonthDay.parse("05-10")
        assert (md.month, md.day) == (5, 10)
        assert str(md) == "05-10"
        assert MonthDay.parse(" 11-03 ") == MonthDay(11, 3)

    @pytest.mark.parametrize(
        "bad", ["5/10", "0510", "13-01", "02-30", "05-", "-10", "a-b", "", "05-1²"]
    )
    def test_parse_rejects_malformed_text(self, bad):
        with pytest.raises(CalendarError):
            MonthDay.parse(bad)

    def test_ordering_is_within_year_chronological(self):
        assert MonthDay(5, 10) < MonthDay(8, 31)
        assert MonthDay(5, 10) < MonthDay(5, 11)
        assert not MonthDay(8, 31) < MonthDay(5, 10)

    def test_february_29_falls_back_off_leap_years(self):
        md = MonthDay(2, 29)
        assert md.date_in(2020) == dt.date(2020, 2, 29)
        assert md.date_in(2019) == dt.date(2019, 2, 28)


class TestProtectionWindow:
    def test_contains_is_inclusive_on_both_ends(self):
        win = window("05-10", "08-31")
        assert win.contains(dt.date(2016, 5, 10))
        assert win.contains(dt.date(2016, 8, 31))
        assert win.contains(dt.date(2016, 7, 1))
        assert not win.contains(dt.date(2016, 5, 9))
        assert not win.contains(dt.date(2016, 9, 1))
        assert not win.contains(dt.date(2016, 1, 15))
        # the same month-day rule applies in every year
        assert win.contains(dt.date(2019, 5, 10))

    def test_wrapping_window_is_rejected(self):
        with pytest.raises(CalendarError):
            window("11-01", "02-28")
        with pytest.raises(CalendarError):
            window("05-10", "05-10")

    def test_start_and_end_weeks_contain_the_dates(self):
        win = window("05-10", "08-31")
        for year in (2015, 2016, 2017, 2020):
            start_week = win.start_week(year)
            end_week = win.end_week(year)
            assert start_week.monday() <= dt.date(year, 5, 10) <= start_week.sunday()
            assert end_week.monday() <= dt.date(year, 8, 31) <= end_week.sunday()
        assert win.start_week(2016) == IsoWeek(2016, 19)
        assert win.end_week(2016) == IsoWeek(2016, 35)

    @pytest.mark.parametrize("year", [2010, 2021, 2027, 2038])
    def test_a_leap_day_start_opens_on_march_1_of_a_common_year(self, year):
        # Feb 28 is a Sunday in these years: its week lies wholly outside a
        # window whose first day is Mar 1, the Monday after
        win = window("02-29", "06-30")
        assert dt.date(year, 2, 28).isoweekday() == 7
        assert win.start_week(year) == IsoWeek.from_date(dt.date(year, 3, 1))
        assert win.start_week(2020) == IsoWeek.from_date(dt.date(2020, 2, 29))
        assert win.end_week(year) == IsoWeek.from_date(dt.date(year, 6, 30))


@settings(max_examples=200, deadline=None)
@given(month_days, month_days, st.integers(1995, 2030))
@example(MonthDay(2, 29), MonthDay(6, 30), 2021)  # Feb 28 2021 is a Sunday
@example(MonthDay(1, 10), MonthDay(2, 29), 2021)
def test_start_and_end_weeks_hold_a_day_of_the_window(start, end, year):
    assume(start < end)
    win = ProtectionWindow(start, end)
    for edge in (win.start_week(year), win.end_week(year)):
        assert oracles.label_week(win, edge) is not PhaseLabel.UNPROTECTED


class TestCalendarFile:
    def test_round_trip_with_header(self, tmp_path):
        path = tmp_path / "calendar.csv"
        path.write_text("product,start_md,end_md\ntomato,05-10,08-31\nleek,06-01,11-15\n")
        calendar = ProtectionCalendar.from_csv(path)
        assert calendar.products() == ["leek", "tomato"]
        assert "tomato" in calendar and "carrot" not in calendar
        assert calendar.window_for("tomato") == window("05-10", "08-31")

    def test_a_calendar_without_its_header_is_refused(self, tmp_path):
        path = tmp_path / "calendar.csv"
        path.write_text("tomato,05-10,08-31\n")
        with pytest.raises(CalendarError) as excinfo:
            ProtectionCalendar.from_csv(path)
        assert str(excinfo.value) == (
            "calendar.csv:1: expected header 'product,start_md,end_md', got 'tomato,05-10,08-31'"
        )

    def test_problems_carry_line_numbers_and_accumulate(self, tmp_path):
        path = tmp_path / "calendar.csv"
        path.write_text(
            "product,start_md,end_md\n"
            "tomato,05-10,08-31\n"
            "leek,13-40,11-15\n"
            "carrot,06-01\n"
            ",06-01,11-15\n"
        )
        with pytest.raises(CalendarError) as excinfo:
            ProtectionCalendar.from_csv(path)
        message = str(excinfo.value)
        assert "calendar.csv:3" in message
        assert "calendar.csv:4" in message
        assert "calendar.csv:5" in message

    def test_non_decimal_digits_are_a_row_problem(self, tmp_path):
        path = tmp_path / "cal.csv"
        path.write_text(HEADER + "tomato,05-10,08-31\nleek,05-1²,11-15\n", encoding="utf-8")
        with pytest.raises(CalendarError) as excinfo:
            ProtectionCalendar.from_csv(path)
        assert "cal.csv:3: expected MM-DD, got '05-1²'" in str(excinfo.value)

    def test_a_file_that_is_not_utf8_is_a_calendar_error_naming_it(self, tmp_path):
        path = tmp_path / "cal.csv"
        text = HEADER + "tomato,05-10,08-31\npomodoro_ü,05-10,08-31\n"
        path.write_bytes(text.encode("latin-1"))
        with pytest.raises(CalendarError, match=r"^cal\.csv: not UTF-8 text"):
            ProtectionCalendar.from_csv(path)
        path.write_bytes(text.encode("utf-8"))
        assert "pomodoro_ü" in ProtectionCalendar.from_csv(path)

    def test_a_cell_beyond_the_csv_field_limit(self, tmp_path):
        path = tmp_path / "cal.csv"
        product = "p" * (csv.field_size_limit() + 1)
        path.write_text(f"{HEADER}tomato,05-10,08-31\n{product},05-10,08-31\n")
        with pytest.raises(CalendarError, match="cal.csv:3: field larger than field limit"):
            ProtectionCalendar.from_csv(path)

    def test_duplicate_product_names_both_lines(self, tmp_path):
        path = tmp_path / "calendar.csv"
        path.write_text(HEADER + "tomato,05-10,08-31\ntomato,06-01,09-30\n")
        with pytest.raises(CalendarError) as excinfo:
            ProtectionCalendar.from_csv(path)
        message = str(excinfo.value)
        assert "calendar.csv:3" in message and "line 2" in message

    def test_empty_calendar_is_rejected(self, tmp_path):
        path = tmp_path / "calendar.csv"
        path.write_text("product,start_md,end_md\n")
        with pytest.raises(CalendarError):
            ProtectionCalendar.from_csv(path)

    def test_unknown_product_raises_calendar_miss(self):
        calendar = ProtectionCalendar({"tomato": window("05-10", "08-31")})
        with pytest.raises(CalendarMissError) as excinfo:
            calendar.window_for("parsnip")
        assert excinfo.value.product == "parsnip"
