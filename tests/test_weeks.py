"""ISO week arithmetic."""

import datetime as dt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seasondid import IsoWeek, week_range, weeks_between
from seasondid.errors import ConfigError


def test_monday_sunday_and_days():
    wk = IsoWeek(2016, 35)
    assert wk.monday() == dt.date(2016, 8, 29)
    assert wk.sunday() == dt.date(2016, 9, 4)
    days = wk.days()
    assert len(days) == 7
    assert days[0] == wk.monday() and days[-1] == wk.sunday()
    assert all(b - a == dt.timedelta(days=1) for a, b in zip(days, days[1:]))


def test_from_date_round_trip():
    # Jan 1, 2016 is a Friday and belongs to ISO week 53 of 2015.
    assert IsoWeek.from_date(dt.date(2016, 1, 1)) == IsoWeek(2015, 53)
    assert IsoWeek.from_date(dt.date(2016, 1, 4)) == IsoWeek(2016, 1)
    for day in (dt.date(2014, 12, 29), dt.date(2020, 12, 31), dt.date(2021, 1, 3)):
        wk = IsoWeek.from_date(day)
        assert wk.monday() <= day <= wk.sunday()


def test_week53_validity_follows_the_iso_calendar():
    assert IsoWeek.weeks_in_year(2015) == 53
    assert IsoWeek.weeks_in_year(2016) == 52
    assert IsoWeek.weeks_in_year(2020) == 53
    IsoWeek(2015, 53)
    IsoWeek(2020, 53)
    with pytest.raises(ConfigError):
        IsoWeek(2016, 53)
    with pytest.raises(ConfigError):
        IsoWeek(2016, 0)
    with pytest.raises(ConfigError):
        IsoWeek(2016, 54)


def test_ordering_is_chronological():
    assert IsoWeek(2015, 53) < IsoWeek(2016, 1)
    assert IsoWeek(2016, 1) < IsoWeek(2016, 2)
    assert not IsoWeek(2016, 2) < IsoWeek(2016, 2)
    assert IsoWeek(2016, 2) <= IsoWeek(2016, 2)
    assert IsoWeek(2017, 1) > IsoWeek(2016, 52)


def test_offset_next_prev_consistency():
    wk = IsoWeek(2015, 50)
    assert wk.next().prev() == wk
    assert wk.offset(0) == wk
    assert wk.offset(5) == wk.next().next().next().next().next()
    assert wk.offset(-3).offset(3) == wk
    # crossing the 53-week boundary of 2015
    assert IsoWeek(2015, 53).next() == IsoWeek(2016, 1)
    assert IsoWeek(2016, 1).prev() == IsoWeek(2015, 53)


def test_weeks_between_matches_repeated_stepping():
    rng = np.random.default_rng(7)
    for _ in range(200):
        year = int(rng.integers(2013, 2022))
        number = int(rng.integers(1, IsoWeek.weeks_in_year(year) + 1))
        start = IsoWeek(year, number)
        steps = int(rng.integers(-120, 121))
        end = start.offset(steps)
        assert weeks_between(start, end) == steps
        assert weeks_between(end, start) == -steps
        assert weeks_between(start, start) == 0


def test_week_range_is_inclusive_and_gapless():
    first = IsoWeek(2015, 50)
    last = IsoWeek(2016, 3)
    weeks = week_range(first, last)
    assert weeks[0] == first and weeks[-1] == last
    assert len(weeks) == weeks_between(first, last) + 1
    assert all(weeks_between(a, b) == 1 for a, b in zip(weeks, weeks[1:]))
    assert week_range(first, first) == [first]
    with pytest.raises(ConfigError):
        week_range(last, first)


# Weeks from 1990 to 2040, a third of them from the 53-week years in there.
LONG_YEARS = [y for y in range(1990, 2041) if IsoWeek.weeks_in_year(y) == 53]
iso_weeks = st.one_of(
    st.dates(dt.date(1990, 1, 1), dt.date(2040, 12, 31)).map(IsoWeek.from_date),
    st.builds(IsoWeek, st.sampled_from(LONG_YEARS), st.sampled_from([1, 52, 53])),
)


@settings(max_examples=300, deadline=None)
@given(iso_weeks, iso_weeks, st.integers(-600, 600))
def test_ordinals_number_weeks_consecutively(a, b, n):
    assert IsoWeek.from_ordinal(a.ordinal) == a
    assert (a < b) == (a.ordinal < b.ordinal)
    assert weeks_between(a, b) == b.ordinal - a.ordinal
    assert a.offset(n).ordinal == a.ordinal + n
