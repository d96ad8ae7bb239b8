"""ISO week arithmetic."""

import datetime as dt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seasondid import IsoWeek
from seasondid.errors import ConfigError


def test_monday_and_sunday():
    wk = IsoWeek(2016, 35)
    assert wk.monday() == dt.date(2016, 8, 29)
    assert wk.sunday() == dt.date(2016, 9, 4)


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
    assert (b.monday() - a.monday()).days == 7 * (b.ordinal - a.ordinal)
    stepped = IsoWeek.from_date(a.monday() + dt.timedelta(weeks=n))
    assert IsoWeek.from_ordinal(a.ordinal + n) == stepped
    # stepping over the end of the 53-week year 2015
    assert IsoWeek.from_ordinal(IsoWeek(2015, 53).ordinal + 1) == IsoWeek(2016, 1)
    assert IsoWeek.from_ordinal(IsoWeek(2016, 1).ordinal - 1) == IsoWeek(2015, 53)
