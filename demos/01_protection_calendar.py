"""
Protection calendars, ISO weeks and phase labels
================================================

A protection window is a pair of month-day dates that recurs every year.
Weekly observations are labeled Protected, Unprotected, or Boundary, and
every week is assigned to a season so that adjacent protected phases never
share a season.
"""

import numpy as np

from seasondid import (
    IsoWeek,
    MonthDay,
    PhaseLabel,
    ProtectionCalendar,
    ProtectionWindow,
    label_week,
    offset_weeks,
    week_seasons,
)

# A tomato window: protection runs from May 10 through August 31, every year.
window = ProtectionWindow(MonthDay.parse("05-10"), MonthDay.parse("08-31"))
calendar = ProtectionCalendar({"tomato": window})
print(f"window: {window.start} .. {window.end}")

# Label every week of 2016. Boundary weeks are the ones the window edges cut
# through mid-week; they are excluded from estimation samples later on.
counts = {label: 0 for label in PhaseLabel}
for number in range(1, IsoWeek.weeks_in_year(2016) + 1):
    counts[label_week(window, IsoWeek(2016, number))] += 1
for label, count in counts.items():
    print(f"2016 {label.value:>12}: {count} weeks")

# Seasons split the year at the midpoint of the unprotected gap, so the weeks
# trailing one protected phase and the weeks leading into the next end up in
# different seasons. The rule works on arrays of ISO-week ordinals.
weeks = [IsoWeek(2016, 2), IsoWeek(2016, 30), IsoWeek(2016, 52)]
seasons = week_seasons(window, np.array([week.ordinal for week in weeks]))
for week, season in zip(weeks, seasons.tolist()):
    print(f"{week} -> season {season} ({label_week(window, week).value})")

# The pre-trend diagnostic works on the whole weeks just before protection
# starts, nearest first.
pre = ", ".join(str(w) for w in offset_weeks(window, 2016, 4))
print(f"pre-protection weeks of 2016: {pre}")
