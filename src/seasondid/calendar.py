"""Protection calendar: per-product month-day windows, repeated every year.

The calendar file is delimited text with one row per product::

    product,start_md,end_md

with exactly that header, where ``start_md``/``end_md`` are ``MM-DD``
strings. Windows must not wrap the year end (``start_md < end_md``). The
file is read by ``errors.read_table``: a bad row, a wrong field count or a
repeated product is a problem at its ``file:line``, and any problem
rejects the file.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass
from pathlib import Path

from .errors import CalendarError, CalendarMissError, read_table
from .weeks import IsoWeek

CALENDAR_HEADER = ("product", "start_md", "end_md")


@dataclass(frozen=True, order=True)
class MonthDay:
    """A month-day pair, valid in at least one year (Feb 29 allowed)."""

    month: int
    day: int

    def __post_init__(self):
        try:
            dt.date(2000, self.month, self.day)  # 2000 is a leap year
        except ValueError as exc:
            raise CalendarError(f"invalid month-day {self.month:02d}-{self.day:02d}") from exc

    @classmethod
    def parse(cls, text: str) -> "MonthDay":
        parts = text.strip().split("-")
        # isdecimal, not isdigit: int() rejects digits such as '²'
        if len(parts) != 2 or not all(p.isdecimal() for p in parts):
            raise CalendarError(f"expected MM-DD, got {text!r}")
        return cls(int(parts[0]), int(parts[1]))

    def date_in(self, year: int) -> dt.date:
        """Materialize in ``year``; Feb 29 falls back to Feb 28 off leap years."""
        try:
            return dt.date(year, self.month, self.day)
        except ValueError:
            return dt.date(year, self.month, self.day - 1)

    def __str__(self) -> str:
        return f"{self.month:02d}-{self.day:02d}"


@dataclass(frozen=True)
class ProtectionWindow:
    """Annual protection period ``[start, end]``, inclusive on both ends."""

    start: MonthDay
    end: MonthDay

    def __post_init__(self):
        if not self.start < self.end:
            raise CalendarError(
                f"protection window must not wrap the year end: "
                f"start {self.start} is not before end {self.end}"
            )

    def contains(self, day: dt.date) -> bool:
        return (self.start.month, self.start.day) <= (day.month, day.day) <= (
            self.end.month,
            self.end.day,
        )

    def start_week(self, year: int) -> IsoWeek:
        """ISO week of the window's first day in ``year``: a 02-29 start
        opens on 03-01 of a common year."""
        day = self.start.date_in(year)
        return IsoWeek.from_date(day if self.contains(day) else day + dt.timedelta(days=1))

    def end_week(self, year: int) -> IsoWeek:
        """ISO week containing the window end in ``year``."""
        return IsoWeek.from_date(self.end.date_in(year))


class ProtectionCalendar:
    """Lookup table from product name to its annual protection window."""

    def __init__(self, entries: dict[str, ProtectionWindow]):
        self._entries = dict(entries)

    def __contains__(self, product: str) -> bool:
        return product in self._entries

    def products(self) -> list[str]:
        return sorted(self._entries)

    def window_for(self, product: str) -> ProtectionWindow:
        try:
            return self._entries[product]
        except KeyError:
            raise CalendarMissError(product) from None

    @classmethod
    def from_csv(cls, path: str | Path) -> "ProtectionCalendar":
        """Parse a calendar file; errors carry 1-based line numbers."""
        path = Path(path)
        entries, _ = read_table(path, CALENDAR_HEADER, _calendar_entry, CalendarError,
                                key=lambda entry: f"product {entry[0]!r}")
        if not entries:
            raise CalendarError(f"calendar file {path.name} contains no entries")
        return cls(dict(entries))


def _calendar_entry(lineno: int, row: list[str]) -> tuple[str, ProtectionWindow]:
    product = row[0].strip()
    if not product:
        raise CalendarError("empty product name")
    return product, ProtectionWindow(MonthDay.parse(row[1]), MonthDay.parse(row[2]))
