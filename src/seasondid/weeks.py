"""ISO-8601 weeks: parsing, dates and ordinals.

All panel observations are keyed by ISO year/week pairs. Weeks are
materialized through :func:`datetime.date.fromisocalendar`, so 53-week years
are handled by the standard library rather than by hand-rolled rules. Week
arithmetic is integer arithmetic on ``IsoWeek.ordinal``, which numbers
consecutive weeks consecutively across year ends.
"""

from __future__ import annotations

import datetime as dt
import functools
from dataclasses import dataclass

from .errors import ConfigError


@functools.total_ordering
@dataclass(frozen=True)
class IsoWeek:
    """One ISO-8601 calendar week, ordered chronologically."""

    year: int
    week: int

    def __post_init__(self):
        try:
            dt.date.fromisocalendar(self.year, self.week, 1)
        except ValueError as exc:
            raise ConfigError(f"invalid ISO week {self.year}-W{self.week:02d}: {exc}") from exc

    def __lt__(self, other: "IsoWeek") -> bool:
        return (self.year, self.week) < (other.year, other.week)

    def __str__(self) -> str:
        return f"{self.year}-W{self.week:02d}"

    @classmethod
    def from_date(cls, day: dt.date) -> "IsoWeek":
        iso = day.isocalendar()
        return cls(iso[0], iso[1])

    @property
    def ordinal(self) -> int:
        """Consecutive weeks have consecutive ordinals (Monday's ordinal // 7)."""
        return self.monday().toordinal() // 7

    @classmethod
    def from_ordinal(cls, ordinal: int) -> "IsoWeek":
        return cls.from_date(dt.date.fromordinal(7 * ordinal + 1))

    @staticmethod
    def weeks_in_year(year: int) -> int:
        # ISO years have 53 weeks iff Dec 28 falls in week 53.
        return dt.date(year, 12, 28).isocalendar()[1]

    def monday(self) -> dt.date:
        return dt.date.fromisocalendar(self.year, self.week, 1)

    def sunday(self) -> dt.date:
        return dt.date.fromisocalendar(self.year, self.week, 7)
