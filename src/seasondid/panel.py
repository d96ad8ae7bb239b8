"""Panel data model: price series as arrays, phase labels, and seasons.

A *series* is one (product, quality, country, region) price sequence on a
weekly grid. ``PanelRows`` holds rows of one or more series as parallel
arrays (series code, ISO-week ordinal, price or outcome value) in series
order and by week within a series; ``label_panel`` adds each row's phase
code and season. Weeks are labeled relative to a product's annual
protection window:

* ``PROTECTED``   all seven days fall inside the window,
* ``UNPROTECTED`` no day falls inside the window,
* ``BOUNDARY``    the window starts or ends mid-week.

Seasons partition the week axis per product. Season ``y`` runs from the
midpoint of the gap between the year ``y-1`` and year ``y`` windows up to the
midpoint of the following gap; with a gap of G weeks the midpoint is the gap
week at index ``(G - 1) // 2``, i.e. ties round toward the earlier period,
and the midpoint week itself opens season ``y``.
"""

from __future__ import annotations

import datetime as dt
import enum
import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .calendar import ProtectionCalendar, ProtectionWindow
from .errors import ConfigError
from .weeks import IsoWeek, weeks_between


class Quality(str, enum.Enum):
    CONVENTIONAL = "conventional"
    ORGANIC = "organic"

    @classmethod
    def parse(cls, text: str) -> "Quality":
        try:
            return cls(text.strip().lower())
        except ValueError:
            raise ConfigError(
                f"unknown quality {text!r}; expected one of {[q.value for q in cls]}"
            ) from None

    def __str__(self) -> str:
        return self.value


class PhaseLabel(enum.Enum):
    PROTECTED = "protected"
    UNPROTECTED = "unprotected"
    BOUNDARY = "boundary"

    @property
    def code(self) -> int:
        """This label's entry in a labelled ``PanelRows.phase`` array."""
        return PHASES.index(self)


PHASES = tuple(PhaseLabel)
# day ordinal of numpy's datetime64 epoch, 1970-01-01
_EPOCH_ORDINAL = dt.date(1970, 1, 1).toordinal()


class Outcome(str, enum.Enum):
    LEVEL = "level"
    VOLATILITY = "volatility"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True, order=True)
class SeriesKey:
    """Identity of one weekly price series."""

    product: str
    quality: Quality
    country: str
    region: str | None = None

    def __str__(self) -> str:
        region = f"/{self.region}" if self.region else ""
        return f"{self.product}[{self.quality}]@{self.country}{region}"


@dataclass(frozen=True)
class PriceObservation:
    """One weekly producer price."""

    product: str
    quality: Quality
    country: str
    region: str | None
    week: IsoWeek
    price: float

    def __post_init__(self):
        if not (math.isfinite(self.price) and self.price > 0):
            raise ConfigError(
                f"price must be a positive finite number, got {self.price!r} "
                f"({self.product}, {self.country}, {self.week})"
            )


@dataclass(frozen=True, eq=False)
class PanelRows:
    """Rows of price series as read-only parallel arrays; ``len()`` counts
    the rows.

    ``series`` indexes ``keys``, ``week`` holds ISO-week ordinals
    (``IsoWeek.ordinal``) and ``value`` the price or, once transformed, the
    outcome. Labelled rows also carry ``phase`` codes (indices into
    ``PHASES``) and ``season`` indices of the window they were labelled on.
    """

    keys: tuple[SeriesKey, ...]
    series: np.ndarray
    week: np.ndarray
    value: np.ndarray
    phase: np.ndarray | None = None
    season: np.ndarray | None = None

    def __post_init__(self):
        for array in vars(self).values():
            if isinstance(array, np.ndarray):
                array.flags.writeable = False

    def __len__(self) -> int:
        return self.week.size

    def take(self, rows) -> "PanelRows":
        """The rows that a boolean mask or an index array picks, in its order."""
        arrays = vars(self).items()
        return replace(self, **{k: a[rows] for k, a in arrays if isinstance(a, np.ndarray)})


@functools.lru_cache(maxsize=None)
def label_week(window: ProtectionWindow, week: IsoWeek) -> PhaseLabel:
    """Phase of ``week`` under ``window``, by checking all seven days."""
    inside = [window.contains(day) for day in week.days()]
    if all(inside):
        return PhaseLabel.PROTECTED
    if not any(inside):
        return PhaseLabel.UNPROTECTED
    return PhaseLabel.BOUNDARY


@functools.lru_cache(maxsize=None)
def season_start_week(window: ProtectionWindow, year: int) -> IsoWeek:
    """First week of season ``year``: the midpoint of the gap between the
    year ``year - 1`` and year ``year`` windows (rounded toward the earlier
    period), or the window-start week itself if the gap is empty."""
    prev_end = window.end_week(year - 1)
    start = window.start_week(year)
    gap = weeks_between(prev_end, start) - 1
    if gap <= 0:
        return start
    return prev_end.offset(1 + (gap - 1) // 2)


def assign_season_week(window: ProtectionWindow, week: IsoWeek) -> int:
    """Season index owning ``week``. Seasons tile the week axis with no gaps,
    so exactly one candidate year matches."""
    for candidate in (week.year + 1, week.year, week.year - 1):
        if not week < season_start_week(window, candidate):
            return candidate
    raise AssertionError(f"no season found for {week}")  # pragma: no cover


def label_panel(
    rows: PanelRows, calendar: ProtectionCalendar, window_product: str | None = None
) -> PanelRows:
    """Attach phase codes and season indices to a panel's rows.

    ``window_product`` labels every row against that product's window
    regardless of the row's own product. This is how control-country series
    are placed on the treated product's protection timeline. Phase and
    season are worked out once per distinct (window product, week), then
    spread to the rows: the phase by day arithmetic over the week's seven
    days (``_week_phases``, the rule of ``label_week``), the season as the
    last one whose ``season_start_week`` is not after the week, which is
    what ``assign_season_week`` returns.
    """
    groups: dict[str, list[int]] = {}
    for code in dict.fromkeys(rows.series.tolist()):  # products in row order
        product = rows.keys[code].product if window_product is None else window_product
        groups.setdefault(product, []).append(code)
    phase = np.empty(len(rows), dtype=np.int8)
    season = np.empty(len(rows), dtype=np.int64)
    for product, group in groups.items():
        window = calendar.window_for(product)
        mask = np.isin(rows.series, group) if len(groups) > 1 else slice(None)
        weeks, inverse = np.unique(rows.week[mask], return_inverse=True)
        phase[mask] = _week_phases(window, weeks)[inverse]
        first, last = (IsoWeek.from_ordinal(week) for week in weeks[[0, -1]].tolist())
        years = range(first.year - 1, last.year + 2)
        starts = [season_start_week(window, year).ordinal for year in years]
        season[mask] = years[0] - 1 + np.searchsorted(starts, weeks, side="right")[inverse]
    return PanelRows(rows.keys, rows.series, rows.week, rows.value, phase, season)


def _week_phases(window: ProtectionWindow, weeks: np.ndarray) -> np.ndarray:
    """Phase code of each ISO-week ordinal in ``weeks``: ``label_week``'s
    rule, with each of the seven days tested as ``window.contains`` does,
    month * 100 + day against the window's ends (so a 02-29 end takes in
    02-28 of a common year, and a 02-29 start leaves it out)."""
    # week w runs from day ordinal 7w + 1 (Monday) to 7w + 7
    days = (7 * weeks[:, None] + np.arange(1, 8) - _EPOCH_ORDINAL).astype("M8[D]")
    months = days.astype("M8[M]")
    month_day = (months.astype(np.int64) % 12 + 1) * 100 + (days - months).astype(np.int64) + 1
    start, end = (100 * md.month + md.day for md in (window.start, window.end))
    inside = ((start <= month_day) & (month_day <= end)).sum(axis=1)
    codes = np.full(weeks.size, PhaseLabel.BOUNDARY.code, dtype=np.int8)
    codes[inside == 7] = PhaseLabel.PROTECTED.code
    codes[inside == 0] = PhaseLabel.UNPROTECTED.code
    return codes


def apply_boundary_exclusion(panel: PanelRows) -> PanelRows:
    """Drop Boundary-week rows from a labeled or transformed panel.

    For level outcomes this is the whole exclusion. For volatility the
    removal also invalidates week pairs that straddle a dropped week;
    ``compute_volatility`` additionally refuses any pair whose phase labels
    differ, so transition weeks never contribute a change either way.
    Idempotent.
    """
    return panel.take(panel.phase != PhaseLabel.BOUNDARY.code)
