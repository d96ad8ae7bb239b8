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
from dataclasses import dataclass

import numpy as np

from .calendar import ProtectionCalendar, ProtectionWindow
from .errors import ConfigError
from .weeks import IsoWeek


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
    """Identity of one weekly price series. As one side of an
    ``EstimationTask`` it names a market: ``region=None`` pools every region
    of the (product, quality, country) market."""

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
    The week indexes ``sorted_weeks`` and ``values_by_week`` are built on
    first use and kept, their arrays read-only, for every user of the rows.
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
        """The rows that a boolean mask, an index array or a slice picks, in
        its order; the week indexes are built again when asked for."""
        phase, season = self.phase, self.season
        return PanelRows(self.keys, self.series[rows], self.week[rows], self.value[rows],
                         None if phase is None else phase[rows],
                         None if season is None else season[rows])

    @functools.cached_property
    def sorted_weeks(self) -> np.ndarray:
        """The week ordinals in order, then a sentinel past every week, so
        that a binary search of any week lands on an entry."""
        weeks = np.concatenate((np.sort(self.week), [np.iinfo(np.int64).max]))
        weeks.flags.writeable = False
        return weeks

    @functools.cached_property
    def values_by_week(self) -> dict[int, np.ndarray]:
        """Each week ordinal's values, in row order, as slices of one array."""
        order = np.argsort(self.week, kind="stable")
        weeks, starts = np.unique(self.week[order], return_index=True)
        values = self.value[order]
        values.flags.writeable = False
        return dict(zip(weeks.tolist(), cut_runs(values, starts.tolist())))


def cut_runs(values: np.ndarray, starts: list[int]) -> list[np.ndarray]:
    """``values`` cut at ``starts`` (ascending, the first 0) into views."""
    return [values[a:b] for a, b in zip(starts, starts[1:] + [values.size])]


@functools.lru_cache(maxsize=None)
def label_week(window: ProtectionWindow, week: IsoWeek) -> PhaseLabel:
    """Phase of ``week`` under ``window``: ``week_phases`` of one week."""
    return PHASES[week_phases(window, np.array([week.ordinal]))[0]]


def check_labelled_year(year: int, what: str = "year") -> None:
    """Refuse a year whose weeks cannot be labelled: the season of a week of
    ISO year y is found from the windows of years y - 2 .. y + 1, and dates
    end at year 9999."""
    if not 3 <= year <= 9998:
        raise ConfigError(
            f"{what} {year} is outside 3..9998, the years whose weeks can be labelled"
        )


# the ordinal of every ISO week that dates can hold: 0001-W01 .. 9999-W52
_ISO_ORDINALS = range(IsoWeek(1, 1).ordinal, IsoWeek(9999, 52).ordinal + 1)


def labelled_years(weeks: np.ndarray) -> tuple[int, int]:
    """Years of the earliest and the latest of ``weeks`` (ISO-week ordinals),
    in that order each an ISO week and of a year that ``check_labelled_year``
    accepts."""
    years = []
    for week in (int(weeks.min()), int(weeks.max())):
        if week not in _ISO_ORDINALS:
            raise ConfigError(f"week ordinal {week} is no ISO week of the years 1..9999")
        years.append(IsoWeek.from_ordinal(week).year)
        check_labelled_year(years[-1])
    return tuple(years)


@functools.lru_cache(maxsize=None)
def season_start_week(window: ProtectionWindow, year: int) -> IsoWeek:
    """First week of season ``year``: the midpoint of the gap between the
    year ``year - 1`` and year ``year`` windows (rounded toward the earlier
    period), or the window-start week itself if the gap is empty."""
    prev_end = window.end_week(year - 1).ordinal
    start = window.start_week(year).ordinal
    gap = start - prev_end - 1
    return IsoWeek.from_ordinal(start if gap <= 0 else prev_end + 1 + (gap - 1) // 2)


def label_panel(
    rows: PanelRows, calendar: ProtectionCalendar, window_product: str | None = None
) -> PanelRows:
    """Attach phase codes and season indices to a panel's rows.

    ``window_product`` labels every row against that product's window
    regardless of the row's own product. This is how control-country series
    are placed on the treated product's protection timeline. Phase
    (``week_phases``) and season (``week_seasons``) are worked out once per
    distinct (window product, week), then spread to the rows.
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
        phase[mask] = week_phases(window, weeks)[inverse]
        season[mask] = week_seasons(window, weeks)[inverse]
    return PanelRows(rows.keys, rows.series, rows.week, rows.value, phase, season)


def week_phases(window: ProtectionWindow, weeks: np.ndarray) -> np.ndarray:
    """Phase code of each ISO-week ordinal in ``weeks``, with each of the
    seven days tested as ``window.contains`` does, month * 100 + day against
    the window's ends (so a 02-29 end takes in 02-28 of a common year, and a
    02-29 start leaves it out)."""
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


def week_seasons(window: ProtectionWindow, weeks: np.ndarray) -> np.ndarray:
    """Season index of each ISO-week ordinal in ``weeks`` (not empty): the
    last season whose ``season_start_week`` is not after the week. Weeks of
    a year that ``check_labelled_year`` refuses are a ConfigError."""
    first, last = labelled_years(weeks)
    years = range(first - 1, last + 2)
    starts = [season_start_week(window, year).ordinal for year in years]
    return years[0] - 1 + np.searchsorted(starts, weeks, side="right")


def apply_boundary_exclusion(panel: PanelRows) -> PanelRows:
    """Drop Boundary-week rows from a labeled or transformed panel.

    For level outcomes this is the whole exclusion. For volatility the
    removal also invalidates week pairs that straddle a dropped week;
    ``compute_volatility`` additionally refuses any pair whose phase labels
    differ, so transition weeks never contribute a change either way.
    Idempotent.
    """
    return panel.take(panel.phase != PhaseLabel.BOUNDARY.code)
