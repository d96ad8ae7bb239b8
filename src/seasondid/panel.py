"""Panel data model: price observations, phase labels, and seasons.

A *series* is one (product, quality, country, region) price sequence on a
weekly grid. Weeks are labeled relative to a product's annual protection
window:

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

import enum
import functools
import math
from dataclasses import dataclass

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

    @property
    def series(self) -> SeriesKey:
        return SeriesKey(self.product, self.quality, self.country, self.region)


@dataclass(frozen=True, order=True)
class SeasonId:
    """Season ``index`` of ``product``; the index is the calendar year whose
    administered period anchors the season."""

    product: str
    index: int

    def __str__(self) -> str:
        return f"{self.product}:{self.index}"


@dataclass(frozen=True)
class LabeledObservation:
    obs: PriceObservation
    phase: PhaseLabel
    season: SeasonId


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
    observations: list[PriceObservation],
    calendar: ProtectionCalendar,
    window_product: str | None = None,
) -> list[LabeledObservation]:
    """Attach phase labels and seasons to a panel.

    ``window_product`` labels every observation against that product's window
    regardless of the observation's own product. This is how control-country
    series are placed on the treated product's protection timeline; the
    resulting SeasonId also carries ``window_product``. Phase and season are
    worked out once per distinct (window product, week) in the call.
    """
    labels: dict[tuple[str, IsoWeek], tuple[PhaseLabel, SeasonId]] = {}
    labeled = []
    for obs in observations:
        product = window_product if window_product is not None else obs.product
        label = labels.get((product, obs.week))
        if label is None:
            window = calendar.window_for(product)
            label = (
                label_week(window, obs.week),
                SeasonId(product, assign_season_week(window, obs.week)),
            )
            labels[product, obs.week] = label
        labeled.append(LabeledObservation(obs=obs, phase=label[0], season=label[1]))
    return labeled


def apply_boundary_exclusion(panel: list) -> list:
    """Drop Boundary-week rows from a labeled or transformed panel.

    For level outcomes this is the whole exclusion. For volatility the
    removal also invalidates week pairs that straddle a dropped week;
    ``compute_volatility`` additionally refuses any pair whose phase labels
    differ, so transition weeks never contribute a change either way.
    Idempotent.
    """
    return [row for row in panel if row.phase is not PhaseLabel.BOUNDARY]
