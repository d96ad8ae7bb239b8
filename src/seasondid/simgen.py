"""Synthetic weekly price panels with a known standardized-scale ATET.

The generator builds one treated and one control series over ``n_seasons``
production blocks of ``weeks_per_season`` ISO weeks, plus a matching
protection calendar. Prices are ``level * index / 100`` where the index
follows a shared profile (100 + common trend + season shock) so that the
treated series' protected-week increment survives the pipeline's
season-standardization exactly: the increment is solved per season in closed
form such that the standardized-scale DiD against the control series equals
``true_atet``.

Knobs for violating the design assumptions:

* ``trend_divergence_per_week`` tilts the treated index linearly against the
  control index (a common-trend violation); ``true_effect`` then returns the
  configured ATET plus the implied closed-form bias.
* ``midweek_boundaries`` shifts the protection window off the Monday/Sunday
  grid so Boundary weeks appear.
* ``shared_season_shocks=False`` draws treated and control season shocks
  independently instead of sharing one draw.

``true_effect`` is exact when ``noise_sd=0`` and ``missing_week_prob=0``;
with noise or missing weeks it is the population target of the estimator.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass, fields

import numpy as np

from .calendar import MonthDay, ProtectionCalendar, ProtectionWindow
from .did import check_control_country, check_seed
from .errors import ConfigError
from .panel import PhaseLabel, PriceObservation, Quality, SeriesKey, check_labelled_year
from .panel import week_phases, week_seasons
from .weeks import IsoWeek

_SHOCK_STREAM = 0
_TREATED_STREAM = 1
_CONTROL_STREAM = 2

_PRICE_FLOOR = 0.01


@dataclass(frozen=True)
class SimConfig:
    """Generator settings. Offsets are 0-based week positions within a
    season block; protection covers offsets [protected_start, protected_end)
    and must leave at least one unprotected week on each side."""

    n_seasons: int = 6
    weeks_per_season: int = 30
    protected_start: int = 8
    protected_end: int = 22
    base_price_treated: float = 250.0
    base_price_control: float = 180.0
    common_trend: tuple[float, ...] = ()
    season_shock_sd: float = 0.0
    noise_sd: float = 0.0
    true_atet: float = 0.0
    missing_week_prob: float = 0.0
    seed: int = 0
    shared_season_shocks: bool = True
    trend_divergence_per_week: float = 0.0
    midweek_boundaries: bool = False
    truncate_nonpositive: bool = False
    product: str = "simulated-vegetable"
    quality: Quality = Quality.CONVENTIONAL
    treated_country: str = "CH"
    control_country: str = "DE"
    first_year: int = 2015
    season_start_week: int = 6

    def __post_init__(self):
        if self.n_seasons < 1:
            raise ConfigError(f"n_seasons must be >= 1, got {self.n_seasons}")
        check_labelled_year(self.first_year, "first season")
        check_labelled_year(self.first_year + self.n_seasons - 1, "last season")
        if self.weeks_per_season < 4:
            raise ConfigError(f"weeks_per_season must be >= 4, got {self.weeks_per_season}")
        if not (1 <= self.protected_start < self.protected_end <= self.weeks_per_season - 1):
            raise ConfigError(
                "protection must sit strictly inside the season: need "
                f"1 <= start < end <= weeks_per_season - 1, got "
                f"[{self.protected_start}, {self.protected_end}) in {self.weeks_per_season} weeks"
            )
        if self.season_start_week < 1 or self.season_start_week + self.weeks_per_season - 1 > 52:
            raise ConfigError(
                f"season weeks {self.season_start_week}.."
                f"{self.season_start_week + self.weeks_per_season - 1} do not fit in weeks 1..52"
            )
        if self.common_trend and len(self.common_trend) != self.weeks_per_season:
            raise ConfigError(
                f"common_trend has {len(self.common_trend)} entries, "
                f"expected {self.weeks_per_season}"
            )
        floats = {f.name: getattr(self, f.name) for f in fields(self) if type(f.default) is float}
        for name, value in [*floats.items(), *(("common_trend", v) for v in self.common_trend)]:
            if not math.isfinite(value):
                raise ConfigError(f"{name} must be a finite number, got {value!r}")
        for name in ("base_price_treated", "base_price_control"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        for name in ("season_shock_sd", "noise_sd"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
        if not 0.0 <= self.missing_week_prob < 1.0:
            raise ConfigError(
                f"missing_week_prob must be in [0, 1), got {self.missing_week_prob}"
            )
        check_seed(self.seed)
        check_control_country(*(SeriesKey(self.product, self.quality, country)
                                for country in (self.treated_country, self.control_country)))


@dataclass(frozen=True)
class _SeasonProfile:
    year: int
    weeks: tuple[IsoWeek, ...]
    protected: np.ndarray       # mask of the protected weeks
    treated_index: np.ndarray   # noise-free treated index, effect not applied
    control_index: np.ndarray   # noise-free control index
    effect_increment: float     # index increment on protected weeks
    bias: float                 # standardized-scale DiD bias from divergence/shocks


def build_calendar(cfg: SimConfig) -> ProtectionCalendar:
    """Protection window whose month-days reproduce the configured offsets in
    the first season year. In later years the ISO grid drifts relative to
    the dates, which is realistic; labels are always recomputed per year."""
    start_week = IsoWeek(cfg.first_year, cfg.season_start_week + cfg.protected_start)
    end_week = IsoWeek(cfg.first_year, cfg.season_start_week + cfg.protected_end - 1)
    start_day = start_week.monday()
    end_day = end_week.sunday()
    if cfg.midweek_boundaries:
        start_day = start_day + dt.timedelta(days=2)
        end_day = end_day - dt.timedelta(days=2)
    window = ProtectionWindow(
        MonthDay(start_day.month, start_day.day), MonthDay(end_day.month, end_day.day)
    )
    return ProtectionCalendar({cfg.product: window})


def _season_profiles(cfg: SimConfig) -> list[_SeasonProfile]:
    window = build_calendar(cfg).window_for(cfg.product)
    trend = np.asarray(cfg.common_trend, dtype=float) if cfg.common_trend else np.zeros(
        cfg.weeks_per_season
    )
    offsets = np.arange(cfg.weeks_per_season, dtype=float)
    divergence = cfg.trend_divergence_per_week * (offsets - (cfg.weeks_per_season - 1) / 2.0)
    profiles = []
    for index in range(cfg.n_seasons):
        year = cfg.first_year + index
        weeks = tuple(
            IsoWeek(year, cfg.season_start_week + j) for j in range(cfg.weeks_per_season)
        )
        ordinals = np.array([week.ordinal for week in weeks])
        if (week_seasons(window, ordinals) != year).any():
            raise ConfigError(
                f"production weeks of year {year} spill outside season {year}; "
                "move the protection window closer to the middle of the season block"
            )
        phases = week_phases(window, ordinals)
        protected = phases == PhaseLabel.PROTECTED.code
        unprotected = phases == PhaseLabel.UNPROTECTED.code
        if not protected.any() or not unprotected.any():
            raise ConfigError(
                f"season {year} lacks a protected or an unprotected phase after labeling"
            )

        shock_rng = np.random.default_rng(
            np.random.SeedSequence((cfg.seed, _SHOCK_STREAM, index))
        )
        draws = shock_rng.normal(0.0, 1.0, 2) * cfg.season_shock_sd
        treated_shock = draws[0]
        control_shock = draws[0] if cfg.shared_season_shocks else draws[1]

        treated_index = 100.0 + trend + treated_shock + divergence
        control_index = 100.0 + trend + control_shock

        a_all = treated_index.mean()
        a_protected = treated_index[protected].mean()
        a_unprotected = treated_index[unprotected].mean()
        g_all = control_index.mean()
        g_protected = control_index[protected].mean()
        g_unprotected = control_index[unprotected].mean()
        m = int(protected.sum())
        w = cfg.weeks_per_season

        treated_gap = 100.0 * (a_protected - a_unprotected) / a_all
        control_gap = 100.0 * (g_protected - g_unprotected) / g_all
        target = cfg.true_atet + treated_gap
        denominator = 100.0 - target * m / w
        if abs(denominator) < 1e-6:
            raise ConfigError(
                f"cannot calibrate the effect for season {year}: the requested ATET "
                f"{cfg.true_atet} is unattainable with {m} protected of {w} weeks"
            )
        increment = (target * a_all - 100.0 * (a_protected - a_unprotected)) / denominator
        profiles.append(
            _SeasonProfile(
                year=year,
                weeks=weeks,
                protected=protected,
                treated_index=treated_index,
                control_index=control_index,
                effect_increment=increment,
                bias=treated_gap - control_gap,
            )
        )
    return profiles


def true_effect(cfg: SimConfig) -> float:
    """Exact standardized-scale ATET implied by ``cfg``.

    Equals ``cfg.true_atet`` when groups share one index profile; with trend
    divergence (or unshared season shocks) the closed-form DiD bias is added,
    weighted by each season's protected-week count.
    """
    profiles = _season_profiles(cfg)
    weights = np.array([p.protected.sum() for p in profiles], dtype=float)
    biases = np.array([p.bias for p in profiles])
    return cfg.true_atet + float(weights @ biases / weights.sum())


def generate_panel(
    cfg: SimConfig,
) -> tuple[list[PriceObservation], list[PriceObservation], ProtectionCalendar]:
    """Generate (treated, control, calendar).

    Identical seeds give identical panels; the per-(series, season) random
    streams are split with ``SeedSequence((seed, stream, season))`` so
    changing one knob never reshuffles unrelated draws.
    """
    calendar = build_calendar(cfg)
    treated: list[PriceObservation] = []
    control: list[PriceObservation] = []
    for index, profile in enumerate(_season_profiles(cfg)):
        specs = (
            (_TREATED_STREAM, cfg.treated_country, cfg.base_price_treated,
             profile.treated_index + profile.effect_increment * profile.protected, treated),
            (_CONTROL_STREAM, cfg.control_country, cfg.base_price_control,
             profile.control_index, control),
        )
        for stream, country, base, index_values, out in specs:
            rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, stream, index)))
            missing = rng.random(cfg.weeks_per_season) < cfg.missing_week_prob
            noise = rng.normal(0.0, 1.0, cfg.weeks_per_season) * cfg.noise_sd
            values = index_values + noise
            for j, week in enumerate(profile.weeks):
                if missing[j]:
                    continue
                price = float(base * values[j] / 100.0)
                if price <= 0:
                    if not cfg.truncate_nonpositive:
                        raise ConfigError(
                            f"generated a non-positive price ({price:.4f}) for "
                            f"{country} in {week}; lower noise_sd or enable "
                            "truncate_nonpositive"
                        )
                    price = _PRICE_FLOOR
                out.append(
                    PriceObservation(
                        product=cfg.product,
                        quality=cfg.quality,
                        country=country,
                        region=None,
                        week=week,
                        price=price,
                    )
                )
    return treated, control, calendar
