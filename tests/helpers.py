"""Plain builders shared by the test modules, which import them from
``helpers``; the fixtures are in ``conftest.py``."""

from __future__ import annotations

import datetime as dt

import numpy as np
from hypothesis import strategies as st

from seasondid import (
    PHASES,
    DidSample,
    EstimationTask,
    IsoWeek,
    MonthDay,
    Outcome,
    PanelRows,
    PanelStore,
    PriceObservation,
    ProtectionWindow,
    Quality,
    SeriesKey,
)


# month-days anywhere in the year, 02-29 included, for drawing windows
month_days = st.dates(dt.date(2000, 1, 1), dt.date(2000, 12, 31)).map(
    lambda day: MonthDay(day.month, day.day)
)


def week(year: int, number: int) -> IsoWeek:
    return IsoWeek(year, number)


def shift(wk: IsoWeek, n: int) -> IsoWeek:
    """The week ``n`` weeks after ``wk`` (before it when ``n`` is negative)."""
    return IsoWeek.from_ordinal(wk.ordinal + n)


def week_range(first: IsoWeek, last: IsoWeek) -> list[IsoWeek]:
    """The weeks from ``first`` through ``last``; none when ``last`` is earlier."""
    return [IsoWeek.from_ordinal(o) for o in range(first.ordinal, last.ordinal + 1)]


def window(start: str, end: str) -> ProtectionWindow:
    return ProtectionWindow(MonthDay.parse(start), MonthDay.parse(end))


def price_row(
    product: str,
    country: str,
    wk: IsoWeek,
    price: float,
    quality: Quality = Quality.CONVENTIONAL,
    region: str | None = None,
) -> PriceObservation:
    return PriceObservation(
        product=product,
        quality=quality,
        country=country,
        region=region,
        week=wk,
        price=price,
    )


def panel_rows(observations: list[PriceObservation]) -> PanelRows:
    """The rows of every series of these observations, in store order."""
    return PanelStore(observations).rows()


def weeks_of(rows: PanelRows) -> list[IsoWeek]:
    return [IsoWeek.from_ordinal(w) for w in rows.week.tolist()]


def phases_of(rows: PanelRows) -> list:
    return [PHASES[code] for code in rows.phase.tolist()]


def records(rows: PanelRows) -> list[tuple]:
    """(series, week, value) of each row; (series, week, season, phase,
    value) once labelled."""
    keys = [rows.keys[code] for code in rows.series.tolist()]
    if rows.phase is None:
        return list(zip(keys, weeks_of(rows), rows.value.tolist()))
    return list(zip(keys, weeks_of(rows), rows.season.tolist(), phases_of(rows),
                    rows.value.tolist()))


def oracle_records(rows) -> list[tuple]:
    """``records`` of the row-level oracle's outcome rows."""
    return [(r.series, r.week, r.season.index, r.phase, r.value) for r in rows]


def no_covariate_sample(y, d, t) -> DidSample:
    """A DidSample with a single stratum (no covariates)."""
    y = np.asarray(y, dtype=float)
    return DidSample(
        y=y,
        d=np.asarray(d, dtype=np.int8),
        t=np.asarray(t, dtype=np.int8),
        stratum=np.zeros(y.shape[0], dtype=np.intp),
    )


def random_cell_sample(rng: np.random.Generator, lo: int = 3, hi: int = 12) -> DidSample:
    """Random 2x2 sample with cell sizes in [lo, hi] and distinct cell means."""
    sizes = rng.integers(lo, hi + 1, size=4)
    means = rng.normal(0.0, 5.0, size=4)
    y, d, t = [], [], []
    for (dd, tt), size, mean in zip(((1, 1), (1, 0), (0, 1), (0, 0)), sizes, means):
        y.extend(rng.normal(mean, 1.0, size))
        d.extend([dd] * size)
        t.extend([tt] * size)
    return no_covariate_sample(y, d, t)


def stratified_sample(
    rng: np.random.Generator, n_strata: int, lo: int = 3, hi: int = 12
) -> tuple[DidSample, np.ndarray]:
    """Random sample with stratum codes 0 .. n_strata - 1; every (stratum,
    cell) combination is populated. Returns the sample and the stratum id
    per row."""
    y, d, t, strata = [], [], [], []
    for s in range(n_strata):
        for dd, tt in ((1, 1), (1, 0), (0, 1), (0, 0)):
            size = int(rng.integers(lo, hi + 1))
            y.extend(rng.normal(rng.normal(0.0, 5.0), 1.0, size))
            d.extend([dd] * size)
            t.extend([tt] * size)
            strata.extend([s] * size)
    strata = np.array(strata)
    sample = DidSample(
        y=np.asarray(y, dtype=float),
        d=np.asarray(d, dtype=np.int8),
        t=np.asarray(t, dtype=np.int8),
        stratum=strata,
    )
    return sample, strata


def basic_task(
    outcome: Outcome = Outcome.LEVEL,
    product: str = "simulated-vegetable",
    control_country: str = "DE",
    **overrides,
) -> EstimationTask:
    defaults = dict(
        treated=SeriesKey(product, Quality.CONVENTIONAL, "CH"),
        control=SeriesKey(product, Quality.CONVENTIONAL, control_country),
        outcome=outcome,
        bootstrap_reps=0,
    )
    defaults.update(overrides)
    return EstimationTask(**defaults)
