"""Outcome transforms: standardized price levels and week-to-week volatility.

Pipeline order: label the raw panel, transform (this module), then apply the
boundary exclusion and production-week restriction to the transformed rows.
Standardization therefore uses every observed week of a season cell,
including Boundary weeks that are later excluded from estimation samples.
Each transform takes labelled ``PanelRows`` and returns rows with the
outcome as their ``value``, in the input's order.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .errors import EmptyOverlapError
from .panel import PanelRows, PhaseLabel


def standardize_prices(labeled: PanelRows) -> PanelRows:
    """Standardized price levels: 100 * price / mean(price) per season cell.

    The cell is one (series, season) pair, i.e. each price series is scaled
    by its own unweighted season average, so within every cell the
    standardized values average exactly 100. A cell's prices are summed in
    row order.
    """
    season = labeled.season - (labeled.season.min() if len(labeled) else 0)
    cell = labeled.series * (season.max(initial=0) + 1) + season
    counts = np.bincount(cell)
    mean = np.bincount(cell, weights=labeled.value) / np.maximum(counts, 1)
    return replace(labeled, value=100.0 * labeled.value / mean[cell])


def compute_volatility(labeled: PanelRows) -> PanelRows:
    """Absolute week-to-week price changes |p_w / p_{w-1} - 1| on raw prices.

    A change is defined only when the two weeks are consecutive rows of a
    series (rows taken in series, then week order), one ISO week apart, and
    share the same non-Boundary phase label, so no change spans a phase
    transition or a gap. The change is recorded at the later week.
    Scale-free: rescaling a series by any positive constant leaves the
    output unchanged.
    """
    rows = labeled.take(np.lexsort((labeled.week, labeled.series)))
    series, week, phase, price = rows.series, rows.week, rows.phase, rows.value
    pair = (
        (series[1:] == series[:-1])
        & (week[1:] - week[:-1] == 1)
        & (phase[1:] == phase[:-1])
        & (phase[1:] != PhaseLabel.BOUNDARY.code)
    )
    later = rows.take(np.flatnonzero(pair) + 1)
    return replace(later, value=np.abs(price[1:][pair] / price[:-1][pair] - 1.0))


def restrict_to_production_weeks(control: PanelRows, treated: PanelRows) -> PanelRows:
    """Keep control rows only for weeks where a treated row exists.

    Each side is the rows of one market (``PanelStore.rows_matching``), and
    both markets have the same quality, as ``EstimationTask`` requires, so a
    control row survives iff the treated rows observe its ISO week: a binary
    search of each control week ordinal in ``treated.sorted_weeks``, sorted
    once for all the tasks that share these treated rows.
    """
    weeks = treated.sorted_weeks
    kept = control.take(weeks[weeks.searchsorted(control.week)] == control.week)
    if len(control) and not len(kept):
        raise EmptyOverlapError(
            "no control observation falls in a treated production week "
            f"(control {', '.join(_names(control))}; treated {', '.join(_names(treated))})"
        )
    return kept


def _names(rows: PanelRows) -> list[str]:
    """Sorted names of the series that have rows."""
    return sorted({str(rows.keys[code]) for code in set(rows.series.tolist())})
