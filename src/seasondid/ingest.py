"""File I/O: weekly price panels, product attributes, and result tables.

The price schema is one row per observation::

    country,product,quality,region,year,iso_week,price

with exactly that header. ``region`` may be empty. ``price`` must be a
positive decimal using ``.`` as the separator. Rows are read by
``errors.read_table``, the reader of every input table (calendar,
attributes and effects too): each problem carries its ``file:line``, a
repeated (country, product, quality, region, year, iso_week) names both
lines, and any problem rejects the file unless ``skip_bad_rows`` drops
and counts the offending rows. Kept rows go into per-series arrays of ISO-week ordinals and prices, the
columns of a ``PanelStore``, the one gate for what a store may hold.

A price file is first read as columns, 32 KiB of whole lines at a time:
each chunk is split once as plain text, and each distinct series or week
text is parsed once. That path takes a file only if it is ASCII, holds no
``"``, has the exact header, ``\\n`` or ``\\r\\n`` line ends, no blank line
and seven fields on every line, holds decimal prices and valid weeks only,
and makes a store that ``PanelStore`` accepts. Anything else, any problem
included, sends the whole file to the row reader, which alone reports
problems; the columnar path is tested against it.
"""

from __future__ import annotations

import csv
import functools
import math
import re
from dataclasses import dataclass, fields
from itertools import repeat
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError, IngestError, duplicate, read_table, utf8_text
from .calendar import CALENDAR_HEADER
from .panel import PanelRows, PriceObservation, Quality, SeriesKey
from .panel import check_labelled_year, labelled_years
from .weeks import IsoWeek

PRICE_HEADER = ("country", "product", "quality", "region", "year", "iso_week", "price")
EFFECTS_COLUMNS = (
    "product", "quality", "control_country", "outcome", "method", "atet", "se",
    "p", "n11", "n10", "n01", "n00", "trimmed", "reps", "seed",
)

_DECIMAL = r"\d+(?:\.\d+)?"
_PRICE_PATTERN = re.compile(rf"^{_DECIMAL}$")
# A column of price cells joined by commas, each one matching _PRICE_PATTERN.
_PRICE_COLUMN = re.compile(rf"{_DECIMAL}(?:,{_DECIMAL})*", re.ASCII)
_HEADER_LINES = tuple(",".join(PRICE_HEADER) + end for end in ("\n", "\r\n", ""))
_CHUNK_CHARS = 32 * 1024
_NO_ROWS = (np.empty(0, dtype=np.int64), np.empty(0))
_Columns = dict[SeriesKey, tuple[Sequence[int] | np.ndarray, Sequence[float] | np.ndarray]]


@dataclass(frozen=True)
class IngestReport:
    rows_read: int
    rows_kept: int
    rows_skipped: int
    kept_by_country: dict[str, int]
    problems: tuple[str, ...] = ()


class PanelStore:
    """Price series as (week ordinal, price) arrays sorted by week, listed in
    (product, quality, country, region) order and indexed by (product,
    quality, country) market. ``_index``, which builds every store, is the
    one gate for what a store may hold: over all rows at once it refuses a
    repeated (series, week), then a price that is not positive and finite
    (each the first in store order), then a week in a year that
    ``labelled_years`` refuses."""

    def __init__(self, observations: Iterable[PriceObservation] = ()):
        columns: dict[SeriesKey, tuple[list[int], list[float]]] = {}
        for obs in observations:
            weeks, prices = columns.setdefault(
                SeriesKey(obs.product, obs.quality, obs.country, obs.region), ([], []))
            weeks.append(obs.week.ordinal)
            prices.append(obs.price)
        self._index(columns)

    @classmethod
    def from_columns(cls, columns: _Columns) -> "PanelStore":
        """A store of series given as (week ordinals, prices) in any week order."""
        store = cls.__new__(cls)
        store._index(columns)
        return store

    def _index(self, columns: _Columns) -> None:
        self._columns: dict[SeriesKey, tuple[np.ndarray, np.ndarray]] = {}
        for key, (weeks, prices) in columns.items():
            weeks = np.asarray(weeks, dtype=np.int64)
            order = np.argsort(weeks, kind="stable")
            self._columns[key] = (weeks[order], np.asarray(prices, dtype=float)[order])
        self._series = sorted(
            self._columns,
            key=lambda k: (k.product, k.quality.value, k.country, k.region or ""),
        )
        rows = self.rows()
        week, price, code = rows.week, rows.value, rows.series
        repeats = np.flatnonzero((week[1:] == week[:-1]) & (code[1:] == code[:-1]))
        if repeats.size:
            key, at = rows.keys[code[repeats[0]]], int(week[repeats[0]])
            raise ConfigError(duplicate(f"observation for {_series_week(key, at)}"))
        bad = np.flatnonzero(~((price > 0) & (price < math.inf)))
        if bad.size:
            at = bad[0]
            raise ConfigError(f"price must be a positive finite number, got {float(price[at])!r} "
                              f"for {_series_week(rows.keys[code[at]], int(week[at]))}")
        if len(rows):
            labelled_years(week)
        self._by_market: dict[tuple[str, Quality, str], list[SeriesKey]] = {}
        for key in self._series:
            self._by_market.setdefault((key.product, key.quality, key.country), []).append(key)

    def __len__(self) -> int:
        return sum(weeks.size for weeks, _ in self._columns.values())

    def series(self) -> list[SeriesKey]:
        return list(self._series)

    def rows(self, keys: Iterable[SeriesKey] | None = None) -> PanelRows:
        """The rows of ``keys`` (of every series when None), series in that
        order; a key the store lacks has no rows."""
        keys = tuple(self._series if keys is None else keys)
        columns = [self._columns.get(key, _NO_ROWS) for key in keys]
        return PanelRows(
            keys,
            np.repeat(np.arange(len(keys)), [weeks.size for weeks, _ in columns]),
            np.concatenate([weeks for weeks, _ in columns] + [_NO_ROWS[0]]),
            np.concatenate([prices for _, prices in columns] + [_NO_ROWS[1]]),
        )

    def rows_matching(self, *keys: SeriesKey) -> PanelRows:
        """The rows of each key's market in turn, a market's series in
        ``series()`` order; ``key.region=None`` pools every region."""
        return self.rows([series for key in keys for series in self.market_series(key)])

    def has_rows(self, key: SeriesKey) -> bool:
        """Whether ``rows_matching`` would return any row, read off the
        index without building them."""
        return any(self._columns[series][0].size for series in self.market_series(key))

    def market_series(self, key: SeriesKey) -> list[SeriesKey]:
        """The series of ``key``'s (product, quality, country) market, of
        its region unless that is None."""
        market = self._by_market.get((key.product, key.quality, key.country), ())
        return [series for series in market if key.region in (None, series.region)]

    def countries(self) -> list[str]:
        return sorted({key.country for key in self.series()})

    def products(self) -> list[str]:
        return sorted({key.product for key in self.series()})


def read_prices(path: str | Path, skip_bad_rows: bool = False) -> tuple[PanelStore, IngestReport]:
    """Read and validate a price panel into per-series arrays."""
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as handle, utf8_text(path, IngestError):
        columnar = _read_price_columns(handle)
    return columnar or _read_price_rows(path, skip_bad_rows)


def _read_price_columns(handle) -> tuple[PanelStore, IngestReport] | None:
    """The store and report of a file on which every row check passes, read
    a chunk of whole lines at a time; None at the first line that a plain
    split might read unlike ``csv.reader`` or whose cells might not parse,
    or when ``PanelStore`` refuses the rows, which leaves the file to the
    row reader."""
    if handle.readline() not in _HEADER_LINES:
        return None
    series: dict[SeriesKey, int] = {}  # series id by key, in first-seen order
    chunks = []
    while lines := handle.readlines(_CHUNK_CHARS):
        chunk = _price_chunk(lines, series)
        if chunk is None:
            return None
        chunks.append(chunk)
    ids, weeks, prices = (
        (np.concatenate(c) for c in zip(*chunks)) if chunks else (_NO_ROWS[0], *_NO_ROWS)
    )
    del chunks  # as large as the columns: free it before the store copies them
    order = np.argsort(ids, kind="stable")
    weeks, prices = weeks[order], prices[order]
    bounds = np.cumsum(np.bincount(ids, minlength=len(series)))[:-1]
    columns = dict(zip(series, zip(np.split(weeks, bounds), np.split(prices, bounds))))
    try:
        store = PanelStore.from_columns(columns)
    except ConfigError:  # a repeated week or a zero or overflowing price
        return None
    return store, IngestReport(ids.size, ids.size, 0, _kept_by_country(columns))


def _price_chunk(
    lines: list[str], series: dict[SeriesKey, int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """The series ids, week ordinals and prices of whole lines split as
    plain text, or None where that split or a row check might fail; new
    series get the next id. Each distinct cell text is parsed once."""
    text = "".join(lines)
    if not text.isascii() or '"' in text or len(text) > csv.field_size_limit():
        return None
    if "\r" in text:
        if text.count("\r") != text.count("\r\n"):  # a lone \r ends a row too
            return None
        text = text.replace("\r\n", "\n")
    if set(map(str.count, lines, repeat(","))) != {len(PRICE_HEADER) - 1}:
        return None  # a blank line or a wrong field count
    if not text.endswith("\n"):  # the last line of a file without a final newline
        text += "\n"
    n = len(lines)
    cells = text.replace("\n", ",").split(",")
    country, product, quality, region, year, week, price = (
        cells[i : n * 7 : 7] for i in range(7)
    )
    key_ids: dict[tuple[str, ...], int] = {}
    week_ids: dict[tuple[str, ...], int | str] = {}
    for raw in dict.fromkeys(zip(country, product, quality, region)):
        key = _series_key(*raw)
        if isinstance(key, str):
            return None
        key_ids[raw] = series.setdefault(key, len(series))
    for raw in dict.fromkeys(zip(year, week)):
        week_ids[raw] = _week_ordinal(*raw)
        if isinstance(week_ids[raw], str):
            return None
    if not _PRICE_COLUMN.fullmatch(",".join(price)):
        return None
    return (
        np.fromiter(map(key_ids.__getitem__, zip(country, product, quality, region)),
                    dtype=np.int64, count=n),
        np.fromiter(map(week_ids.__getitem__, zip(year, week)), dtype=np.int64, count=n),
        np.fromiter(map(float, price), dtype=float, count=n),
    )


def _read_price_rows(path: Path, skip_bad_rows: bool) -> tuple[PanelStore, IngestReport]:
    """``read_prices`` row by row: the reader that reports every problem."""
    columns: dict[SeriesKey, tuple[dict[int, int], list[float]]] = {}
    kept, problems = read_table(path, PRICE_HEADER, functools.partial(_parse_price_row, columns),
                                IngestError, skip_bad_rows=skip_bad_rows)
    report = IngestReport(len(kept) + len(problems), len(kept), len(problems),
                          _kept_by_country(columns), tuple(problems))
    return PanelStore.from_columns(
        {key: (list(lines), prices) for key, (lines, prices) in columns.items()}), report


def _kept_by_country(columns: _Columns) -> dict[str, int]:
    kept: dict[str, int] = {}
    for key, (_, prices) in columns.items():
        kept[key.country] = kept.get(key.country, 0) + len(prices)
    return kept


def _parse_price_row(
    columns: dict[SeriesKey, tuple[dict[int, int], list[float]]], lineno: int, row: list[str]
) -> None:
    """Add one data row to its series' (line by week ordinal, prices)
    column, or raise its first problem."""
    key = _series_key(row[0], row[1], row[2], row[3])
    if isinstance(key, str):
        raise IngestError(key)
    week = _week_ordinal(row[4], row[5])
    if isinstance(week, str):
        raise IngestError(week)
    price_text = row[6].strip()
    price = float(price_text) if _PRICE_PATTERN.match(price_text) else math.nan
    if not price > 0:
        raise IngestError(
            f"price must be a positive decimal with '.' separator, got {price_text!r}")
    if math.isinf(price):
        raise IngestError(
            f"price {price_text[:20]}... ({len(price_text)} characters) overflows a float")
    lines, prices = columns.setdefault(key, ({}, []))
    if week in lines:
        raise IngestError(duplicate(f"observation for {_series_week(key, week)}", lines[week]))
    lines[week] = lineno
    prices.append(price)


def _series_week(key: SeriesKey, week: int) -> str:
    return (
        f"{key.product}/{key.quality}/{key.country}/{key.region or '-'} "
        f"{IsoWeek.from_ordinal(week)}"
    )


# Cells repeat from row to row: each distinct text is checked once.
@functools.lru_cache(maxsize=4096)
def _series_key(country: str, product: str, quality: str, region: str) -> SeriesKey | str:
    """The series of a row's first four cells, or their first problem."""
    country, product, quality, region = (t.strip() for t in (country, product, quality, region))
    if not country:
        return "empty country"
    if not product:
        return "empty product"
    try:
        return SeriesKey(product, Quality.parse(quality), country, region or None)
    except ConfigError as exc:
        return str(exc)


@functools.lru_cache(maxsize=4096)
def _week_ordinal(year: str, week: str) -> int | str:
    """The ordinal of a row's ISO week, or the problem with its cells."""
    year, week = year.strip(), week.strip()
    if not (year.isdecimal() and week.isdecimal()):  # what int() reads
        return "year and iso_week must be integers"
    try:
        check_labelled_year(int(year))
        return IsoWeek(int(year), int(week)).ordinal
    except ConfigError as exc:
        return str(exc)


def write_prices(path: str | Path, observations: list[PriceObservation]) -> None:
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(PRICE_HEADER)
        for obs in observations:
            writer.writerow(
                [
                    obs.country,
                    obs.product,
                    obs.quality.value,
                    obs.region or "",
                    obs.week.year,
                    obs.week.week,
                    repr(float(obs.price)),
                ]
            )


def write_calendar(path: str | Path, entries: dict[str, tuple[str, str]]) -> None:
    """Write a calendar file from {product: (start_md, end_md)} strings."""
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(CALENDAR_HEADER)
        writer.writerows((product, *entries[product]) for product in sorted(entries))


@dataclass(frozen=True)
class AttributeRecord:
    """Product attributes for one (product, quality, comparison country);
    the fields are the columns of an attributes file, in order."""

    product: str
    quality: Quality
    comparison: str
    harvested_once: int
    storability_weeks: float
    market_share_pct: float
    days_protection: float


ATTRIBUTE_HEADER = tuple(field.name for field in fields(AttributeRecord))


def read_attributes(path: str | Path) -> list[AttributeRecord]:
    """The rows of an attributes file; a repeated (product, quality,
    comparison) names both lines."""
    path = Path(path)
    records, _ = read_table(
        path, ATTRIBUTE_HEADER, _attribute_record, IngestError,
        key=lambda a: f"attribute row for {a.product}/{a.quality}/{a.comparison}")
    if not records:
        raise IngestError(f"{path.name}: no attribute rows")
    return records


def _attribute_record(lineno: int, row: list[str]) -> AttributeRecord:
    cells = dict(zip(ATTRIBUTE_HEADER, (cell.strip() for cell in row)))
    quality = Quality.parse(cells["quality"])
    once = cells["harvested_once"]
    if once not in ("0", "1"):
        raise ConfigError(f"harvested_once must be 0 or 1, got {once!r}")
    numbers = {name: float(cells[name]) for name in ATTRIBUTE_HEADER[4:]}
    for name, value in numbers.items():
        if not math.isfinite(value):
            raise ConfigError(f"{name} must be a finite number, got {value!r}")
    return AttributeRecord(
        product=cells["product"],
        quality=quality,
        comparison=cells["comparison"],
        harvested_once=int(once),
        **numbers,
    )
