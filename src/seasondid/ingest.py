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

A price file is first read as columns, 64 KiB of whole lines at a time,
as bytes: numpy finds every comma and line end, a run of lines whose
series cells have the same bytes is parsed once, so is each distinct
year and week text, and all prices of a chunk are parsed in one call.
That path takes a file only if it is ASCII, holds no ``"`` or NUL byte,
has the exact header, ``\\n`` or ``\\r\\n`` line ends, no blank line and
seven fields on every line, no cell beyond ``csv.field_size_limit()``,
year and week cells of 8 bytes or fewer with their comma, decimal prices
and valid weeks only, and makes a store that ``PanelStore`` accepts.
Anything else, any problem included, sends the whole file to the row
reader, which alone reports problems; the columnar path is tested
against it.
"""

from __future__ import annotations

import csv
import functools
import math
import re
from dataclasses import dataclass, fields
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, Sequence

import numpy as np

from .errors import ConfigError, IngestError, duplicate, read_table
from .calendar import CALENDAR_HEADER
from .panel import PanelRows, PriceObservation, Quality, SeriesKey
from .panel import check_labelled_year, labelled_years
from .weeks import IsoWeek

PRICE_HEADER = ("country", "product", "quality", "region", "year", "iso_week", "price")
EFFECTS_COLUMNS = (
    "product", "quality", "control_country", "outcome", "method", "atet", "se",
    "p", "n11", "n10", "n01", "n00", "trimmed", "reps", "seed",
)

_PRICE_PATTERN = re.compile(r"^\d+(?:\.\d+)?$")
_HEADER_LINES = tuple((",".join(PRICE_HEADER) + end).encode() for end in ("\n", "\r\n", ""))
_LINE_STOPS = np.frombuffer(b",,,,,,\n", dtype=np.uint8)  # the delimiters of one line
_CHUNK_BYTES = 64 * 1024
_GATHER = 64  # bytes of each line's key compared in place; a wider key starts a run
# row w keeps the first w bytes of _GATHER bytes read as little-endian words
_MASKS = np.array([[(1 << 8 * min(8, max(0, w - j))) - 1 for j in range(0, _GATHER, 8)]
                   for w in range(_GATHER + 1)], dtype=np.uint64)
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
    with path.open("rb") as handle:
        columnar = _read_price_columns(handle)
    return columnar or _read_price_rows(path, skip_bad_rows)


def _read_price_columns(handle: BinaryIO) -> tuple[PanelStore, IngestReport] | None:
    """The store and report of a binary file on which every row check
    passes, read ``_CHUNK_BYTES`` at a time, each chunk cut after its last
    ``\\n``; None at the first chunk that ``csv.reader`` might split unlike
    its delimiters or whose cells might not parse, or when ``PanelStore``
    refuses the rows, which leaves the file to the row reader."""
    if handle.readline(len(_HEADER_LINES[1])) not in _HEADER_LINES:  # the longest
        return None
    series: dict[SeriesKey, int] = {}  # series id by key, in first-seen order
    chunks, data = [], None
    for data in _line_chunks(handle):
        chunks.append(None if data is None else _price_chunk(data, series))
        if chunks[-1] is None:
            return None
    ids, weeks, prices = (
        (np.concatenate(c) for c in zip(*chunks)) if chunks else (_NO_ROWS[0], *_NO_ROWS)
    )
    del chunks, data  # as large as the columns, and the last chunk: free them first
    order = np.argsort(ids, kind="stable")
    weeks, prices = weeks[order], prices[order]
    bounds = np.cumsum(np.bincount(ids, minlength=len(series)))[:-1]
    columns = dict(zip(series, zip(np.split(weeks, bounds), np.split(prices, bounds))))
    try:
        store = PanelStore.from_columns(columns)
    except ConfigError:  # a repeated week or a zero or overflowing price
        return None
    return store, IngestReport(ids.size, ids.size, 0, _kept_by_country(columns))


def _line_chunks(handle: BinaryIO) -> Iterator[bytes | None]:
    """The rest of ``handle`` in chunks of whole lines, each ended by
    ``\\n``. A last line without one gets it, or is None if it ends in a
    lone ``\\r``, which ``csv.reader`` reads as a line end; so is text
    since the last ``\\n`` longer than any line a chunk may hold."""
    longest = len(PRICE_HEADER) * (csv.field_size_limit() + 1)
    tail: list[bytes] = []
    while block := handle.read(_CHUNK_BYTES):
        cut = block.rfind(b"\n") + 1
        if cut:
            yield b"".join((*tail, block[:cut]))
            tail = []
        tail.append(block[cut:])
        if sum(map(len, tail)) > longest:
            yield None
            return
    if rest := b"".join(tail):
        yield None if rest.endswith(b"\r") else rest + b"\n"


def _price_chunk(
    data: bytes, series: dict[SeriesKey, int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """The series ids, week ordinals and prices of whole lines, found from
    the positions of their delimiters, or None where ``csv.reader`` might
    split a line otherwise or a row check might fail; new series get the
    next id. Each run of lines with equal key bytes and each distinct
    (year, week) text is parsed once, and all prices in one call."""
    buf = np.frombuffer(data, dtype=np.uint8)
    if buf.min() == 0 or buf.max() > 127 or (buf == ord('"')).any():
        return None  # cells are compared with zero bytes past their end: no cell holds one
    stops = np.flatnonzero((buf == ord(",")) | (buf == ord("\n")))
    if stops.size % len(PRICE_HEADER):
        return None
    stops = stops.reshape(-1, len(PRICE_HEADER))
    if not ((buf[stops] == _LINE_STOPS).all() and np.count_nonzero(buf == ord("\r"))
            == np.count_nonzero(buf[stops[:, -1] - 1] == ord("\r"))):
        return None  # a wrong field count, a blank line or a \r that ends no line
    starts = np.concatenate(([0], stops.ravel()[:-1] + 1)).reshape(stops.shape)
    span = stops[:, 5] - starts[:, 4]  # of the year and week cells and the comma between
    if (stops - starts).max() > csv.field_size_limit() or span.max() > 8:
        return None  # a price cell's width counts its line's \r
    words = _words(buf)
    key_width = stops[:, 3] - starts[:, 0]
    count = (min(int(key_width.max()), _GATHER) + 7) // 8
    keys = words[starts[:, :1] + 8 * np.arange(count)]
    keys &= _MASKS[np.minimum(key_width, _GATHER), :count]
    first = np.flatnonzero(np.concatenate(([True], (keys[1:] != keys[:-1]).any(axis=1)
                                           | (key_width[1:] != key_width[:-1])))
                           | (key_width > _GATHER))  # a key wider than the gather starts a run
    run_ids = []
    for start, stop in zip(starts[first, 0].tolist(), stops[first, 3].tolist()):
        key = _series_key(*data[start:stop].decode().split(","))
        if isinstance(key, str):
            return None
        run_ids.append(series.setdefault(key, len(series)))
    codes, code_at = np.unique(words[starts[:, 4]] & _MASKS[span, 0], return_inverse=True)
    ordinals = [_week_ordinal(*code.to_bytes(8, "little").rstrip(b"\0").decode().split(","))
                for code in codes.tolist()]  # each code is its text, zero bytes after it
    if any(isinstance(ordinal, str) for ordinal in ordinals):
        return None
    prices = _price_column(buf, starts[:, 0], stops[:, 5], stops[:, 6])
    return None if prices is None else (
        np.repeat(np.array(run_ids, dtype=np.int64), np.diff(first, append=len(stops))),
        np.array(ordinals, dtype=np.int64)[code_at],
        prices,
    )


def _words(buf: np.ndarray) -> np.ndarray:
    """The little-endian uint64 of the 8 bytes from each position of
    ``buf`` on, ``buf`` followed by ``_GATHER`` zero bytes."""
    padded = np.concatenate((buf, np.zeros(_GATHER, dtype=np.uint8)))
    return np.ndarray((buf.size + _GATHER - 7,), np.dtype("<u8"), padded, 0, (1,))


def _price_column(buf: np.ndarray, line: np.ndarray, comma: np.ndarray,
                  end: np.ndarray) -> np.ndarray | None:
    """The prices in the last cells of the lines from ``line``, each from
    after its ``comma`` to its ``\\n`` at ``end``, parsed in one call; None
    unless each cell matches ``_PRICE_PATTERN``."""
    length = end - comma  # the cell, its line's \r if any, and the \n
    text = buf[np.repeat(np.tile([False, True], end.size),
                         np.stack((comma + 1 - line, length), axis=1).ravel())]
    edges = np.concatenate((buf[comma + 1], buf[end - 1 - (buf[end - 1] == ord("\r"))]))
    dot_cells = np.searchsorted(np.cumsum(length), np.flatnonzero(text == ord(".")), side="right")
    if not ((edges - ord("0") < 10).all() and (np.diff(dot_cells) > 0).all() and (
            (text - ord("0") < 10) | (text == ord(".")) | (text == ord("\r")) | (text == ord("\n"))
    ).all()):
        return None  # an empty cell has the comma or the line end as an edge
    return np.fromstring(text, sep=" ")


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
