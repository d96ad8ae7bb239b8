"""File I/O: weekly price panels, product attributes, and result tables.

The price schema is one row per observation::

    country,product,quality,region,year,iso_week,price

with exactly that header. ``region`` may be empty. ``price`` must be a
positive decimal using ``.`` as the separator. Validation failures carry
``file:line`` positions; by default any failure rejects the file, with
``skip_bad_rows`` offending rows are dropped and counted instead. Duplicate
(country, product, quality, region, year, iso_week) keys name both lines.
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError, IngestError
from .panel import PriceObservation, Quality, SeriesKey
from .weeks import IsoWeek

PRICE_HEADER = ("country", "product", "quality", "region", "year", "iso_week", "price")
ATTRIBUTE_HEADER = (
    "product",
    "quality",
    "comparison",
    "harvested_once",
    "storability_weeks",
    "market_share_pct",
    "days_protection",
)

_PRICE_PATTERN = re.compile(r"^\d+(\.\d+)?$")
_MAX_REPORTED = 50


@dataclass(frozen=True)
class IngestReport:
    rows_read: int
    rows_kept: int
    rows_skipped: int
    kept_by_country: dict[str, int]
    problems: tuple[str, ...] = ()


class PanelStore:
    """Price observations grouped by series, indexed by (product, quality,
    country) market."""

    def __init__(self, observations: list[PriceObservation]):
        self._by_series: dict[SeriesKey, list[PriceObservation]] = {}
        for obs in observations:
            self._by_series.setdefault(obs.series, []).append(obs)
        for rows in self._by_series.values():
            rows.sort(key=lambda o: o.week)
        self._series = sorted(
            self._by_series,
            key=lambda k: (k.product, k.quality.value, k.country, k.region or ""),
        )
        self._by_market: dict[tuple[str, Quality, str], list[SeriesKey]] = {}
        for key in self._series:
            self._by_market.setdefault((key.product, key.quality, key.country), []).append(key)

    def __len__(self) -> int:
        return sum(len(rows) for rows in self._by_series.values())

    def series(self) -> list[SeriesKey]:
        return list(self._series)

    def rows_for(self, key: SeriesKey) -> list[PriceObservation]:
        return list(self._by_series.get(key, []))

    def rows_matching(
        self,
        product: str,
        quality: Quality,
        country: str,
        region: str | None = None,
    ) -> list[PriceObservation]:
        """All observations of a (product, quality, country) triple, series
        in ``series()`` order; ``region=None`` pools every region."""
        rows: list[PriceObservation] = []
        for key in self._by_market.get((product, quality, country), ()):
            if region is None or key.region == region:
                rows.extend(self._by_series[key])
        return rows

    def countries(self) -> list[str]:
        return sorted({key.country for key in self.series()})

    def products(self) -> list[str]:
        return sorted({key.product for key in self.series()})


def read_prices(path: str | Path, skip_bad_rows: bool = False) -> tuple[PanelStore, IngestReport]:
    """Read and validate a price panel."""
    path = Path(path)
    observations: list[PriceObservation] = []
    problems: list[str] = []
    seen: dict[tuple, int] = {}
    rows_read = 0
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise IngestError(f"{path.name}: file is empty") from None
        if tuple(cell.strip() for cell in header) != PRICE_HEADER:
            raise IngestError(
                f"{path.name}:1: expected header {','.join(PRICE_HEADER)!r}, "
                f"got {','.join(header)!r}"
            )
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            rows_read += 1
            problem = _parse_price_row(path.name, lineno, row, seen, observations)
            if problem is not None:
                problems.append(problem)
    if problems and not skip_bad_rows:
        shown = problems[:_MAX_REPORTED]
        if len(problems) > _MAX_REPORTED:
            shown.append(f"... and {len(problems) - _MAX_REPORTED} more")
        raise IngestError(
            f"{len(problems)} invalid rows in {path.name}:\n" + "\n".join(shown)
        )
    kept_by_country: dict[str, int] = {}
    for obs in observations:
        kept_by_country[obs.country] = kept_by_country.get(obs.country, 0) + 1
    report = IngestReport(
        rows_read=rows_read,
        rows_kept=len(observations),
        rows_skipped=len(problems),
        kept_by_country=kept_by_country,
        problems=tuple(problems),
    )
    return PanelStore(observations), report


def _parse_price_row(
    filename: str,
    lineno: int,
    row: list[str],
    seen: dict[tuple, int],
    observations: list[PriceObservation],
) -> str | None:
    """Parse one data row; returns a problem string or appends the row."""
    if len(row) != len(PRICE_HEADER):
        return f"{filename}:{lineno}: expected {len(PRICE_HEADER)} fields, got {len(row)}"
    country, product, quality_text, region, year_text, week_text, price_text = (
        cell.strip() for cell in row
    )
    if not country:
        return f"{filename}:{lineno}: empty country"
    if not product:
        return f"{filename}:{lineno}: empty product"
    try:
        quality = Quality.parse(quality_text)
    except ConfigError as exc:
        return f"{filename}:{lineno}: {exc}"
    if not (year_text.isdigit() and week_text.isdigit()):
        return f"{filename}:{lineno}: year and iso_week must be integers"
    try:
        week = IsoWeek(int(year_text), int(week_text))
    except ConfigError as exc:
        return f"{filename}:{lineno}: {exc}"
    price = float(price_text) if _PRICE_PATTERN.match(price_text) else math.nan
    if not price > 0:
        return (
            f"{filename}:{lineno}: price must be a positive decimal "
            f"with '.' separator, got {price_text!r}"
        )
    if math.isinf(price):
        return (
            f"{filename}:{lineno}: price {price_text[:20]}... "
            f"({len(price_text)} characters) overflows a float"
        )
    key = (country, product, quality, region or None, week)
    if key in seen:
        return (
            f"{filename}:{lineno}: duplicate observation for "
            f"{product}/{quality}/{country}/{region or '-'} {week} "
            f"(first seen on line {seen[key]})"
        )
    seen[key] = lineno
    observations.append(
        PriceObservation(
            product=product,
            quality=quality,
            country=country,
            region=region or None,
            week=week,
            price=price,
        )
    )
    return None


def write_prices(path: str | Path, observations: list[PriceObservation]) -> None:
    path = Path(path)
    with path.open("w", newline="") as handle:
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
    path = Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(("product", "start_md", "end_md"))
        for product in sorted(entries):
            start_md, end_md = entries[product]
            writer.writerow((product, start_md, end_md))


@dataclass(frozen=True)
class AttributeRecord:
    """Product attributes for one (product, quality, comparison country)."""

    product: str
    quality: Quality
    comparison: str
    harvested_once: int
    storability_weeks: float
    market_share_pct: float
    days_protection: float


def read_attributes(path: str | Path) -> list[AttributeRecord]:
    path = Path(path)
    records: list[AttributeRecord] = []
    problems: list[str] = []
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise IngestError(f"{path.name}: file is empty") from None
        if tuple(cell.strip() for cell in header) != ATTRIBUTE_HEADER:
            raise IngestError(
                f"{path.name}:1: expected header {','.join(ATTRIBUTE_HEADER)!r}, "
                f"got {','.join(header)!r}"
            )
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != len(ATTRIBUTE_HEADER):
                problems.append(
                    f"{path.name}:{lineno}: expected {len(ATTRIBUTE_HEADER)} fields, "
                    f"got {len(row)}"
                )
                continue
            product, quality_text, comparison, once, storability, share, days = (
                cell.strip() for cell in row
            )
            try:
                quality = Quality.parse(quality_text)
                if once not in ("0", "1"):
                    raise ConfigError(f"harvested_once must be 0 or 1, got {once!r}")
                record = AttributeRecord(
                    product=product,
                    quality=quality,
                    comparison=comparison,
                    harvested_once=int(once),
                    storability_weeks=float(storability),
                    market_share_pct=float(share),
                    days_protection=float(days),
                )
            except (ConfigError, ValueError) as exc:
                problems.append(f"{path.name}:{lineno}: {exc}")
                continue
            records.append(record)
    if problems:
        raise IngestError(
            f"{len(problems)} invalid rows in {path.name}:\n" + "\n".join(problems)
        )
    if not records:
        raise IngestError(f"{path.name}: no attribute rows")
    return records
