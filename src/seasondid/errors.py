"""Exception hierarchy for the seasondid pipeline, and the one reader of
its input tables.

Every error raised by the library derives from :class:`SeasonDidError` so
batch drivers can distinguish pipeline failures from programming errors.
Errors carry enough context (file positions, cell labels, column names) to be
actionable without a debugger. ``read_table``, the reader of every input
table (calendar, price rows, attributes, effects), gives each the same
``file:line`` problem texts, the ``duplicate`` key text among them.
"""

from __future__ import annotations

import contextlib
import csv
from pathlib import Path
from typing import Callable, Iterator, TypeVar

_MAX_REPORTED = 50
_Record = TypeVar("_Record")


class SeasonDidError(Exception):
    """Base class for all seasondid errors."""


class ConfigError(SeasonDidError):
    """Invalid configuration value or unusable combination of options."""


class IngestError(SeasonDidError):
    """Malformed input data; message lists offending file positions."""


class CalendarError(SeasonDidError):
    """Malformed protection-calendar file or invalid protection window."""


class CalendarMissError(SeasonDidError):
    """A product has no entry in the protection calendar."""

    def __init__(self, product: str):
        self.product = product
        super().__init__(f"no protection-calendar entry for product {product!r}")


class EmptyOverlapError(SeasonDidError):
    """Production-week restriction left no control observations."""


class GlmError(SeasonDidError):
    """Base class for estimation-core failures."""


class DegenerateOutcomeError(GlmError):
    """Binary outcome had only one class."""


class SeparationError(GlmError):
    """Perfect or quasi-perfect separation in a logistic fit."""

    def __init__(self, message: str, columns: tuple[str, ...] = ()):
        self.columns = columns
        super().__init__(message)


class RankError(GlmError):
    """Design matrix is rank deficient after degenerate-column pruning."""

    def __init__(self, message: str, columns: tuple[str, ...] = ()):
        self.columns = columns
        super().__init__(message)


class ConvergenceError(GlmError):
    """Iterative fit exhausted its iteration budget without converging."""


class InfeasibleSampleError(SeasonDidError):
    """An estimation sample cannot support the requested contrast.

    ``reason`` is a stable machine-readable tag such as
    ``"empty_cell(D=1,T=0)"`` or ``"small_cell(D=0,T=1)"``; batch runners
    record it verbatim in their manifests.
    """

    def __init__(self, reason: str, detail: str = ""):
        self.reason = reason
        super().__init__(f"{reason}: {detail}" if detail else reason)


class TrimExhaustionError(SeasonDidError):
    """Propensity trimming removed every observation of a comparison group."""


class BootstrapDegenerateError(SeasonDidError):
    """Too many bootstrap replicates failed to produce an estimate."""


@contextlib.contextmanager
def utf8_text(path: Path, error: type[SeasonDidError]) -> Iterator[None]:
    """Report a read of ``path`` that meets bytes UTF-8 cannot decode as
    ``error`` naming the file, not as a UnicodeDecodeError."""
    try:
        yield
    except UnicodeDecodeError as exc:
        byte = exc.object[exc.start]
        raise error(f"{path.name}: not UTF-8 text ({exc.reason} {byte:#04x})") from None


def duplicate(what: str, first_line: int | None = None) -> str:
    """The refusal of a repeated key: ``what`` names the key, and
    ``first_line`` the line of the row that had it first, when known."""
    seen = "" if first_line is None else f" (first seen on line {first_line})"
    return f"duplicate {what}{seen}"


def read_table(
    path: Path,
    header: tuple[str, ...],
    parse: Callable[[int, list[str]], _Record],
    error: type[SeasonDidError],
    key: Callable[[_Record], str] | None = None,
    skip_bad_rows: bool = False,
) -> tuple[list[_Record], list[str]]:
    """The records of the non-blank rows after a first line of exactly
    ``header``, each made by ``parse`` from its line number and raw cells,
    and the ``file:line: text`` of each problem row: a wrong field count, a
    SeasonDidError or ValueError from ``parse``, or a record whose ``key``
    (a text naming it) an earlier record had. Unless ``skip_bad_rows``, any
    problem raises ``error`` listing the first 50; an empty file, a wrong
    header, a csv.Error and bytes UTF-8 cannot decode always raise it."""
    records: list[_Record] = []
    problems: list[str] = []
    first_line: dict[str, int] = {}
    with path.open(newline="", encoding="utf-8") as handle, utf8_text(path, error):
        reader = csv.reader(handle)
        try:
            first = next(reader, None)
            if first is None:
                raise error(f"{path.name}: file is empty")
            if tuple(cell.strip() for cell in first) != header:
                raise error(f"{path.name}:1: expected header {','.join(header)!r}, "
                            f"got {','.join(first)!r}")
            for lineno, row in enumerate(reader, start=2):
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue
                try:
                    if len(row) != len(header):
                        raise error(f"expected {len(header)} fields, got {len(row)}")
                    record = parse(lineno, row)
                    if key is not None:
                        name = key(record)
                        if name in first_line:
                            raise error(duplicate(name, first_line[name]))
                        first_line[name] = lineno
                except (SeasonDidError, ValueError) as exc:
                    problems.append(f"{path.name}:{lineno}: {exc}")
                else:
                    records.append(record)
        except csv.Error as exc:  # e.g. a cell longer than csv.field_size_limit()
            raise error(f"{path.name}:{reader.line_num}: {exc}") from None
    if problems and not skip_bad_rows:
        shown = problems[:_MAX_REPORTED]
        if len(problems) > _MAX_REPORTED:
            shown.append(f"... and {len(problems) - _MAX_REPORTED} more")
        raise error(f"{len(problems)} invalid rows in {path.name}:\n" + "\n".join(shown))
    return records, problems
