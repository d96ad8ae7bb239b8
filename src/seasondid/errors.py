"""Exception hierarchy for the seasondid pipeline.

Every error raised by the library derives from :class:`SeasonDidError` so
batch drivers can distinguish pipeline failures from programming errors.
Errors carry enough context (file positions, cell labels, column names) to be
actionable without a debugger.
"""

from __future__ import annotations

import contextlib
from pathlib import Path
from typing import Iterator


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
