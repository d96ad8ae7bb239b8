"""Difference-in-differences estimators on the 2x2 (series, phase) design.

``D`` marks the treated series (1) versus the control series (0); ``T``
marks Protected weeks (1) versus Unprotected weeks (0). The target is the
average treatment effect on the treated cell (D=1, T=1).

A ``DidSample`` holds the rows and their ``CellTable`` of counts and outcome
sums per (cell, stratum) and per cell, tabulated once, when the sample is
built. Three estimators return an ``EffectEstimate``:

* ``estimate_ipw_did`` (on the table): inverse-probability weighting with
  three pairwise propensities of (1,1) membership against each comparison
  cell (1,0), (0,1), (0,0). With one categorical stratum (the season, or
  none) each pairwise logit is saturated, so rho in stratum s is the
  closed-form share n11_s / (n11_s + n_g_s) and the odds rho/(1 - rho) are
  n11_s / n_g_s. Each comparison mean is therefore the mean of its stratum
  means weighted by the treated count n11_s (the four-group propensity DiD
  of Stuart et al., 2014). Strata with rho above the trim threshold get
  weight 0; a table that neither separates nor trims builds no rho arrays.
* ``cell_means_did`` (on the table): the plain 2x2 cell-means DiD.
* ``estimate_ols_did`` (on the table's occupied (cell, stratum) bins): the
  interaction coefficient from ``y ~ const + D + T + D:T + stratum
  dummies``, classical standard errors. The design is constant within a
  bin, so ``glm.fit_ols`` fits the bins, each standing for the rows it
  counts, with the rows' sum of squares about their bin means completing
  the residual sum of squares, whose degrees of freedom count rows. The
  samples that share a bin design are fitted as one stack.

``bootstrap_se`` gives a table estimator its inference: it estimates the
sample's table once, then resamples observations independently within each
of the four cells and re-estimates each replicate's table. A block of
replicates (at most ``BLOCK_ROWS`` drawn rows, a constant with no setting)
is drawn as arrays by ``_replicate_draws``, the same stream as numpy's
generator per replicate: ``SeedSequence`` and ``PCG64`` are computed on
uint64 arrays for the whole block, so ``numpy.random`` is imported only to
redraw the rare replicate that numpy would reject. The block's tables are
counted from the drawn rows by one pair of ``bincount`` calls, and their
per-cell sums by one reduction; a replicate keeps the sample's cell sizes.
A replicate's ``CellTable`` holds only what the estimators read (views of
the block's arrays, those sizes and its cell sums), and the estimator runs
once on it. An ``EffectEstimate`` is a named tuple, cheap to build once per
replicate; ``bootstrap_se`` adds the inference to the point with ``_replace``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from itertools import repeat
from operator import add, truediv
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    ConfigError,
    GlmError,
    BootstrapDegenerateError,
    InfeasibleSampleError,
    SeasonDidError,
    SeparationError,
    TrimExhaustionError,
    unwrap,
)
# fit_logistic is not called here; perfbench/spans.py traces did.fit_logistic.
from .glm import INTERCEPT_NAME, DesignMatrix, FitResult, fit_logistic, fit_ols
from .panel import Outcome, PanelRows, PhaseLabel, SeriesKey

# z such that the standard normal leaves 2.5% in each tail
Z_975 = 1.959963984540054

CELL_ORDER = ((1, 1), (1, 0), (0, 1), (0, 0))
COMPARISON_CELLS = ((1, 0), (0, 1), (0, 0))
# Drawn rows tabulated together by bootstrap_se: a block holds as many
# replicates as fit, at least one, so its index arrays stay a few MiB for
# any sample size.
BLOCK_ROWS = 1 << 16
METHODS = ("ipw", "ols")

# numpy's SeedSequence hash (INIT_A, MULT_A, MIX_MULT_L/R, INIT_B, MULT_B)
# and PCG64's 128-bit LCG multiplier M, for _replicate_draws
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK64, _MASK128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1


# Each setting's range rule is one function, this and the ones below, called
# by the config, the CLI and the library alike: one refusal text per rule.
def check_trim(trim: float) -> None:
    if not 0.0 < trim <= 1.0:
        raise ConfigError(f"trim must be in (0, 1], got {trim}")


def _is_integer(value) -> bool:
    """A Python or numpy integer; a bool is not a count."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_bootstrap_reps(reps: int) -> None:
    """A standard deviation needs 2 replicates; a replicate's number fits a uint32."""
    if not (_is_integer(reps) and 2 <= reps <= 2**32):
        raise ConfigError(f"a bootstrap needs reps between 2 and 2**32, got {reps}")


def check_reps(reps: int) -> None:
    """0 runs no bootstrap."""
    if not (_is_integer(reps) and reps == 0):
        check_bootstrap_reps(reps)


def check_seed(seed: int) -> None:
    if not (_is_integer(seed) and seed >= 0):
        raise ConfigError(f"seed must be a non-negative integer, got {seed!r}")


def check_min_cell(min_cell: int) -> None:
    if not (_is_integer(min_cell) and min_cell >= 1):
        raise ConfigError(f"min_cell must be >= 1, got {min_cell}")


def check_control_country(treated: SeriesKey, control: SeriesKey) -> None:
    if treated.country == control.country:
        raise ConfigError(f"the control series {control} must be in another country than "
                          f"the treated series {treated}")


def check_methods(methods: tuple[str, ...]) -> None:
    if not methods or not set(methods) <= set(METHODS):
        raise ConfigError(f"methods must be a non-empty subset of {','.join(METHODS)}, "
                          f"got {methods!r}")


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class CovariateSpec(str, enum.Enum):
    NONE = "none"
    SEASONAL = "seasonal_fe"


@dataclass(frozen=True)
class EstimationTask:
    """One treated-versus-control estimation request; each side is the
    ``SeriesKey`` of one market, both share a quality, and the control is
    in another country."""

    treated: SeriesKey
    control: SeriesKey
    outcome: Outcome
    covariates: CovariateSpec = CovariateSpec.SEASONAL
    trim_threshold: float = 0.95
    bootstrap_reps: int = 200
    seed: int | None = None
    min_cell: int = 4
    trim_treated: bool = False

    def __post_init__(self):
        check_trim(self.trim_threshold)
        check_reps(self.bootstrap_reps)
        check_min_cell(self.min_cell)
        if self.treated.quality is not self.control.quality:
            raise ConfigError(
                f"treated and control series must share a quality: "
                f"{self.treated} vs {self.control}"
            )
        check_control_country(self.treated, self.control)

    def key(self) -> str:
        """Stable identifier used for ordering and per-task seeding."""
        parts = [
            self.treated.product,
            self.treated.quality.value,
            self.treated.country,
            self.treated.region or "",
            self.control.product,
            self.control.country,
            self.control.region or "",
            self.outcome.value,
        ]
        return "|".join(parts)


@dataclass(frozen=True, init=False)
class DidSample:
    """Estimation-ready outcome panel for one task.

    ``code`` is each row's (cell, stratum) code, ``cell * strata + stratum``
    with cells in ``CELL_ORDER``; ``stratum`` codes the one categorical
    covariate: 0 is the reference season, and every row is 0 without
    covariates. ``DidSample(y, d, t, stratum)`` checks and copies the rows;
    ``from_codes`` keeps the codes ``build_sample`` computed. The rows are
    tabulated once, for ``cell_table``, and ``d``, ``t`` and ``stratum`` are
    read from the codes. Every one of these arrays is read-only, so the
    table stays the table of the rows.
    """

    y: np.ndarray
    code: np.ndarray
    strata: int
    _table: CellTable = field(repr=False, compare=False)

    def __init__(self, y, d, t, stratum):
        y = np.array(y, dtype=float)
        d, t, stratum = np.asarray(d), np.asarray(t), np.asarray(stratum)
        n = y.shape[0]
        if d.shape[0] != n or t.shape[0] != n or stratum.shape[0] != n:
            raise ValueError("y, d, t and stratum must have the same number of rows")
        # checked on the raw values: the casts below would hide 256 or 0.7
        if ((d != 0) & (d != 1)).any() or ((t != 0) & (t != 1)).any():
            raise ValueError("d and t must be 0/1 indicators")
        codes = stratum.astype(np.intp)
        if (codes != stratum).any():
            raise ValueError("stratum codes must be integers")
        if n and codes.min() < 0:
            raise ValueError("stratum codes must be non-negative")
        strata = int(codes.max(initial=0)) + 1
        # CELL_ORDER is (1,1), (1,0), (0,1), (0,0): cell code 3 - 2d - t
        self._tabulate(y, (3 - 2 * d.astype(np.intp) - t.astype(np.intp)) * strata + codes, strata)

    @classmethod
    def from_codes(cls, y: np.ndarray, code: np.ndarray, strata: int) -> DidSample:
        """The sample of float ``y`` with codes below ``4 * strata``, not copied."""
        sample = cls.__new__(cls)
        sample._tabulate(y, code, strata)
        return sample

    def _tabulate(self, y: np.ndarray, code: np.ndarray, strata: int) -> None:
        counts = np.bincount(code, minlength=4 * strata).reshape(4, strata)
        # float with no rows too: bincount of no rows is ints, whatever the weights
        sums = np.bincount(code, weights=y, minlength=4 * strata).astype(float).reshape(4, strata)
        totals = [tuple(array.sum(axis=1).tolist()) for array in (counts, sums)]
        # the dataclass is frozen, so the fields are set in the instance dict
        vars(self).update(y=_read_only(y), code=_read_only(code), strata=strata,
                          _table=CellTable(_read_only(counts), _read_only(sums), *totals))

    d = property(lambda self: _read_only((self.code < 2 * self.strata).astype(np.int8)))
    t = property(lambda self: _read_only((self.code // self.strata % 2 == 0).astype(np.int8)))
    stratum = property(lambda self: _read_only(self.code % self.strata))

    @property
    def n_obs(self) -> int:
        return self.y.shape[0]

    def cell_table(self) -> CellTable:
        """The table tabulated when the sample was built."""
        return self._table


class CellTable(NamedTuple):
    """Row counts and outcome sums per (cell, stratum), each of shape
    (4, strata) with cells in ``CELL_ORDER``, and per cell (each a row's
    ``sum()``, reduced once by ``DidSample`` or once per block of replicates
    by ``bootstrap_se``): all that the IPW and cell-means estimators read."""

    counts: np.ndarray
    sums: np.ndarray
    n_by_cell: tuple[int, int, int, int]
    cell_sums: tuple[float, float, float, float]

    def validate(self, min_cell: int = 1) -> tuple[int, int, int, int]:
        """Rows per cell; raises :class:`InfeasibleSampleError` for an empty
        cell first, then for a cell with fewer than ``min_cell`` rows."""
        n_by_cell = self.n_by_cell
        if min(n_by_cell) >= max(min_cell, 1):
            return n_by_cell
        for (d, t), count in zip(CELL_ORDER, n_by_cell):
            if count == 0:
                raise InfeasibleSampleError(
                    f"empty_cell(D={d},T={t})",
                    "no observations in this (series, phase) cell",
                )
        for (d, t), count in zip(CELL_ORDER, n_by_cell):
            if count < min_cell:
                raise InfeasibleSampleError(
                    f"small_cell(D={d},T={t})",
                    f"cell has {count} observations, need at least {min_cell}",
                )
        return n_by_cell


class EffectEstimate(NamedTuple):
    """A point estimate with inference and sample bookkeeping: a named
    tuple, cheap to build once per replicate, given inference by ``_replace``.

    ``method`` is "ipw", "ols" or "means". Cell tuples follow the order
    (1,1), (1,0), (0,1), (0,0). ``p_value`` always refers the statistic
    atet/se to a two-sided standard normal.
    """

    method: str
    atet: float
    se: float
    p_value: float
    n_by_cell: tuple[int, int, int, int]
    n_trimmed_by_cell: tuple[int, int, int, int] = (0, 0, 0, 0)
    ci_normal: tuple[float, float] | None = None
    ci_percentile: tuple[float, float] | None = None
    bootstrap_reps: int | None = None
    bootstrap_failures: int | None = None
    seed: int | None = None

    @property
    def n_trimmed(self) -> int:
        return sum(self.n_trimmed_by_cell)


def two_sided_normal_p(estimate: float, se: float) -> float:
    """p-value of ``estimate / se`` against a two-sided standard normal."""
    if se == 0.0 or not math.isfinite(se):
        return 1.0 if estimate == 0.0 else 0.0
    return math.erfc(abs(estimate / se) / math.sqrt(2.0))


def quantile(values: np.ndarray, q: float) -> float:
    """``float(np.quantile(values, q))`` of a non-empty 1-d float array, bit
    for bit, without the ``np.unique`` inside ``np.quantile`` that imports
    ``numpy.ma`` (about 10 ms in each process).

    numpy's default "linear" method: the virtual index ``(n - 1) * q``, the
    same ``partition`` call, and its lerp, ``b - (b - a) * (1 - g)`` when
    ``g >= 0.5``. An index at or past the end clamps both neighbours to
    the last value, and ``g`` is then measured from index -1 as numpy does.
    """
    n = values.size
    index = (n - 1) * q
    below = -1 if index >= n - 1 else math.floor(index)
    above = -1 if below == -1 else below + 1
    g = index - below
    ordered = np.partition(values, sorted({0, -1, below, above}))
    a, b = float(ordered[below]), float(ordered[above])
    return b - (b - a) * (1 - g) if g >= 0.5 else a + (b - a) * g


def cell_means_did(table: CellTable) -> EffectEstimate:
    """Plain 2x2 cell-means DiD: (Y11 - Y10) - (Y01 - Y00), pooling strata.
    Only a table with an empty cell runs ``table.validate()``, which raises."""
    n_by_cell = n11, n10, n01, n00 = table.n_by_cell
    if not (n11 and n10 and n01 and n00):
        table.validate()
    s11, s10, s01, s00 = table.cell_sums
    atet = s11 / n11 - s10 / n10 - (s01 / n01 - s00 / n00)
    return EffectEstimate("means", atet, math.nan, math.nan, n_by_cell)


def propensity_report(table: CellTable) -> dict[tuple[int, int], np.ndarray]:
    """The three pairwise propensities, rho per stratum.

    Comparison cell g is paired with the (1,1) cell. A logit of
    (1,1)-membership on stratum dummies is saturated, so its fitted
    probability in stratum s is n11_s / (n11_s + n_g_s), read from the
    counts (0 for a stratum with no rows in either cell). A stratum with
    rows on only one side of a pair has no finite fit and raises
    :class:`SeparationError`.
    """
    table.validate()
    return dict(zip(COMPARISON_CELLS, _propensities(table.counts)))


def _propensities(counts: np.ndarray) -> np.ndarray:
    """rho per (comparison cell, stratum), comparison cells in
    ``COMPARISON_CELLS`` order; the first pair with a one-sided stratum,
    found in the counts as Python ints, raises."""
    n11, *n_g = counts.tolist()
    for (d, t), row in zip(COMPARISON_CELLS, n_g):
        strata = [s for s, (a, b) in enumerate(zip(n11, row)) if (a == 0) != (b == 0)]
        if strata:
            raise SeparationError(
                f"strata {strata} have rows on only one side of the "
                f"(1,1) vs (D={d},T={t}) propensity fit",
                columns=tuple(f"stratum_{s}" for s in strata),
            )
    return counts[0] / np.maximum(counts[0] + counts[1:], 1)


def estimate_ipw_did(
    table: CellTable,
    trim_threshold: float = 0.95,
    trim_treated: bool = False,
) -> EffectEstimate:
    """IPW DiD point estimate; standard errors come from ``bootstrap_se``.

    Comparison cell g's mean is the mean of its stratum means weighted by
    n11_s, with weight 0 for the strata whose rho exceeds ``trim_threshold``
    (their rows count as trimmed). With ``trim_treated`` the trimming is
    applied on the treated-protected side instead: (1,1) strata whose rho
    exceeds the threshold in any pairwise fit are dropped from the treated
    mean, and comparison cells stay intact.

    Only a table with an empty (cell, stratum) bin can separate. A table
    with none, and no rho above the threshold (most bootstrap replicates),
    takes weights n11 and the table's treated mean: its rho are Python
    floats of its counts as Python ints, and it builds no rho arrays.
    """
    check_trim(trim_threshold)
    n_by_cell = table.validate()
    counts, sums = table.counts, table.sums
    strata = counts.shape[1]
    flat = counts.ravel().tolist()
    n11 = flat[:strata] * 3  # lined up with the comparison counts, flat[strata:]
    weights, totals, trimmed = counts[0], n_by_cell[0], (0, 0, 0, 0)
    treated_mean = table.cell_sums[0] / n_by_cell[0]
    comparison = counts[1:]
    if 0 in flat or max(map(truediv, n11, map(add, n11, flat[strata:]))) > trim_threshold:
        above = _propensities(counts) > trim_threshold
        comparison = np.maximum(comparison, 1)  # an empty bin's sum is 0, and so its mean
        if trim_treated:
            treated_kept = ~above.any(axis=0)
            trimmed = (int(counts[0, ~treated_kept].sum()), 0, 0, 0)
            if trimmed[0] == n_by_cell[0]:
                raise TrimExhaustionError(
                    f"all {n_by_cell[0]} treated-protected observations exceeded "
                    f"the trim threshold {trim_threshold}"
                )
            treated_mean = float(sums[0, treated_kept].sum()) / (n_by_cell[0] - trimmed[0])
        else:
            trimmed_g = (counts[1:] * above).sum(axis=1)
            exhausted = np.flatnonzero(trimmed_g == n_by_cell[1:])
            if exhausted.size:
                k = int(exhausted[0]) + 1
                d, t = CELL_ORDER[k]
                raise TrimExhaustionError(
                    f"all {n_by_cell[k]} observations of cell (D={d},T={t}) "
                    f"exceeded the trim threshold {trim_threshold}"
                )
            trimmed = (0, *trimmed_g.tolist())
            weights = np.where(above, 0, weights)
            totals = weights.sum(axis=-1)
    # a 1-D dot per comparison cell, (1, strata) @ (strata, 1): a row sum
    # would add in another order and move last digits of the outputs
    stratum_means = sums[1:] / comparison
    dots = np.matmul(weights[..., None, :], stratum_means[:, :, None])[:, 0, 0]
    means = (dots / totals).tolist()
    atet = treated_mean - means[0] - (means[1] - means[2])
    return EffectEstimate("ipw", atet, math.nan, math.nan, n_by_cell, trimmed)


def estimate_ols_did(
    samples: DidSample | list[DidSample],
) -> EffectEstimate | list[EffectEstimate | SeasonDidError]:
    """DiD as the D:T interaction in an OLS regression with covariates, of
    one sample, which returns its estimate or raises, or of a list of
    samples, each of which gets its estimate or its error, in order.

    The design (const, d, t, d_t, stratum dummies) is constant within each
    (cell, stratum) bin, so ``fit_ols`` fits the occupied bins of a
    sample's table with their row counts and mean outcomes, and the rows'
    sum of squares about their bin means (each row's bin read from
    ``sample.code``): the fit of the rows, from a table of a few dozen bins.
    The samples with the same strata and occupied bins share that design,
    and are fitted as one stack by one ``fit_ols`` call.
    """
    if isinstance(samples, DidSample):
        return unwrap(estimate_ols_did([samples])[0])
    outcomes: list = [None] * len(samples)
    stacks: dict[tuple[int, bytes], list[int]] = {}
    for i, sample in enumerate(samples):
        try:
            sample.cell_table().validate()
        except InfeasibleSampleError as exc:
            outcomes[i] = exc
            continue
        bins = np.flatnonzero(sample.cell_table().counts).tobytes()
        stacks.setdefault((sample.strata, bins), []).append(i)
    for (strata, bins), members in stacks.items():
        bins = np.frombuffer(bins, dtype=np.intp)
        cell, stratum = np.divmod(bins, strata)
        # CELL_ORDER is (1,1), (1,0), (0,1), (0,0): d = cell < 2, t = cell even
        d, t = cell < 2, cell % 2 == 0
        dummies = stratum[:, None] == np.arange(1, strata)
        values = np.column_stack([np.ones(bins.size), d, t, d & t, dummies])
        names = (INTERCEPT_NAME, "d", "t", "d_t", *(f"stratum_{s}" for s in range(1, strata)))
        tables = [samples[i].cell_table() for i in members]
        counts = np.array([table.counts.ravel() for table in tables])
        mean = np.array([table.sums.ravel() for table in tables]) / np.maximum(counts, 1)
        deviations = [samples[i].y - row[samples[i].code] for i, row in zip(members, mean)]
        fits = fit_ols(DesignMatrix(values, names), mean[:, bins], counts[:, bins],
                       [deviation @ deviation for deviation in deviations])
        for i, table, fit in zip(members, tables, fits):
            if isinstance(fit, FitResult):
                atet, se = fit.coefficient("d_t"), fit.standard_error("d_t")
                p_value = two_sided_normal_p(atet, se)
                fit = EffectEstimate("ols", atet, se, p_value, table.n_by_cell)
            outcomes[i] = fit
    return outcomes


def _hash_chain(const: int, mult: int, rows: int) -> np.ndarray:
    """A hash constant and the ``rows`` that follow it, each the last times
    ``mult`` mod 2**32, as a (rows + 1, 1) uint32 column: a hash of row i
    xors with constant i and multiplies by constant i + 1."""
    chain = [const]
    for _ in range(rows):
        chain.append(chain[-1] * mult & _MASK32)
    return np.array(chain, np.uint32)[:, None]


def _seed_sequence_words(seed: int, first: int, count: int) -> list[np.ndarray]:
    """``SeedSequence((seed, r)).generate_state(4, np.uint64)`` for the
    replicates r = first ... first + count - 1, as four uint64 arrays, one
    per word, each of ``count`` values.

    The entropy is the seed's uint32 words, least significant first, then
    r (one word, so r < 2**32). Every r hashes the same number of words, so
    all replicates share one chain of hash constants. The pool is a
    (4, count) array: the hashes of one source word into the other pool
    words, which do not depend on each other, run as one array operation
    with a constant per row."""
    words = [seed & _MASK32]
    while seed > _MASK32:
        seed >>= 32
        words.append(seed & _MASK32)
    entropy = np.zeros((max(4, len(words) + 1), count), np.uint32)
    entropy[: len(words)] = np.array(words, np.uint32)[:, None]
    entropy[len(words)] = np.arange(first, first + count, dtype=np.uint32)
    const = _INIT_A

    def hashmix(value, rows):
        # numpy's hashmix on ``rows`` consecutive constants of the chain
        nonlocal const
        chain = _hash_chain(const, _MULT_A, rows)
        const = int(chain[-1, 0])
        value = value ^ chain[:-1]
        value *= chain[1:]
        return value ^ (value >> 16)

    def mix(x, y):
        result = x * _MIX_MULT_L - y * _MIX_MULT_R
        return result ^ (result >> 16)

    pool = hashmix(entropy[:4], 4)
    for src in range(4):
        dst = [i for i in range(4) if i != src]
        pool[dst] = mix(pool[dst], hashmix(pool[src], 3))
    for word in entropy[4:]:  # entropy longer than the pool
        pool = mix(pool, hashmix(word, 4))
    chain = _hash_chain(_INIT_B, _MULT_B, 8)
    value = pool[[0, 1, 2, 3, 0, 1, 2, 3]] ^ chain[:-1]
    value *= chain[1:]
    state = (value ^ (value >> 16)).astype(np.uint64)
    # uint32 pairs, low word first, make the uint64 words
    return [state[2 * j] | state[2 * j + 1] << 32 for j in range(4)]


def _mul_add(state, k: int, add):
    """``(state * k + add) mod 2**128`` for 128-bit values held as (hi, lo)
    pairs of uint64 arrays, ``k`` a Python int. uint64 products wrap mod
    2**64, so only the high word of ``lo * k_lo`` needs the 32-bit halves
    of both factors (Hacker's Delight ``mulhu``; no sum overflows)."""
    hi, lo = state
    add_hi, add_lo = add
    k_hi, k_lo = np.uint64(k >> 64), np.uint64(k & _MASK64)
    b0, b1 = k & _MASK32, k >> 32 & _MASK32
    a0, a1 = lo & _MASK32, lo >> 32
    t = a0 * b0
    t >>= 32
    t += a1 * b0
    u = a0 * b1
    u += t & _MASK32
    t >>= 32
    u >>= 32
    new_lo = lo * k_lo
    new_lo += add_lo
    new_hi = a1 * b1
    new_hi += t
    new_hi += u
    new_hi += hi * k_lo
    new_hi += lo * k_hi
    new_hi += add_hi
    new_hi += new_lo < add_lo
    return new_hi, new_lo


def _pcg64_raw(seed: int, first: int, count: int, words: int) -> np.ndarray:
    """The first ``words`` raw outputs of ``PCG64(SeedSequence((seed, r)))``
    for r = first ... first + count - 1, a (words, count) uint64 array.

    Each generator is seeded in closed form (PCG64's
    ``pcg_setseq_128_srandom_r``: ``inc = initseq << 1 | 1``, then
    ``state = (inc + s) * M + inc``), and output j is the XSL-RR output of
    the state j + 1 steps on. States 0 ... k - 1 give states k ... 2k - 1
    as ``M**k * s + (M**(k-1) + ... + M + 1) * inc`` (Brown's LCG
    jump-ahead), so log2(words) rounds of array arithmetic reach them all.
    Row 0 carries that jump term: one ``_mul_add`` by ``M**k`` with the
    jump added takes it to the next round's along with the states.
    """
    s_hi, s_lo, i_hi, i_lo = _seed_sequence_words(seed, first, count)
    inc = (i_hi << 1 | i_lo >> 63, i_lo << 1 | 1)
    hi = np.empty((words + 2, count), np.uint64)
    lo = np.empty_like(hi)
    hi[0], lo[0] = inc
    hi[1], lo[1] = _mul_add(_mul_add((s_hi, s_lo), 1, inc), _PCG64_MULT, inc)
    k, mult = 1, _PCG64_MULT
    while k <= words:
        take = min(k, words + 1 - k)
        new_hi, new_lo = _mul_add((hi[: take + 1], lo[: take + 1]), mult, (hi[0], lo[0]))
        hi[k + 1 : k + 1 + take], lo[k + 1 : k + 1 + take] = new_hi[1:], new_lo[1:]
        hi[0], lo[0] = new_hi[0], new_lo[0]
        k, mult = 2 * k, mult * mult & _MASK128
    hi, lo = hi[2:], lo[2:]
    xored, rot = hi ^ lo, hi >> 58
    raw = xored >> rot
    rot = 64 - rot
    rot &= 63
    raw |= xored << rot
    return raw


def _replicate_draws(seed: int, first: int, count: int, high: np.ndarray) -> np.ndarray:
    """Row r - first of the (count, rows) result is
    ``default_rng(SeedSequence((seed, r))).integers(0, high)`` for r =
    first ... first + count - 1, with each bound in ``high`` at most 2**32.

    The raw words of all ``count`` generators are computed together on
    uint64 arrays (``_pcg64_raw``), with no generator object. A bound above
    1 takes one uint32 of them, low half first, by Lemire's multiply-shift;
    a bound of 1 takes none. Where numpy would reject a uint32 and draw
    again, which happens for about rows * bound / 2**32 of the replicates,
    that replicate is redrawn by numpy itself: the only use of
    ``numpy.random``, which is imported then and not before."""
    bounded = high > 1
    size = high[bounded].astype(np.uint64)
    raw = _pcg64_raw(seed, first, count, (size.size + 1) // 2)
    # (bounded rows, count): each word's low half, then its high half
    halves = np.stack([raw & _MASK32, raw >> 32], axis=1).reshape(-1, count)
    scaled = halves[: size.size] * size[:, None]
    draws = np.zeros((count, high.size), dtype=np.intp)
    draws[:, bounded] = (scaled >> 32).T
    rejected = ((scaled & _MASK32) < ((2**32 - size) % size)[:, None]).any(axis=0)
    for i in np.flatnonzero(rejected).tolist():
        rng = np.random.default_rng(np.random.SeedSequence((seed, first + i)))
        draws[i] = rng.integers(0, high)
    return draws


def bootstrap_se(
    sample: DidSample,
    estimator: Callable[[CellTable], EffectEstimate],
    reps: int,
    seed: int,
) -> EffectEstimate:
    """Stratified nonparametric bootstrap of a table estimator.

    ``estimator`` runs once on the sample's table, and its errors
    propagate. Observations are then resampled with replacement
    independently within each of the four (D,T) cells, so no replicate
    loses a cell. Replicate ``r`` draws what
    ``default_rng(SeedSequence((seed, r))).integers(0, high)`` would, with
    ``high`` each row's cell size, rows ordered cell by cell in
    ``CELL_ORDER``: the same stream as one call per cell, and results do
    not depend on scheduling or on other tasks. A block of replicates, at
    most ``BLOCK_ROWS`` drawn rows, is drawn at once as array arithmetic
    (``_replicate_draws``; a replicate where numpy would reject a draw is
    redrawn by numpy, and there is no setting), then tabulated at the full
    sample's width by one pair of ``bincount`` calls, with the sample's
    ``n_by_cell`` (a replicate keeps its cell sizes) and ``cell_sums`` from
    one reduction over the block, and ``estimator`` runs once on each
    replicate's table. Replicates where it fails
    (separation, trim exhaustion, degenerate samples) are skipped and
    counted; more than 10% failures raises
    :class:`BootstrapDegenerateError`.

    Returns the full-sample estimate with the replicate standard deviation
    (ddof=1) as its se, the two-sided normal p-value, both normal and
    percentile 95% confidence intervals, and the replicate bookkeeping.
    ``reps`` outside 2 .. 2**32 (``check_bootstrap_reps``) and a seed that
    is not a non-negative integer (``check_seed``; ``None`` too) raise
    :class:`ConfigError` before any estimate.
    """
    check_bootstrap_reps(reps)
    check_seed(seed)
    table = sample.cell_table()
    estimate = estimator(table)
    strata = table.counts.shape[1]
    # rows cell by cell in CELL_ORDER, ascending within each cell
    order = np.argsort(sample.code // strata, kind="stable")
    code, y = sample.code[order], sample.y[order]
    sizes = np.array(table.n_by_cell)
    high = np.repeat(sizes, sizes)
    start = np.repeat(np.cumsum(sizes) - sizes, sizes)
    width = 4 * strata
    block = max(1, BLOCK_ROWS // max(code.size, 1))
    estimates = []
    append = estimates.append
    failures = 0
    for first in range(0, reps, block):
        count = min(block, reps - first)
        rows = _replicate_draws(int(seed), first, count, high)
        rows += start
        tagged = code[rows] + (np.arange(count) * width)[:, None]
        counts = np.bincount(tagged.ravel(), minlength=count * width).reshape(count, 4, strata)
        sums = np.bincount(tagged.ravel(), weights=y[rows].ravel(), minlength=count * width)
        sums = sums.reshape(count, 4, strata)
        # each last-axis row adds up as its own table's sums.sum(axis=1) would
        cell_sums = map(tuple, sums.sum(axis=2).tolist())
        for replicate in map(CellTable, counts, sums, repeat(table.n_by_cell, count), cell_sums):
            try:
                append(estimator(replicate).atet)
            except (GlmError, TrimExhaustionError, InfeasibleSampleError):
                failures += 1
    if failures > 0.1 * reps:
        raise BootstrapDegenerateError(
            f"{failures} of {reps} bootstrap replicates failed; "
            "the sample cannot support this estimator"
        )
    draws = np.asarray(estimates)
    se = float(draws.std(ddof=1))
    point = estimate.atet
    return estimate._replace(
        se=se,
        p_value=two_sided_normal_p(point, se),
        ci_normal=(point - Z_975 * se, point + Z_975 * se),
        ci_percentile=(quantile(draws, 0.025), quantile(draws, 0.975)),
        bootstrap_reps=reps,
        bootstrap_failures=failures,
        seed=seed,
    )


def build_sample(
    task: EstimationTask,
    treated_rows: PanelRows,
    control_rows: PanelRows,
) -> DidSample:
    """Assemble the estimation sample for one task: treated rows first,
    then control rows, each in their order.

    Expects fully transformed rows (standardized or volatility, Boundary
    weeks excluded, control restricted to treated production weeks). Each
    row's (cell, stratum) code comes straight from its side, its phase and
    the rank of its season among the sample's (with season fixed effects;
    else stratum 0), and is tabulated once. Every cell must meet
    ``task.min_cell``.
    """
    phase = np.concatenate([treated_rows.phase, control_rows.phase])
    if (phase == PhaseLabel.BOUNDARY.code).any():
        raise ValueError("sample construction received Boundary rows")
    # CELL_ORDER is (1,1), (1,0), (0,1), (0,0): cell 2 * control + unprotected
    cell = (phase != PhaseLabel.PROTECTED.code).astype(np.intp)
    cell[len(treated_rows):] += 2
    y = np.concatenate([treated_rows.value, control_rows.value])
    strata, stratum = 1, 0
    if task.covariates is CovariateSpec.SEASONAL and y.size:
        seasons = np.concatenate([treated_rows.season, control_rows.season])
        seasons -= seasons.min()
        rank = np.cumsum(np.bincount(seasons) > 0) - 1  # of each season in the sample
        stratum, strata = rank[seasons], int(rank[-1]) + 1
    sample = DidSample.from_codes(y, cell * strata + stratum, strata)
    sample.cell_table().validate(task.min_cell)
    return sample
