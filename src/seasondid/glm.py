"""Estimation core: logistic regression via IRLS and OLS via QR.

Small by design. Both fitters share the same front door: a named-column
design matrix, degenerate-column pruning with a report of what was dropped,
and loud, typed failures (rank deficiency, separation, non-convergence)
instead of silently unstable output. ``fit_ols`` is the one OLS path, and
every fit weighs its rows: the OLS DiD's (cell, stratum) bins by the rows
each counts, the heterogeneity regression's rows by 1.

Conventions:

* an intercept is a leading column named ``"const"``;
* constant columns other than ``"const"`` and exact duplicates of earlier
  columns are pruned before fitting and reported in ``dropped_columns``;
* any remaining rank deficiency raises :class:`RankError` naming suspects.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceError,
    DegenerateOutcomeError,
    RankError,
    SeparationError,
    unwrap,
)

MAX_ITERATIONS = 100
COEF_TOL = 1e-8
SCORE_TOL = 1e-6
SEPARATION_COEF_BOUND = 30.0
SEPARATION_PROB_TOL = 1e-10
INTERCEPT_NAME = "const"


@dataclass(frozen=True)
class DesignMatrix:
    """A dense design matrix with one name per column."""

    values: np.ndarray
    names: tuple[str, ...]

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.ndim != 2:
            raise ValueError(f"design matrix must be 2-D, got shape {values.shape}")
        if len(self.names) != values.shape[1]:
            raise ValueError(
                f"{values.shape[1]} columns but {len(self.names)} names"
            )
        if len(set(self.names)) != len(self.names):
            raise ValueError(f"duplicate column names in {self.names}")


@dataclass(frozen=True)
class FitResult:
    """Coefficients and classical standard errors from one fit."""

    coefficients: np.ndarray
    standard_errors: np.ndarray
    fitted: np.ndarray
    iterations: int
    column_names: tuple[str, ...]
    dropped_columns: tuple[str, ...]
    residual_df: int

    def coefficient(self, name: str) -> float:
        return float(self.coefficients[self.column_names.index(name)])

    def standard_error(self, name: str) -> float:
        return float(self.standard_errors[self.column_names.index(name)])


def prune_design(design: DesignMatrix) -> tuple[DesignMatrix, tuple[str, ...]]:
    """Drop degenerate columns: constants (except a column named ``const``)
    and exact duplicates of an earlier kept column."""
    values, names = design.values, design.names
    n, k = values.shape
    if not k:
        return design, ()
    drop = np.zeros(k, dtype=bool)
    if n:
        drop = (np.ptp(values, axis=0) == 0.0) & (np.array(names) != INTERCEPT_NAME)
    # A column equal to an earlier one equals an earlier kept one. A stable
    # sort of the columns puts equal ones side by side, earliest first.
    order = np.lexsort(values) if n else np.arange(k)
    ranked = values[:, order]
    drop[order[1:][(ranked[:, 1:] == ranked[:, :-1]).all(axis=0)]] = True
    if not drop.any():
        return design, ()
    pruned = DesignMatrix(values[:, ~drop], tuple(names[j] for j in np.flatnonzero(~drop)))
    return pruned, tuple(names[j] for j in np.flatnonzero(drop))


def _check_columns(n: int, names: tuple[str, ...]) -> None:
    """A fit of ``n`` observations needs at least one column and no more
    columns than observations."""
    if not names:
        raise RankError("design matrix has no columns after pruning")
    if n < len(names):
        raise RankError(f"more columns ({len(names)}) than rows ({n})", columns=names)


def _check_rank(values: np.ndarray, r: np.ndarray, n: int, names: tuple[str, ...]) -> None:
    """Raise :class:`RankError` naming the columns of ``values`` that lie in
    the span of the columns before them, judged by the diagonal of ``r``,
    the R factor of ``values``, against ``max(n, k) * eps * max|diag|`` for
    a fit of ``n`` observations.

    Only the first column flagged is sure. Its Householder step reflects
    rounding noise and so still takes up a row, which a later independent
    column may need when ``values`` has few rows (a table with fewer bins
    than columns leaves the last columns no pivot at all). So that column
    is set aside and the columns after it are judged again on the R of the
    rest."""
    k = values.shape[1]
    diag = _pivots(r, k)
    tol = max(n, k) * np.finfo(float).eps * diag.max()
    judged = list(range(k))
    bad: list[int] = []
    while (flagged := [judged[j] for j in np.flatnonzero(diag <= tol).tolist()]):
        bad.append(flagged[0])
        if len(flagged) == 1:
            break
        judged.remove(flagged[0])
        diag = _pivots(np.linalg.qr(values[:, judged], mode="r"), len(judged))
    if bad:
        columns = tuple(names[j] for j in bad)
        raise RankError(
            f"design matrix is rank deficient; collinear columns: {list(columns)}",
            columns=columns,
        )


def _pivots(r: np.ndarray, k: int) -> np.ndarray:
    """|diag(r)| for ``k`` columns; a column past the last row has pivot 0."""
    diag = np.zeros(k)
    diag[: min(r.shape)] = np.abs(np.diag(r))
    return diag


def _validate_binary(y: np.ndarray) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    if not np.isin(y, (0.0, 1.0)).all():
        raise DegenerateOutcomeError("binary outcome must contain only 0 and 1")
    if y.min() == y.max():
        raise DegenerateOutcomeError(
            f"binary outcome has a single class (all {int(y[0])})"
        )
    return y


def logistic_log_likelihood(design: DesignMatrix, y: np.ndarray, beta: np.ndarray) -> float:
    """Bernoulli log-likelihood at ``beta`` (no pruning applied)."""
    eta = design.values @ np.asarray(beta, dtype=float)
    # log(1 + exp(eta)) computed stably for both signs of eta
    softplus = np.logaddexp(0.0, eta)
    return float(np.asarray(y, dtype=float) @ eta - softplus.sum())


def logistic_score(design: DesignMatrix, y: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Score vector X'(y - p) at ``beta`` (no pruning applied)."""
    eta = design.values @ np.asarray(beta, dtype=float)
    p = 1.0 / (1.0 + np.exp(-np.clip(eta, -700, 700)))
    return design.values.T @ (np.asarray(y, dtype=float) - p)


def fit_logistic(design: DesignMatrix, y: np.ndarray) -> FitResult:
    """Maximum-likelihood logistic fit by Newton/IRLS iteration.

    Converges when the largest coefficient change drops below 1e-8 and the
    score is below 1e-6 in every coordinate. Raises
    :class:`SeparationError` when any |coefficient| exceeds 30 during
    iteration or a fitted probability ends within 1e-10 of 0 or 1, and
    :class:`ConvergenceError` after 100 iterations without convergence.
    """
    y = _validate_binary(y)
    pruned, dropped = prune_design(design)
    values, names = pruned.values, pruned.names
    if y.shape[0] != values.shape[0]:
        raise ValueError(f"y has {y.shape[0]} rows, design has {values.shape[0]}")
    _check_columns(values.shape[0], names)
    _check_rank(values, np.linalg.qr(values, mode="r"), values.shape[0], names)

    beta = np.zeros(values.shape[1])
    for iterations in range(1, MAX_ITERATIONS + 1):
        eta = values @ beta
        p = 1.0 / (1.0 + np.exp(-np.clip(eta, -700, 700)))
        w = p * (1.0 - p)
        info = values.T @ (values * w[:, None])
        score = values.T @ (y - p)
        try:
            step = np.linalg.solve(info, score)
        except np.linalg.LinAlgError:
            raise SeparationError(
                "information matrix became singular during iteration "
                "(weights collapsed toward 0/1 fitted probabilities)",
                columns=names,
            ) from None
        beta = beta + step
        big = np.abs(beta) > SEPARATION_COEF_BOUND
        if big.any():
            offenders = tuple(names[j] for j in np.flatnonzero(big))
            raise SeparationError(
                f"coefficients diverged beyond |{SEPARATION_COEF_BOUND}|: {list(offenders)}",
                columns=offenders,
            )
        if np.abs(step).max() < COEF_TOL and np.abs(score).max() < SCORE_TOL:
            break
    else:
        raise ConvergenceError(
            f"logistic fit did not converge in {MAX_ITERATIONS} iterations"
        )

    eta = values @ beta
    fitted = 1.0 / (1.0 + np.exp(-np.clip(eta, -700, 700)))
    pinned = (fitted < SEPARATION_PROB_TOL) | (fitted > 1.0 - SEPARATION_PROB_TOL)
    if pinned.any():
        worst = int(np.argmax(np.abs(beta)))
        raise SeparationError(
            f"{int(pinned.sum())} fitted probabilities within {SEPARATION_PROB_TOL} "
            f"of 0 or 1; largest coefficient on {names[worst]!r}",
            columns=(names[worst],),
        )
    w = fitted * (1.0 - fitted)
    info = values.T @ (values * w[:, None])
    cov = np.linalg.inv(info)
    return FitResult(
        coefficients=beta,
        standard_errors=np.sqrt(np.diag(cov)),
        fitted=fitted,
        iterations=iterations,
        column_names=names,
        dropped_columns=dropped,
        residual_df=values.shape[0] - values.shape[1],
    )


def fit_ols(
    design: DesignMatrix,
    y: np.ndarray,
    counts: np.ndarray | None = None,
    within_ss: float | np.ndarray = 0.0,
) -> FitResult | list[FitResult | RankError]:
    """Least squares via QR, with classical standard errors, of the tasks
    that share ``design``: ``y`` and ``counts`` of shape (tasks, rows), with
    one ``within_ss`` per task, give each task's fit or RankError in order;
    shape (rows,) is one task, whose fit is returned or error raised.

    ``se_j = sqrt(sigma2 * [(X'X)^-1]_jj)`` where ``sigma2 = (within_ss +
    RSS) / (n - k)`` and ``n`` counts observations. Row b stands for
    ``counts[b]`` observations (one each when ``counts`` is None) whose
    design is that row and whose mean outcome is ``y[b]``, and ``within_ss``
    is the sum of squares of the observations about their row means: the
    design is pruned once on the rows as given (a column is constant or a
    duplicate over them exactly when it is over the observations), each row
    is weighted by ``sqrt(counts[b])``, and the fit, the rank checks and the
    degrees of freedom are those of the observations; ``fitted`` holds the
    rows' fitted values. A count must be an integer in [1, 2**53], exact in
    float64. The rank tolerance ``max(n, k) * eps * max|diag|`` counts
    observations, as a row-level fit would, so very large or unbalanced
    counts can make a full-rank design look collinear. A task is checked
    alone and fitted as a slice of one stacked QR, solve, inverse and
    matmul, each slice of which has the bits of the single-matrix call: its
    result does not depend on the other tasks of its stack.
    """
    y = np.asarray(y, dtype=float)
    pruned, dropped = prune_design(design)
    values, names = pruned.values, pruned.names
    if y.shape[-1] != values.shape[0]:
        raise ValueError(f"y has {y.shape[-1]} rows, design has {values.shape[0]}")
    counts = np.ones(y.shape) if counts is None else np.asarray(counts)
    if counts.shape != y.shape or not ((counts > 0).all() and (counts <= 2**53).all()
                                       and (counts == np.round(counts)).all()):
        raise ValueError(f"counts must be {y.shape[-1]} positive row counts, got {counts!r}")
    counts = counts.reshape(-1, values.shape[0])
    n, k, weight = counts.sum(axis=1), len(names), np.sqrt(counts)
    weighted, target = values * weight[..., None], weight * y.reshape(counts.shape)
    q, r = np.linalg.qr(weighted)
    diag = np.abs(np.diagonal(r, axis1=1, axis2=2))
    tol = np.maximum(n, k) * np.finfo(float).eps * diag.max(axis=1, initial=0.0)
    # what _check_rank flags: a pivot at or below tol, or a column past the last row
    suspect = (diag <= tol[:, None]).any(axis=1) | (diag.shape[1] < k)
    fits: list = [None] * n.size
    for i, rows in enumerate(map(int, n.tolist())):
        try:
            _check_columns(rows, names)
            if suspect[i]:
                _check_rank(weighted[i], r[i], rows, names)
            if rows <= k:
                raise RankError(f"need more rows ({rows}) than columns ({k}) for OLS",
                                columns=names)
        except RankError as exc:
            fits[i] = exc
    if fit := [i for i, result in enumerate(fits) if result is None]:
        q, r, weighted, target = q[fit], r[fit], weighted[fit], target[fit]
        beta = np.linalg.solve(r, np.matmul(q.mT, target[..., None]))[..., 0]
        residuals = target - np.matmul(weighted, beta[..., None])[..., 0]
        rss = np.matmul(residuals[:, None, :], residuals[..., None])[:, 0, 0]
        within = np.broadcast_to(np.asarray(within_ss, dtype=float), n.shape)[fit]
        r_inv = np.linalg.inv(r)
        cov = ((within + rss) / (n[fit] - k))[:, None, None] * np.matmul(r_inv, r_inv.mT)
        se = np.sqrt(np.diagonal(cov, axis1=1, axis2=2))
        fitted = np.matmul(values, beta[..., None])[..., 0]
        for j, i in enumerate(fit):
            fits[i] = FitResult(beta[j], se[j], fitted[j], 1, names, dropped, int(n[i]) - k)
    return fits if y.ndim > 1 else unwrap(fits[0])
