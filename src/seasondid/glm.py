"""Estimation core: logistic regression via IRLS and OLS via QR.

Small by design. Both fitters share the same front door: a named-column
design matrix, degenerate-column pruning with a report of what was dropped,
and loud, typed failures (rank deficiency, separation, non-convergence)
instead of silently unstable output.

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

    @classmethod
    def from_columns(cls, columns: list[tuple[str, np.ndarray]]) -> "DesignMatrix":
        names = tuple(name for name, _ in columns)
        if columns:
            values = np.column_stack([np.asarray(col, dtype=float) for _, col in columns])
        else:
            values = np.empty((0, 0))
        return cls(values, names)

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class FitResult:
    """Coefficients and classical standard errors from one fit."""

    coefficients: np.ndarray
    standard_errors: np.ndarray
    fitted: np.ndarray
    converged: bool
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
    keep: list[int] = []
    dropped: list[str] = []
    for j in range(values.shape[1]):
        col = values[:, j]
        if names[j] != INTERCEPT_NAME and col.size and np.ptp(col) == 0.0:
            dropped.append(names[j])
            continue
        if any(np.array_equal(col, values[:, i]) for i in keep):
            dropped.append(names[j])
            continue
        keep.append(j)
    if not dropped:
        return design, ()
    pruned = DesignMatrix(values[:, keep], tuple(names[j] for j in keep))
    return pruned, tuple(dropped)


def _check_rank(values: np.ndarray, names: tuple[str, ...]) -> None:
    n, k = values.shape
    if k == 0:
        raise RankError("design matrix has no columns after pruning")
    if n < k:
        raise RankError(f"more columns ({k}) than rows ({n})", columns=names)
    diag = np.abs(np.diag(np.linalg.qr(values, mode="r")))
    tol = max(n, k) * np.finfo(float).eps * (diag.max() if diag.size else 0.0)
    bad = [names[j] for j in range(k) if diag[j] <= tol]
    if bad:
        raise RankError(
            f"design matrix is rank deficient; collinear columns: {bad}",
            columns=tuple(bad),
        )


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
    _check_rank(values, names)

    beta = np.zeros(values.shape[1])
    converged = False
    iterations = 0
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
            converged = True
            break
    if not converged:
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
        converged=True,
        iterations=iterations,
        column_names=names,
        dropped_columns=dropped,
        residual_df=values.shape[0] - values.shape[1],
    )


def fit_ols(design: DesignMatrix, y: np.ndarray) -> FitResult:
    """Least squares via QR, with classical standard errors.

    ``se_j = sqrt(sigma2 * [(X'X)^-1]_jj)`` where ``sigma2 = RSS / (n - k)``.
    """
    y = np.asarray(y, dtype=float)
    pruned, dropped = prune_design(design)
    values, names = pruned.values, pruned.names
    if y.shape[0] != values.shape[0]:
        raise ValueError(f"y has {y.shape[0]} rows, design has {values.shape[0]}")
    _check_rank(values, names)
    n, k = values.shape
    if n <= k:
        raise RankError(f"need more rows ({n}) than columns ({k}) for OLS", columns=names)

    q, r = np.linalg.qr(values)
    beta = np.linalg.solve(r, q.T @ y)
    fitted = values @ beta
    residuals = y - fitted
    rss = float(residuals @ residuals)
    sigma2 = rss / (n - k)
    r_inv = np.linalg.solve(r, np.eye(k))
    cov = sigma2 * (r_inv @ r_inv.T)
    return FitResult(
        coefficients=beta,
        standard_errors=np.sqrt(np.diag(cov)),
        fitted=fitted,
        converged=True,
        iterations=1,
        column_names=names,
        dropped_columns=dropped,
        residual_df=n - k,
    )
