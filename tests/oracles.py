"""Independent reference implementations used to cross-check the library.

Everything here is written in the most transparent way available — explicit
enumeration, grid/golden-section searches, textbook matrix formulas — and
shares no code with the package under test. Slow is fine; obviously correct
is the point. The one exception is ``row_level_bootstrap``, which reuses the
package's sample type, estimators and errors: what it checks is the
resampling, not the estimators.
"""

from __future__ import annotations

import math

import numpy as np

from seasondid.errors import (
    BootstrapDegenerateError,
    GlmError,
    InfeasibleSampleError,
    TrimExhaustionError,
)


def did_from_cell_means(y, d, t) -> float:
    """(mean Y | D=1,T=1) - (D=1,T=0) - [(D=0,T=1) - (D=0,T=0)], computed
    with four independent boolean masks."""
    y = np.asarray(y, dtype=float)
    d = np.asarray(d)
    t = np.asarray(t)

    def cell(dd, tt):
        values = y[(d == dd) & (t == tt)]
        assert values.size > 0, f"empty cell D={dd}, T={tt}"
        return values.mean()

    return float(cell(1, 1) - cell(1, 0) - (cell(0, 1) - cell(0, 0)))


def stratified_did(y, d, t, strata) -> float:
    """Per-stratum 2x2 DiDs averaged with treated-post stratum shares.

    This is what inverse-probability weighting with a saturated (one
    parameter per stratum) propensity model computes: within stratum s the
    fitted odds of treated-post membership against cell g are
    n11_s / n_g_s, so the weighted comparison-cell mean reduces to the
    stratum mean reweighted by the treated-post share of stratum s.
    """
    y = np.asarray(y, dtype=float)
    d = np.asarray(d)
    t = np.asarray(t)
    strata = np.asarray(strata)
    n11_total = np.sum((d == 1) & (t == 1))
    assert n11_total > 0
    total = 0.0
    for s in np.unique(strata):
        mask = strata == s
        share = np.sum((d == 1) & (t == 1) & mask) / n11_total
        total += share * did_from_cell_means(y[mask], d[mask], t[mask])
    return float(total)


def logistic_nll(x_matrix, y, beta) -> float:
    """Negative Bernoulli log-likelihood, the function the fitter minimizes."""
    x_matrix = np.asarray(x_matrix, dtype=float)
    y = np.asarray(y, dtype=float)
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    eta = x_matrix @ beta
    return float(np.logaddexp(0.0, eta).sum() - y @ eta)


def golden_section_logit_1d(x, y, lo=-25.0, hi=25.0, tol=1e-12) -> float:
    """Single-coefficient logistic MLE by golden-section search on the
    negative log-likelihood (unimodal in one dimension)."""
    x_matrix = np.asarray(x, dtype=float).reshape(-1, 1)
    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc = logistic_nll(x_matrix, y, c)
    fd = logistic_nll(x_matrix, y, d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = logistic_nll(x_matrix, y, c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = logistic_nll(x_matrix, y, d)
    return float(0.5 * (a + b))


def normal_equations_ols(x_matrix, y) -> tuple[np.ndarray, np.ndarray]:
    """beta = (X'X)^-1 X'y with classical SEs from sigma2 = RSS / (n - k)."""
    x_matrix = np.asarray(x_matrix, dtype=float)
    y = np.asarray(y, dtype=float)
    xtx_inv = np.linalg.inv(x_matrix.T @ x_matrix)
    beta = xtx_inv @ (x_matrix.T @ y)
    residuals = y - x_matrix @ beta
    n, k = x_matrix.shape
    sigma2 = float(residuals @ residuals) / (n - k)
    se = np.sqrt(np.diag(sigma2 * xtx_inv))
    return beta, se


def central_difference_gradient(f, beta, h=1e-5) -> np.ndarray:
    """Central finite differences of a scalar function, one coordinate at a
    time."""
    beta = np.asarray(beta, dtype=float)
    grad = np.zeros_like(beta)
    for j in range(beta.size):
        bump = np.zeros_like(beta)
        bump[j] = h
        grad[j] = (f(beta + bump) - f(beta - bump)) / (2.0 * h)
    return grad


def central_difference_hessian(f, beta, h=1e-4) -> np.ndarray:
    """Central finite-difference Hessian of a scalar function."""
    beta = np.asarray(beta, dtype=float)
    k = beta.size
    hessian = np.zeros((k, k))
    for i in range(k):
        for j in range(k):
            ei = np.zeros(k)
            ej = np.zeros(k)
            ei[i] = h
            ej[j] = h
            hessian[i, j] = (
                f(beta + ei + ej) - f(beta + ei - ej) - f(beta - ei + ej) + f(beta - ei - ej)
            ) / (4.0 * h * h)
    return hessian


def midpoint_week_by_enumeration(gap_weeks: list) -> object:
    """Season-opening week of an explicit, ordered list of gap weeks: the one
    at index (G - 1) // 2, i.e. the middle week, with ties rounding toward
    the earlier period."""
    assert gap_weeks, "enumeration oracle needs a non-empty gap"
    return gap_weeks[(len(gap_weeks) - 1) // 2]


def row_level_bootstrap(sample, estimator, reps: int, seed: int) -> tuple:
    """Reference for ``did.bootstrap_se``: the stratified bootstrap that
    builds each replicate's sample from its drawn rows and tables it on its
    own, so a replicate's table is only as wide as its largest stratum.

    Replicate r draws ``integers`` once per cell in the order (1,1), (1,0),
    (0,1), (0,0) from ``SeedSequence((seed, r))``. Returns (atet, se, p,
    ci_normal, ci_percentile, failures); raises what the full-sample
    estimate raises, or ``BootstrapDegenerateError`` past 10% failures.
    """
    point = estimator(sample.cell_table()).atet
    cells = [
        np.flatnonzero((sample.d == d) & (sample.t == t))
        for d, t in ((1, 1), (1, 0), (0, 1), (0, 0))
    ]
    estimates = []
    failures = 0
    for rep in range(reps):
        rng = np.random.default_rng(np.random.SeedSequence((seed, rep)))
        rows = np.concatenate([cell[rng.integers(0, cell.size, cell.size)] for cell in cells])
        replicate = type(sample)(
            sample.y[rows], sample.d[rows], sample.t[rows], sample.stratum[rows]
        )
        try:
            estimates.append(estimator(replicate.cell_table()).atet)
        except (GlmError, TrimExhaustionError, InfeasibleSampleError):
            failures += 1
    if failures > 0.1 * reps:
        raise BootstrapDegenerateError(
            f"{failures} of {reps} bootstrap replicates failed; "
            "the sample cannot support this estimator"
        )
    draws = np.asarray(estimates)
    se = float(draws.std(ddof=1))
    if se == 0.0 or not math.isfinite(se):
        p = 1.0 if point == 0.0 else 0.0
    else:
        p = math.erfc(abs(point / se) / math.sqrt(2.0))
    z = 1.959963984540054
    return (
        point,
        se,
        p,
        (point - z * se, point + z * se),
        (float(np.quantile(draws, 0.025)), float(np.quantile(draws, 0.975))),
        failures,
    )
