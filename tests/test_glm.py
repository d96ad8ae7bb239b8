"""Logistic and least-squares fitters against independent oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from seasondid import DesignMatrix, fit_logistic, fit_ols, prune_design
from seasondid.errors import (
    DegenerateOutcomeError,
    RankError,
    SeparationError,
)
from seasondid.glm import logistic_log_likelihood, logistic_score

from oracles import (
    central_difference_gradient,
    central_difference_hessian,
    golden_section_logit_1d,
    logistic_nll,
    normal_equations_ols,
    prune_column_by_column,
)


def design(*columns):
    names, values = zip(*columns)
    return DesignMatrix(np.column_stack(values), names)


def random_logit_data(rng, n=80, k=2):
    x = rng.normal(0.0, 1.0, (n, k))
    beta = rng.normal(0.0, 0.8, k + 1)
    eta = beta[0] + x @ beta[1:]
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
    if y.min() == y.max():  # ensure both classes are present
        y[0] = 1.0 - y[0]
    return x, y


class TestLogistic:
    def test_intercept_only_matches_the_log_odds_formula(self):
        y = np.array([1.0] * 30 + [0.0] * 70)
        fit = fit_logistic(design(("const", np.ones(100))), y)
        p = 0.3
        assert_allclose(fit.coefficients[0], math.log(p / (1 - p)), atol=1e-10)
        assert_allclose(fit.standard_errors[0], 1.0 / math.sqrt(100 * p * (1 - p)), atol=1e-10)
        assert_allclose(fit.fitted, p, atol=1e-10)

    def test_single_coefficient_matches_golden_section_oracle(self, rng):
        for _ in range(20):
            n = int(rng.integers(30, 120))
            x = rng.normal(0.0, 1.0, n)
            y = (rng.random(n) < 1.0 / (1.0 + np.exp(-0.8 * x))).astype(float)
            if y.min() == y.max():
                continue
            fit = fit_logistic(design(("x", x)), y)
            assert_allclose(fit.coefficients[0], golden_section_logit_1d(x, y), atol=1e-6)

    def test_score_is_zero_and_matches_finite_differences(self, rng):
        x, y = random_logit_data(rng)
        d = design(("const", np.ones(len(y))), ("x1", x[:, 0]), ("x2", x[:, 1]))
        fit = fit_logistic(d, y)
        assert np.abs(logistic_score(d, y, fit.coefficients)).max() < 1e-6

        beta_probe = np.array([0.3, -0.5, 0.2])
        analytic = logistic_score(d, y, beta_probe)
        numeric = -central_difference_gradient(
            lambda b: logistic_nll(d.values, y, b), beta_probe, h=1e-5
        )
        assert_allclose(analytic, numeric, rtol=1e-4)

    def test_log_likelihood_matches_the_oracle_formula(self, rng):
        x, y = random_logit_data(rng)
        d = design(("const", np.ones(len(y))), ("x1", x[:, 0]), ("x2", x[:, 1]))
        beta = np.array([0.1, 0.7, -0.4])
        assert_allclose(
            logistic_log_likelihood(d, y, beta), -logistic_nll(d.values, y, beta), rtol=1e-12
        )

    def test_standard_errors_match_the_numeric_hessian(self, rng):
        x, y = random_logit_data(rng, n=200)
        d = design(("const", np.ones(len(y))), ("x1", x[:, 0]), ("x2", x[:, 1]))
        fit = fit_logistic(d, y)
        hessian = central_difference_hessian(
            lambda b: logistic_nll(d.values, y, b), fit.coefficients, h=1e-4
        )
        assert_allclose(fit.standard_errors, np.sqrt(np.diag(np.linalg.inv(hessian))), rtol=1e-5)

    def test_maximum_beats_nearby_points(self, rng):
        x, y = random_logit_data(rng)
        d = design(("const", np.ones(len(y))), ("x1", x[:, 0]), ("x2", x[:, 1]))
        fit = fit_logistic(d, y)
        best = logistic_log_likelihood(d, y, fit.coefficients)
        for _ in range(50):
            perturbed = fit.coefficients + rng.normal(0.0, 0.05, 3)
            assert logistic_log_likelihood(d, y, perturbed) <= best + 1e-12

    def test_perfect_separation_raises_loudly(self):
        x = np.array([-2.0, -1.5, -1.0, 1.0, 1.5, 2.0])
        y = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
        with pytest.raises(SeparationError):
            fit_logistic(design(("const", np.ones(6)), ("x", x)), y)

    def test_single_class_outcome_raises(self):
        with pytest.raises(DegenerateOutcomeError):
            fit_logistic(design(("const", np.ones(4))), np.ones(4))
        with pytest.raises(DegenerateOutcomeError):
            fit_logistic(design(("const", np.ones(4))), np.array([0.0, 1.0, 2.0, 1.0]))


class TestOls:
    def test_matches_normal_equations_oracle(self, rng):
        for _ in range(20):
            n = int(rng.integers(15, 60))
            x = rng.normal(0.0, 1.0, (n, 3))
            y = rng.normal(0.0, 1.0, n)
            d = design(
                ("const", np.ones(n)), ("a", x[:, 0]), ("b", x[:, 1]), ("c", x[:, 2])
            )
            fit = fit_ols(d, y)
            beta, se = normal_equations_ols(d.values, y)
            assert_allclose(fit.coefficients, beta, atol=1e-8)
            assert_allclose(fit.standard_errors, se, atol=1e-8)

    def test_exact_fit_on_noiseless_data(self, rng):
        x = rng.normal(0.0, 1.0, (30, 2))
        y = 2.0 + 3.0 * x[:, 0] - 1.5 * x[:, 1]
        fit = fit_ols(design(("const", np.ones(30)), ("a", x[:, 0]), ("b", x[:, 1])), y)
        assert_allclose(fit.coefficients, [2.0, 3.0, -1.5], atol=1e-10)
        assert_allclose(fit.standard_errors, 0.0, atol=1e-7)

    def test_counted_rows_fit_as_the_observations_they_stand_for(self, rng):
        # 6 distinct design rows, each repeated 1-5 times; a constant column
        # is pruned over the distinct rows as over the observations
        groups = np.column_stack([np.ones(6), rng.normal(0.0, 1.0, (6, 2)), np.full(6, 2.0)])
        counts = rng.integers(1, 6, 6)
        rows = np.repeat(np.arange(6), counts)
        y = rng.normal(0.0, 1.0, rows.size)
        names = ("const", "a", "b", "frozen")
        full = fit_ols(DesignMatrix(groups[rows], names), y)
        means = np.bincount(rows, weights=y) / counts
        within = y - means[rows]
        grouped = fit_ols(DesignMatrix(groups, names), means, counts, float(within @ within))
        assert grouped.dropped_columns == full.dropped_columns == ("frozen",)
        assert grouped.residual_df == full.residual_df == rows.size - 3
        assert_allclose(grouped.coefficients, full.coefficients, rtol=1e-10)
        assert_allclose(grouped.standard_errors, full.standard_errors, rtol=1e-10)
        assert_allclose(grouped.fitted, full.fitted[np.cumsum(counts) - 1], rtol=1e-10)
        for bad in (counts[:5], np.where(np.arange(6) == 2, 0, counts)):
            with pytest.raises(ValueError, match="positive row counts"):
                fit_ols(DesignMatrix(groups, names), means, bad)

    def test_needs_more_rows_than_columns(self, rng):
        x = rng.normal(0.0, 1.0, (3, 3))
        with pytest.raises(RankError):
            fit_ols(
                design(("const", np.ones(3)), ("a", x[:, 0]), ("b", x[:, 1])),
                np.zeros(3),
            )


class TestDesignHygiene:
    def test_constant_and_duplicate_columns_are_pruned_and_reported(self, rng):
        n = 40
        x = rng.normal(0.0, 1.0, n)
        d = design(
            ("const", np.ones(n)),
            ("x", x),
            ("frozen", np.full(n, 3.0)),
            ("x_copy", x.copy()),
        )
        pruned, dropped = prune_design(d)
        assert pruned.names == ("const", "x")
        assert dropped == ("frozen", "x_copy")

        y = (rng.random(n) < 0.5).astype(float)
        fit = fit_logistic(d, y)
        assert fit.dropped_columns == ("frozen", "x_copy")
        assert fit.column_names == ("const", "x")

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 5), st.integers(1, 7), st.data())
    def test_pruning_matches_the_column_by_column_rule(self, n, k, data):
        # few distinct values, signed zeros and NaN make constants, equal
        # columns and columns that only look equal
        cell = st.sampled_from([0.0, -0.0, 1.0, 2.0, math.nan])
        values = np.array(data.draw(st.lists(st.lists(cell, min_size=k, max_size=k),
                                             min_size=n, max_size=n)), dtype=float)
        names = tuple(("const" if j == 0 and data.draw(st.booleans()) else f"x{j}")
                      for j in range(k))
        pruned, dropped = prune_design(DesignMatrix(values.reshape(n, k), names))
        kept, expected = prune_column_by_column(values.reshape(n, k), names)
        assert (list(pruned.names), list(dropped)) == (kept, expected)

    def test_genuine_collinearity_raises_rank_error_naming_suspects(self, rng):
        n = 40
        a = rng.normal(0.0, 1.0, n)
        b = rng.normal(0.0, 1.0, n)
        d = design(("const", np.ones(n)), ("a", a), ("b", b), ("sum_ab", a + b))
        with pytest.raises(RankError) as excinfo:
            fit_ols(d, rng.normal(0.0, 1.0, n))
        assert excinfo.value.columns  # at least one suspect is named
        assert "sum_ab" in str(excinfo.value)

    def test_coefficient_lookup_by_name(self, rng):
        n = 30
        x = rng.normal(0.0, 1.0, n)
        y = 1.0 + 2.0 * x
        fit = fit_ols(design(("const", np.ones(n)), ("x", x)), y)
        assert_allclose(fit.coefficient("x"), 2.0, atol=1e-10)
        assert_allclose(fit.coefficient("const"), 1.0, atol=1e-10)
        with pytest.raises(ValueError):
            fit.coefficient("missing")
