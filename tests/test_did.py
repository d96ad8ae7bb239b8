"""IPW and OLS difference-in-differences estimators."""

import functools
import math
import re
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from seasondid import (
    CovariateSpec,
    DidSample,
    EffectEstimate,
    EstimationTask,
    Outcome,
    ProtectionCalendar,
    Quality,
    SeriesKey,
    bootstrap_se,
    build_sample,
    cell_means_did,
    estimate_ipw_did,
    estimate_ols_did,
    apply_boundary_exclusion,
    label_panel,
    propensity_report,
    standardize_prices,
)
from seasondid import did
from seasondid.did import CELL_ORDER, COMPARISON_CELLS, Z_975, quantile, two_sided_normal_p
from seasondid.errors import (
    BootstrapDegenerateError,
    ConfigError,
    GlmError,
    InfeasibleSampleError,
    RankError,
    SeasonDidError,
    SeparationError,
    TrimExhaustionError,
)
from seasondid.glm import INTERCEPT_NAME, DesignMatrix, fit_logistic

from helpers import (
    basic_task,
    no_covariate_sample,
    panel_rows,
    price_row,
    random_cell_sample,
    stratified_sample,
    week,
    window,
)
from oracles import (
    cell_mask,
    cell_means_did as validating_cell_means_did,
    estimate_ipw_did as array_ipw_did,
    did_from_cell_means,
    normal_equations_ols,
    row_level_bootstrap,
    row_level_ols_did,
    stratified_did,
    validate_cells,
)


class TestCellMeans:
    def test_hand_example(self):
        sample = no_covariate_sample(
            y=[10.0, 12.0, 5.0, 7.0, 4.0, 6.0, 3.0, 5.0],
            d=[1, 1, 1, 1, 0, 0, 0, 0],
            t=[1, 1, 0, 0, 1, 1, 0, 0],
        )
        # (11 - 6) - (5 - 4) = 4
        assert_allclose(cell_means_did(sample.cell_table()).atet, 4.0, atol=1e-12)

    def test_matches_the_mask_oracle(self, rng):
        for _ in range(30):
            sample = random_cell_sample(rng)
            assert_allclose(
                cell_means_did(sample.cell_table()).atet,
                did_from_cell_means(sample.y, sample.d, sample.t),
                atol=1e-12,
            )

    def test_empty_cell_is_infeasible_with_a_stable_tag(self):
        sample = no_covariate_sample(y=[1.0, 2.0, 3.0], d=[1, 1, 0], t=[1, 0, 0])
        with pytest.raises(InfeasibleSampleError) as excinfo:
            cell_means_did(sample.cell_table())
        assert excinfo.value.reason == "empty_cell(D=0,T=1)"

    def test_min_cell_violation_names_the_cell(self):
        sample = no_covariate_sample(
            y=[1.0, 2.0, 3.0, 4.0, 5.0], d=[1, 1, 1, 0, 0], t=[1, 0, 0, 1, 0]
        )
        with pytest.raises(InfeasibleSampleError) as excinfo:
            sample.cell_table().validate(min_cell=2)
        assert excinfo.value.reason == "small_cell(D=1,T=1)"


class TestEstimatorAgreement:
    def test_no_covariates_ipw_equals_ols_equals_cell_means(self, rng):
        for _ in range(25):
            sample = random_cell_sample(rng)
            direct = cell_means_did(sample.cell_table()).atet
            assert_allclose(estimate_ipw_did(sample.cell_table()).atet, direct, atol=1e-10)
            assert_allclose(estimate_ols_did(sample).atet, direct, atol=1e-10)

    def test_saturated_strata_ipw_matches_the_stratified_oracle(self, rng):
        for _ in range(10):
            n_strata = int(rng.integers(2, 7))
            sample, strata = stratified_sample(rng, n_strata)
            expected = stratified_did(sample.y, sample.d, sample.t, strata)
            assert_allclose(estimate_ipw_did(sample.cell_table()).atet, expected, atol=1e-8)

    def test_location_shift_equivariance(self, rng):
        sample, _ = stratified_sample(rng, 3)
        base = estimate_ipw_did(sample.cell_table()).atet
        shifted = DidSample(sample.y + 37.5, sample.d, sample.t, sample.stratum)
        assert_allclose(estimate_ipw_did(shifted.cell_table()).atet, base, atol=1e-9)
        scaled = DidSample(sample.y * -2.0, sample.d, sample.t, sample.stratum)
        assert_allclose(estimate_ipw_did(scaled.cell_table()).atet, -2.0 * base, atol=1e-9)

    def test_ols_with_saturated_strata_matches_stratified_structure(self, rng):
        # same design, no claim of equality with IPW; just that it runs and
        # lands near the oracle on a balanced panel where both coincide
        sample, strata = stratified_sample(rng, 3, lo=6, hi=6)
        expected = stratified_did(sample.y, sample.d, sample.t, strata)
        assert_allclose(estimate_ols_did(sample).atet, expected, atol=1e-8)


class TestTrimming:
    def build_imbalanced(self, heavy=60, light=2):
        """Stratum 1 is so treated-heavy that its comparison rows exceed a
        0.95 propensity; stratum 0 is balanced."""
        y, d, t, strata = [], [], [], []
        for s, n11, ng in ((0, 5, 5), (1, heavy, light)):
            for (dd, tt), size in zip(
                ((1, 1), (1, 0), (0, 1), (0, 0)), (n11, ng, ng, ng)
            ):
                y.extend(np.linspace(0.0, 1.0, size) + 10 * s + dd + tt)
                d.extend([dd] * size)
                t.extend([tt] * size)
                strata.extend([s] * size)
        return DidSample(np.array(y), np.array(d, np.int8), np.array(t, np.int8), np.array(strata))

    def test_high_propensity_rows_are_trimmed_and_counted(self):
        sample = self.build_imbalanced()
        rho = propensity_report(sample.cell_table())
        counts, _, _, _ = sample.cell_table()
        estimate = estimate_ipw_did(sample.cell_table(), trim_threshold=0.95)
        for cell in ((1, 0), (0, 1), (0, 0)):
            index = CELL_ORDER.index(cell)
            expected = int(counts[index, rho[cell] > 0.95].sum())
            assert expected == 2  # both stratum-1 comparison rows: rho = 60/62
            assert estimate.n_trimmed_by_cell[index] == expected
        assert estimate.n_trimmed_by_cell[0] == 0

    def test_retained_sets_grow_with_the_threshold(self, rng):
        for _ in range(20):
            sample, _ = stratified_sample(rng, int(rng.integers(2, 5)), lo=2, hi=25)
            for rho in propensity_report(sample.cell_table()).values():
                # strata kept at 0.95 are kept at 0.99
                assert np.all((rho <= 0.99) >= (rho <= 0.95))

    def test_trimming_changes_the_estimate_toward_the_balanced_stratum(self):
        sample = self.build_imbalanced()
        trimmed = estimate_ipw_did(sample.cell_table(), trim_threshold=0.95).atet
        untrimmed = estimate_ipw_did(sample.cell_table(), trim_threshold=1.0).atet
        assert trimmed != pytest.approx(untrimmed)
        # with the imbalanced stratum dropped, only stratum 0 contributes to
        # the weighted comparison means
        rows = np.flatnonzero(sample.stratum == 0)
        stratum0 = DidSample(sample.y[rows], sample.d[rows], sample.t[rows], sample.stratum[rows])
        treated_mean = float(sample.y[cell_mask(sample, 1, 1)].mean())
        comparison = [
            float(stratum0.y[cell_mask(stratum0, d, t)].mean())
            for d, t in ((1, 0), (0, 1), (0, 0))
        ]
        assert_allclose(trimmed, treated_mean - comparison[0] - comparison[1] + comparison[2], atol=1e-8)

    def test_trim_exhaustion_raises(self):
        # one stratum only, utterly imbalanced: every comparison row trims
        sample = self.build_imbalanced(heavy=120, light=3)
        rows = np.flatnonzero(sample.stratum == 1)
        one_stratum = DidSample(
            sample.y[rows], sample.d[rows], sample.t[rows], np.zeros(rows.size, np.intp)
        )
        with pytest.raises(TrimExhaustionError):
            estimate_ipw_did(one_stratum.cell_table(), trim_threshold=0.9)

    def test_trim_treated_flag_trims_the_other_side(self, monkeypatch):
        calls = []

        def counted_fit(*args, **kwargs):
            calls.append(1)
            return fit_logistic(*args, **kwargs)

        monkeypatch.setattr(did, "fit_logistic", counted_fit)
        sample = self.build_imbalanced()
        estimate = estimate_ipw_did(sample.cell_table(), trim_threshold=0.95, trim_treated=True)
        assert estimate.n_trimmed_by_cell[0] > 0
        assert estimate.n_trimmed_by_cell[1:] == (0, 0, 0)
        assert len(calls) == 0  # propensities are closed-form stratum shares

    def test_threshold_must_be_a_probability(self, rng):
        sample = random_cell_sample(rng)
        with pytest.raises(ConfigError):
            estimate_ipw_did(sample.cell_table(), trim_threshold=0.0)
        with pytest.raises(ConfigError):
            estimate_ipw_did(sample.cell_table(), trim_threshold=1.5)


class RowRho(NamedTuple):
    """One pairwise propensity at row level: the comparison cell's row
    indices, their rho, and the same fit's rho for each (1,1) row."""

    rows: np.ndarray
    rho: np.ndarray
    treated_rho: np.ndarray


def irls_propensity_report(sample: DidSample) -> dict:
    """Row-level reference for ``propensity_report``: one IRLS logit per
    pair on an intercept plus one dummy per stratum after the smallest code
    present (the season dummies that sample construction used to build)."""
    sample.cell_table().validate()
    codes = np.unique(sample.stratum)
    names = tuple(f"stratum_{s}" for s in codes[1:])
    dummies = (sample.stratum[:, None] == codes[None, 1:]).astype(float)
    reports = {}
    treated_rows = np.flatnonzero(cell_mask(sample, 1, 1))
    for d, t in COMPARISON_CELLS:
        comparison_rows = np.flatnonzero(cell_mask(sample, d, t))
        pooled = np.concatenate([treated_rows, comparison_rows])
        membership = np.concatenate(
            [np.ones(treated_rows.size), np.zeros(comparison_rows.size)]
        )
        columns = np.hstack([np.ones((pooled.size, 1)), dummies[pooled]])
        fit = fit_logistic(DesignMatrix(columns, (INTERCEPT_NAME, *names)), membership)
        reports[(d, t)] = RowRho(
            rows=comparison_rows,
            rho=fit.fitted[treated_rows.size:],
            treated_rho=fit.fitted[: treated_rows.size],
        )
    return reports


def row_level_propensity_report(sample: DidSample) -> dict:
    """Row-level reference for the closed-form propensities: each pair's
    stratum shares looked up for every comparison row and every (1,1) row."""
    sample.cell_table().validate()
    treated = cell_mask(sample, 1, 1)
    n_strata = int(sample.stratum.max()) + 1
    n11 = np.bincount(sample.stratum[treated], minlength=n_strata)
    reports = {}
    for d, t in COMPARISON_CELLS:
        rows = np.flatnonzero(cell_mask(sample, d, t))
        n_g = np.bincount(sample.stratum[rows], minlength=n_strata)
        one_sided = np.flatnonzero((n11 == 0) != (n_g == 0))
        if one_sided.size:
            raise SeparationError(
                f"strata {one_sided.tolist()} have rows on only one side of the "
                f"(1,1) vs (D={d},T={t}) propensity fit",
                columns=tuple(f"stratum_{s}" for s in one_sided),
            )
        share = n11 / np.maximum(n11 + n_g, 1)
        reports[(d, t)] = RowRho(
            rows=rows,
            rho=share[sample.stratum[rows]],
            treated_rho=share[sample.stratum[treated]],
        )
    return reports


def row_level_ipw_did(sample: DidSample, trim_threshold: float, trim_treated: bool) -> tuple:
    """Reference for ``estimate_ipw_did``: per-row odds rho / (1 - rho),
    normalized within each comparison cell, with per-row trimming. Returns
    (atet, n_by_cell, n_trimmed_by_cell)."""
    reports = row_level_propensity_report(sample)
    treated_rows = np.flatnonzero(cell_mask(sample, 1, 1))
    trimmed = {cell: 0 for cell in CELL_ORDER}
    weighted_means = {}
    treated_drop = np.zeros(treated_rows.size, dtype=bool)
    for cell in COMPARISON_CELLS:
        report = reports[cell]
        if trim_treated:
            keep = np.ones(report.rho.size, dtype=bool)
            treated_drop |= report.treated_rho > trim_threshold
        else:
            keep = report.rho <= trim_threshold
            trimmed[cell] = int(report.rho.size - keep.sum())
            if not keep.any():
                raise TrimExhaustionError(
                    f"all {report.rho.size} observations of cell (D={cell[0]},T={cell[1]}) "
                    f"exceeded the trim threshold {trim_threshold}"
                )
        rho = report.rho[keep]
        weights = rho / (1.0 - rho)
        weights = weights / weights.sum()
        weighted_means[cell] = float(weights @ sample.y[report.rows[keep]])
    if trim_treated:
        trimmed[(1, 1)] = int(treated_drop.sum())
        if treated_drop.all():
            raise TrimExhaustionError(
                f"all {treated_rows.size} treated-protected observations exceeded "
                f"the trim threshold {trim_threshold}"
            )
    treated_mean = float(sample.y[treated_rows[~treated_drop]].mean())
    atet = (
        treated_mean
        - weighted_means[(1, 0)]
        - (weighted_means[(0, 1)] - weighted_means[(0, 0)])
    )
    n_by_cell = tuple(int(cell_mask(sample, d, t).sum()) for d, t in CELL_ORDER)
    return atet, n_by_cell, tuple(trimmed[cell] for cell in CELL_ORDER)


def sample_from_sizes(sizes) -> DidSample:
    """Rows of stratum s in cell CELL_ORDER[k]: ``sizes[s][k]`` of them."""
    d, t, stratum = [], [], []
    for s, per_cell in enumerate(sizes):
        for (dd, tt), size in zip(CELL_ORDER, per_cell):
            d += [dd] * size
            t += [tt] * size
            stratum += [s] * size
    y = np.arange(len(d), dtype=float)
    return DidSample(y, np.array(d, np.int8), np.array(t, np.int8), np.array(stratum))


def outcome_of(report_fn, *args):
    try:
        return report_fn(*args)
    except SeasonDidError as exc:
        return exc


@st.composite
def stratum_sizes(draw, treated_max=30, count_max=30):
    """Counts per (stratum, cell) for up to four strata, at most
    ``treated_max`` in the (1,1) cell and ``count_max`` in the others. Zeros
    make one-sided and absent strata. One to three strata fill every cell,
    so that most samples get past the empty-cell check and trimming can drop
    some strata while keeping others."""
    def cells(lo):
        treated = st.integers(lo, treated_max)
        count = st.integers(lo, count_max)
        if lo == 0:
            treated, count = st.just(0) | treated, st.just(0) | count
        return st.tuples(treated, count, count, count).map(list)

    full = draw(st.lists(cells(1), min_size=1, max_size=3))
    partial = draw(st.lists(cells(0), max_size=4 - len(full)))
    return draw(st.permutations(full + partial))


class TestClosedFormPropensity:
    @settings(max_examples=300, deadline=None)
    @given(stratum_sizes())
    def test_matches_the_row_level_irls_fits(self, sizes):
        sample = sample_from_sizes(sizes)
        closed = outcome_of(propensity_report, sample.cell_table())
        reference = outcome_of(irls_propensity_report, sample)
        event(f"reference: {type(reference).__name__}")
        if isinstance(reference, RankError):
            # the reference season has no (1,1) rows, so its dummy coding
            # leaves the intercept collinear; the closed form names the
            # one-sided stratum instead
            assert isinstance(closed, SeparationError)
            assert not np.any(cell_mask(sample, 1, 1) & (sample.stratum == sample.stratum.min()))
        elif isinstance(reference, Exception):
            assert type(closed) is type(reference), (closed, reference)
        else:
            assert not isinstance(closed, Exception), closed
            treated_strata = sample.stratum[cell_mask(sample, 1, 1)]
            for cell in COMPARISON_CELLS:
                rho = closed[cell]
                row_rho = rho[sample.stratum[reference[cell].rows]]
                assert_allclose(row_rho, reference[cell].rho, rtol=0, atol=1e-12)
                assert_allclose(
                    rho[treated_strata], reference[cell].treated_rho, rtol=0, atol=1e-12
                )

    def test_reference_season_only_in_a_comparison_cell_is_separation(self):
        # season 0 has rows only in (0,0); seasons 1 and 2 fill every cell
        sample = sample_from_sizes([[0, 0, 0, 3], [4, 3, 3, 3], [5, 2, 4, 3]])
        with pytest.raises(RankError):  # the row-level fit it replaced
            irls_propensity_report(sample)
        with pytest.raises(SeparationError) as excinfo:
            propensity_report(sample.cell_table())
        assert excinfo.value.columns == ("stratum_0",)
        # both are GlmError, so a bootstrap replicate fails either way
        assert issubclass(SeparationError, GlmError) and issubclass(RankError, GlmError)

    def test_absent_stratum_is_ignored(self):
        # A bootstrap replicate can lose a whole season, the reference one
        # included. Season dummies fixed on the full sample then left the
        # intercept collinear (RankError); the shares of the seasons left
        # are the fit of the same saturated model.
        full = sample_from_sizes([[2, 3, 4, 5], [6, 2, 3, 1]])
        gap = sample_from_sizes([[0, 0, 0, 0], [2, 3, 4, 5], [0, 0, 0, 0], [6, 2, 3, 1]])
        for cell in COMPARISON_CELLS:
            gap_rho = propensity_report(gap.cell_table())[cell]
            assert_array_equal(gap_rho[[1, 3]], propensity_report(full.cell_table())[cell])
            assert_array_equal(gap_rho[[0, 2]], [0.0, 0.0])
        assert_allclose(propensity_report(full.cell_table())[(1, 0)], [2 / 5, 6 / 8])


class TestStratumTable:
    @settings(max_examples=300, deadline=None)
    @given(
        stratum_sizes(treated_max=120),
        st.integers(0, 2**32 - 1),
        st.floats(0.5, 1.0),
        st.booleans(),
    )
    def test_ipw_matches_the_row_level_weights(self, sizes, seed, threshold, trim_treated):
        cells = sample_from_sizes(sizes)
        y = np.random.default_rng(seed).normal(100.0, 10.0, cells.n_obs)
        sample = DidSample(y, cells.d, cells.t, cells.stratum)
        table = outcome_of(estimate_ipw_did, sample.cell_table(), threshold, trim_treated)
        reference = outcome_of(row_level_ipw_did, sample, threshold, trim_treated)
        event(f"reference: {type(reference).__name__}")
        if isinstance(reference, Exception):
            assert type(table) is type(reference), (table, reference)
            assert str(table) == str(reference)
            return
        assert not isinstance(table, Exception), table
        atet, n_by_cell, n_trimmed_by_cell = reference
        event(f"trimmed: {sum(n_trimmed_by_cell) > 0}")
        assert table.n_by_cell == n_by_cell
        assert table.n_trimmed_by_cell == n_trimmed_by_cell
        assert abs(table.atet - atet) <= 1e-12 * max(1.0, float(np.abs(sample.y).max()))

    def test_counts_and_sums_per_cell_and_stratum(self):
        sample = DidSample(
            y=[1.0, 2.0, 4.0, 8.0, 16.0, 32.0],
            d=[1, 1, 0, 1, 0, 0],
            t=[1, 1, 0, 0, 1, 0],
            stratum=[0, 2, 2, 0, 2, 2],
        )
        counts, sums, _, _ = sample.cell_table()
        assert_array_equal(counts, [[1, 0, 1], [1, 0, 0], [0, 0, 1], [0, 0, 2]])
        assert_array_equal(sums, [[1, 0, 2], [8, 0, 0], [0, 0, 16], [0, 0, 36]])
        assert sample.cell_table().n_by_cell == (2, 1, 1, 2)

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(0, 5).flatmap(
            lambda top: st.lists(
                st.tuples(
                    st.floats(-1e6, 1e6),
                    st.integers(0, 1),
                    st.integers(0, 1),
                    st.integers(0, top),
                ),
                max_size=30,
            )
        )
    )
    def test_the_table_is_tabulated_once_as_a_row_loop_would(self, rows):
        # random rows: empty cells, empty strata below the largest code, and
        # the empty sample all occur
        y, d, t, stratum = (np.array(column) for column in list(zip(*rows)) or [()] * 4)
        sample = DidSample(y, d, t, stratum)
        strata = max((s for *_, s in rows), default=0) + 1
        counts, sums = np.zeros((4, strata), int), np.zeros((4, strata))
        for value, dd, tt, s in rows:
            counts[CELL_ORDER.index((dd, tt)), s] += 1
            sums[CELL_ORDER.index((dd, tt)), s] += value
        table = sample.cell_table()
        event(f"empty cells: {int((counts.sum(axis=1) == 0).sum())}")
        event(f"empty strata: {int((counts.sum(axis=0) == 0).sum())}")
        assert_array_equal(table.counts, counts)
        assert_array_equal(table.sums, sums)
        assert sample.cell_table() is table
        for array in (*table[:2], sample.code, sample.y, sample.d, sample.t, sample.stratum):
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0
        # the sample copied the rows: writing the caller's arrays leaves it as it was
        y[...] = np.nan
        assert_array_equal(sample.cell_table().sums, sums)

    @pytest.mark.parametrize(
        "d,t,stratum,message",
        [
            ([256, 1], [1, 0], [0, 0], "0/1 indicators"),
            ([1, 1], [1, 0.7], [0, 0], "0/1 indicators"),
            ([1, 1], [1, 0], [0, 0.5], "integers"),
            ([1, 1], [1, 0], [0, -1], "non-negative"),
        ],
    )
    def test_indicators_and_codes_are_checked_before_the_cast(self, d, t, stratum, message):
        # as arrays, int8 and intp casts would turn 256 into 0, 0.7 and 0.5 into 0
        with pytest.raises(ValueError, match=message):
            DidSample(y=[1.0, 2.0], d=np.array(d), t=np.array(t), stratum=np.array(stratum))


@st.composite
def ols_sizes(draw):
    """Counts per (stratum, cell) for the OLS DiD: unbalanced tables of one
    to six strata with empty bins, the single stratum of ``covariates =
    none``, and tables built to be degenerate."""
    kind = draw(st.sampled_from(["random", "none", "confined", "sums_to_t", "tight"]))
    strata = draw(st.integers(1, 6))
    count = st.just(0) | st.integers(1, 12)
    sizes = draw(st.lists(st.lists(count, min_size=4, max_size=4), min_size=strata,
                          max_size=strata))
    if kind == "none":
        sizes = [draw(st.lists(st.integers(1, 12), min_size=4, max_size=4))]
    elif kind == "confined":
        # one stratum's rows only in the (1,1) cell, which holds no other
        # stratum: its dummy duplicates d_t unless it is the reference
        confined = draw(st.integers(0, strata - 1))
        for row in sizes:
            row[0] = 0
        sizes[confined] = [draw(st.integers(1, 6)), 0, 0, 0]
    elif kind == "sums_to_t":
        # stratum 0 only in T=0 cells, the others only in T=1 cells: the
        # stratum dummies sum to t
        for s, row in enumerate(sizes):
            for k in ((0, 2) if s == 0 else (1, 3)):
                row[k] = 0
    elif kind == "tight":
        # one row per cell in stratum 0 and one row per other stratum: n = k,
        # or n = k + 1 with one more row
        sizes = [[1, 1, 1, 1]] + [[0, 0, 0, 0] for _ in range(strata - 1)]
        for row in sizes[1:]:
            row[draw(st.integers(0, 3))] = 1
        if draw(st.booleans()):
            sizes[draw(st.integers(0, strata - 1))][draw(st.integers(0, 3))] += 1
    return sizes


def shuffled_sample(sizes, seed) -> DidSample:
    """``sample_from_sizes`` with normal outcomes, rows in random order."""
    cells = sample_from_sizes(sizes)
    rng = np.random.default_rng(seed)
    order = rng.permutation(cells.n_obs)
    y = rng.normal(100.0, 10.0, cells.n_obs)
    return DidSample(y, cells.d[order], cells.t[order], cells.stratum[order])


def assert_same_ols(sample):
    """The table fit and the row-level fit raise the same error, or agree
    within the reference budget; returns the row-level outcome."""
    table = outcome_of(estimate_ols_did, sample)
    reference = outcome_of(row_level_ols_did, sample)
    if isinstance(reference, Exception):
        assert type(table) is type(reference), (table, reference)
        assert str(table) == str(reference)
        assert getattr(table, "columns", None) == getattr(reference, "columns", None)
        return reference
    assert not isinstance(table, Exception), table
    for name in ("atet", "se", "p_value"):
        got, want = getattr(table, name), getattr(reference, name)
        assert abs(got - want) <= 1e-9 + 1e-9 * abs(want), (name, got, want)
    assert table.n_by_cell == reference.n_by_cell
    return reference


class TestOlsTable:
    @settings(max_examples=400, deadline=None)
    @given(ols_sizes(), st.integers(0, 2**32 - 1))
    def test_matches_the_row_level_fit(self, sizes, seed):
        reference = assert_same_ols(shuffled_sample(sizes, seed))
        event(f"reference: {type(reference).__name__}")

    def test_stratum_dummies_summing_to_t_are_rank_deficient(self):
        sample = shuffled_sample([[0, 3, 0, 2], [2, 0, 4, 0], [3, 0, 1, 0]], 7)
        with pytest.raises(RankError) as excinfo:
            estimate_ols_did(sample)
        assert excinfo.value.columns == ("stratum_2",)
        assert_same_ols(sample)

    def test_a_collinear_stratum_leaves_later_ones_their_pivot(self):
        # five bins for six columns: stratum_1 is d + t - d_t, while
        # stratum_2 splits the (0,0) cell and is independent of the rest;
        # a single QR of the bins would leave stratum_2 no pivot
        sample = shuffled_sample([[0, 0, 0, 1], [2, 1, 1, 0], [0, 0, 0, 1]], 1)
        with pytest.raises(RankError) as excinfo:
            estimate_ols_did(sample)
        assert excinfo.value.columns == ("stratum_1",)
        assert_same_ols(sample)

    def test_a_stratum_confined_to_the_treated_cell_is_pruned(self):
        # stratum 1 is exactly the (1,1) cell: its dummy duplicates d_t and
        # is dropped, so the fit is that of the other columns
        sample = shuffled_sample([[0, 4, 5, 3], [6, 0, 0, 0], [0, 2, 3, 4]], 3)
        assert_same_ols(sample)
        d, t = sample.d.astype(float), sample.t.astype(float)
        x = np.column_stack([np.ones(sample.n_obs), d, t, d * t, sample.stratum == 2])
        beta, se = normal_equations_ols(x, sample.y)
        fit = estimate_ols_did(sample)
        assert_allclose([fit.atet, fit.se], [beta[3], se[3]], rtol=1e-10)

    def test_degrees_of_freedom_count_rows(self):
        # six rows in six bins for six columns: no residual degree of freedom
        tight = [[1, 1, 1, 1], [0, 1, 0, 0], [0, 0, 0, 1]]
        assert_same_ols(shuffled_sample(tight, 5))
        with pytest.raises(RankError, match=r"need more rows \(6\) than columns \(6\)"):
            estimate_ols_did(shuffled_sample(tight, 5))
        tight[0][0] = 2  # one more row in the same six bins: n = k + 1
        assert_same_ols(shuffled_sample(tight, 5))
        assert estimate_ols_did(shuffled_sample(tight, 5)).se > 0.0


class TestBootstrap:
    def test_same_seed_reproduces_inference(self, rng):
        sample = random_cell_sample(rng, lo=6, hi=10)
        a = bootstrap_se(sample, cell_means_did, reps=60, seed=11)
        b = bootstrap_se(sample, cell_means_did, reps=60, seed=11)
        assert a == b
        c = bootstrap_se(sample, cell_means_did, reps=60, seed=12)
        assert a.se != c.se

    def test_constant_outcome_gives_zero_se(self):
        sample = no_covariate_sample(
            y=[5.0] * 12, d=[1, 1, 1, 0, 0, 0] * 2, t=[1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0]
        )
        boot = bootstrap_se(sample, cell_means_did, reps=30, seed=3)
        assert boot.se == 0.0
        assert boot.bootstrap_failures == 0

    def test_replicates_resample_within_cells_only(self, rng):
        # cells have disjoint value ranges; a cross-cell leak would show up
        # as an impossible replicate estimate
        sample = no_covariate_sample(
            y=np.concatenate(
                [rng.uniform(100, 101, 5), rng.uniform(50, 51, 5),
                 rng.uniform(10, 11, 5), rng.uniform(0, 1, 5)]
            ),
            d=[1] * 10 + [0] * 10,
            t=[1] * 5 + [0] * 5 + [1] * 5 + [0] * 5,
        )
        boot = bootstrap_se(sample, cell_means_did, reps=100, seed=5)
        # the estimate range attainable without leaks
        assert boot.ci_percentile[0] > (100 - 51) - (11 - 0) - 3
        assert boot.ci_percentile[1] < (101 - 50) - (10 - 1) + 3

    def test_se_tracks_the_monte_carlo_dispersion(self):
        def draw_sample(seed):
            gen = np.random.default_rng(seed)
            return no_covariate_sample(
                y=gen.normal(0.0, 2.0, 48), d=[1] * 24 + [0] * 24, t=([1] * 12 + [0] * 12) * 2
            )

        boot = bootstrap_se(draw_sample(0), cell_means_did, reps=400, seed=9)
        estimates = [cell_means_did(draw_sample(k).cell_table()).atet for k in range(1, 401)]
        mc_sd = float(np.std(estimates, ddof=1))
        assert 0.7 * mc_sd < boot.se < 1.4 * mc_sd

    def test_failing_estimator_is_counted_then_fatal(self, rng):
        sample = random_cell_sample(rng, lo=4, hi=6)

        calls = {"n": 0}

        def flaky(resampled):
            calls["n"] += 1
            if calls["n"] % 25 == 0:
                raise InfeasibleSampleError("synthetic_failure")
            return cell_means_did(resampled)

        boot = bootstrap_se(sample, flaky, reps=50, seed=2)
        assert boot.bootstrap_failures == 2
        assert boot.bootstrap_reps == 50

        state = {"first_call": True}

        def broken(resampled):
            if state["first_call"]:  # the full-sample point estimate succeeds
                state["first_call"] = False
                return cell_means_did(resampled)
            raise TrimExhaustionError("always fails on replicates")

        with pytest.raises(BootstrapDegenerateError):
            bootstrap_se(sample, broken, reps=20, seed=2)

    def test_needs_at_least_two_replicates(self, rng):
        with pytest.raises(ConfigError):
            bootstrap_se(random_cell_sample(rng), cell_means_did, reps=1, seed=0)

    @pytest.mark.parametrize("seed", [-1, np.int64(-3), 1.0, "7", None, True], ids=repr)
    def test_bad_seed_is_rejected_before_any_estimate(self, rng, seed):
        calls = []
        with pytest.raises(ConfigError, match="seed must be a non-negative integer"):
            bootstrap_se(random_cell_sample(rng), recorded(cell_means_did, calls), 20, seed)
        assert calls == []

    def test_replicate_numbers_must_fit_one_uint32_word(self, rng):
        calls = []
        with pytest.raises(ConfigError, match=r"reps between 2 and 2\*\*32, got 4294967297"):
            bootstrap_se(random_cell_sample(rng), recorded(cell_means_did, calls), 2**32 + 1, 0)
        assert calls == []

    def test_numpy_integer_seed_is_accepted(self, rng):
        sample = random_cell_sample(rng, lo=4, hi=6)
        boot = bootstrap_se(sample, cell_means_did, reps=30, seed=np.uint64(2**63 + 5))
        assert boot.se == bootstrap_se(sample, cell_means_did, reps=30, seed=2**63 + 5).se

    def test_with_inference_merges_the_bootstrap_fields(self, rng):
        # bootstrap_se returns the full-sample estimate with its inference
        sample = random_cell_sample(rng, lo=6, hi=10)
        point = estimate_ipw_did(sample.cell_table())
        merged = bootstrap_se(sample, estimate_ipw_did, reps=80, seed=4)
        assert merged.method == "ipw"
        assert merged.atet == point.atet
        assert merged.n_by_cell == point.n_by_cell
        assert merged.n_trimmed_by_cell == point.n_trimmed_by_cell
        assert math.isfinite(merged.se) and merged.se > 0.0
        assert_allclose(
            merged.ci_normal,
            (point.atet - Z_975 * merged.se, point.atet + Z_975 * merged.se),
            atol=1e-10,
        )
        assert merged.ci_percentile[0] < merged.ci_percentile[1]
        assert merged.bootstrap_reps == 80
        assert merged.bootstrap_failures == 0
        assert merged.seed == 4
        assert merged.p_value == two_sided_normal_p(point.atet, merged.se)


class TestBootstrapDraws:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.just(1) | st.integers(1, 300), min_size=4, max_size=4),
        st.integers(0, 2**32 - 1),
        st.integers(0, 10_000),
    )
    def test_one_call_with_each_rows_cell_size_draws_the_per_cell_stream(
        self, sizes, seed, rep
    ):
        # bootstrap_se relies on this numpy behaviour for bounded integers
        def generator():
            return np.random.default_rng(np.random.SeedSequence((seed, rep)))

        per_cell = generator()
        expected = np.concatenate([per_cell.integers(0, n, n) for n in sizes])
        assert_array_equal(generator().integers(0, np.repeat(sizes, sizes)), expected)

    @settings(max_examples=300, deadline=None)
    @given(
        st.just(0)
        | st.integers(0, 2**32 - 1)
        | st.integers(2**62, 2**63 - 1)  # pipeline.task_seed
        | st.integers(2**96, 2**192),  # entropy longer than SeedSequence's pool
        st.integers(1, 8),
        st.data(),
        st.booleans(),
    )
    def test_block_draws_equal_numpys_seed_sequence_pcg64_and_bounded_integers(
        self, seed, count, data, cell_sizes
    ):
        # fails when a numpy release changes SeedSequence, PCG64 seeding or
        # the Lemire bounded integers that _replicate_draws spells out
        first = data.draw(st.integers(0, 100) | st.integers(2**32 - 100, 2**32 - count))
        if cell_sizes:
            sizes = data.draw(st.lists(st.just(1) | st.integers(1, 40), min_size=4, max_size=4))
            high = np.repeat(sizes, sizes)
        else:  # bounds near 2**32 make numpy reject and redraw
            bounds = st.just(1) | st.integers(1, 2**32 - 1) | st.integers(2**31, 2**32 - 1)
            high = np.array(data.draw(st.lists(bounds, min_size=1, max_size=12)))
        expected = [numpy_draws(seed, r, high) for r in range(first, first + count)]
        rejected = sum(redrawn for _, redrawn in expected)
        event(f"replicates numpy redrew: {min(rejected, 2)}")
        with mock.patch.object(np.random, "default_rng", wraps=np.random.default_rng) as rng:
            draws = did._replicate_draws(seed, first, count, high)
        assert draws.shape == (count, high.size)
        for row, (numpy_row, _) in zip(draws, expected):
            assert_array_equal(row, numpy_row, err_msg="numpy's generator stream changed")
        assert rng.call_count == rejected

    def test_a_rejected_draw_redraws_its_replicate_with_numpy(self):
        high = np.array([2**31 + 1, 1, 2**31 + 1, 5])
        expected = [numpy_draws(9, r, high) for r in range(20)]
        assert 0 < sum(redrawn for _, redrawn in expected) < 20
        with mock.patch.object(np.random, "default_rng", wraps=np.random.default_rng) as rng:
            draws = did._replicate_draws(9, 0, 20, high)
        assert_array_equal(draws, [row for row, _ in expected])
        assert rng.call_count == sum(redrawn for _, redrawn in expected)

    @pytest.mark.parametrize(
        "sizes, seed, first, count",
        [
            # a full block of a 48-row sample: 24 raw words, 1,365 replicates
            ((10, 14, 11, 13), 11, 0, did.BLOCK_ROWS // 48),
            ((500, 480, 520, 500), 2**62 + 3, 7, 32),  # 1,000 raw words each
            ((1, 6, 1, 9), 5, 100, 300),  # 15 bounded rows: half a word unused
            ((1, 1, 1, 1), 3, 0, 64),  # no bounded row draws a raw word
            ((12, 12, 12, 12), 2**96 + 2**64 + 1, 2**32 - 200, 200),
        ],
        ids=["48-row-block", "2000-rows", "odd-bounded-rows", "cells-of-one", "seed-over-2**96"],
    )
    def test_a_block_of_replicates_draws_numpys_stream(self, sizes, seed, first, count):
        # more replicates and raw words than the hypothesis test above draws
        # (8 replicates, 80 words), so every doubling round of the stream runs
        high = np.repeat(sizes, sizes)
        expected = [numpy_draws(seed, r, high) for r in range(first, first + count)]
        with mock.patch.object(np.random, "default_rng", wraps=np.random.default_rng) as rng:
            draws = did._replicate_draws(seed, first, count, high)
        assert_array_equal(draws, [row for row, _ in expected])
        assert rng.call_count == sum(redrawn for _, redrawn in expected)


def numpy_draws(seed, rep, high):
    """numpy's draws for replicate ``rep`` and whether it rejected a uint32
    on the way: one uint32 per bound above 1 leaves a state that a fresh
    generator reaches by that many raw words."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, rep)))
    row = rng.integers(0, high)
    used = int((high > 1).sum())
    fresh = np.random.PCG64(np.random.SeedSequence((seed, rep)))
    fresh.random_raw((used + 1) // 2)
    state = rng.bit_generator.state
    exact = state["state"] == fresh.state["state"] and state["has_uint32"] == used % 2
    return row, not exact


TABLE_ESTIMATORS = st.one_of(
    st.just(cell_means_did),
    st.builds(
        lambda threshold, trim_treated: functools.partial(
            estimate_ipw_did, trim_threshold=threshold, trim_treated=trim_treated
        ),
        st.floats(0.5, 1.0),
        st.booleans(),
    ),
)


def assert_matches_the_row_level_bootstrap(sizes, seed, estimator, reps):
    cells = sample_from_sizes(sizes)
    y = np.random.default_rng(seed).normal(100.0, 10.0, cells.n_obs)
    sample = DidSample(y, cells.d, cells.t, cells.stratum)
    table_calls, row_calls = [], []
    table = outcome_of(bootstrap_se, sample, recorded(estimator, table_calls), reps, seed)
    reference = outcome_of(
        row_level_bootstrap, sample, recorded(estimator, row_calls), reps, seed
    )
    event(f"reference: {type(reference).__name__}")
    # every call, the full sample's first: its estimate or its error
    assert len(table_calls) == len(row_calls)
    for (lost, ours), (_, theirs) in zip(table_calls, row_calls):
        if lost:
            event("a replicate lost a stratum")
        if isinstance(theirs, str):
            assert ours == theirs
        else:
            assert abs(ours - theirs) <= 1e-12 * abs(theirs), (ours, theirs)
    if isinstance(reference, Exception):
        assert type(table) is type(reference), (table, reference)
        assert str(table) == str(reference)
        return
    assert not isinstance(table, Exception), table
    atet, se, p, ci_normal, ci_percentile, failures = reference
    event(f"replicate failures: {failures > 0}")
    assert table.atet == atet
    assert table.bootstrap_failures == failures
    assert table.bootstrap_reps == reps and table.seed == seed
    assert_allclose(table.se, se, rtol=1e-12, atol=0)
    assert_allclose(table.p_value, p, rtol=1e-12, atol=0)
    assert_allclose(table.ci_normal, ci_normal, rtol=1e-12, atol=0)
    assert_allclose(table.ci_percentile, ci_percentile, rtol=1e-12, atol=0)


class TestBootstrapOracle:
    """``bootstrap_se`` tables each replicate at the full sample's width
    from a code computed once, a block of replicates at a time; the oracle
    builds each replicate's sample from its rows. Small cells make
    replicates lose strata, separate and exhaust the trim."""

    @settings(max_examples=300, deadline=None)
    @given(
        stratum_sizes(treated_max=8, count_max=5),
        st.integers(0, 2**32 - 1),
        TABLE_ESTIMATORS,
        st.integers(2, 40),
    )
    def test_matches_the_row_level_bootstrap(self, sizes, seed, estimator, reps):
        assert_matches_the_row_level_bootstrap(sizes, seed, estimator, reps)

    @settings(max_examples=100, deadline=None)
    @given(
        stratum_sizes(treated_max=8, count_max=5),
        st.integers(2**62, 2**63 - 1) | st.integers(2**96, 2**160),
        TABLE_ESTIMATORS,
        st.integers(2, 40),
    )
    def test_cli_sized_seeds_match_the_row_level_bootstrap(self, sizes, seed, estimator, reps):
        # pipeline.task_seed gives 63-bit seeds; 2**96 and above hash more
        # entropy words than SeedSequence's pool holds
        assert_matches_the_row_level_bootstrap(sizes, seed, estimator, reps)

    @settings(max_examples=200, deadline=None)
    @given(
        stratum_sizes(treated_max=8, count_max=5),
        st.integers(0, 2**32 - 1),
        TABLE_ESTIMATORS,
        st.integers(2, 6),
        st.integers(2, 6),
        st.data(),
    )
    def test_blocks_and_a_remainder_match_the_row_level_bootstrap(
        self, sizes, seed, estimator, per_block, blocks, data
    ):
        # BLOCK_ROWS fits per_block replicates of this sample's rows, and
        # reps leaves a last, shorter block
        rows = sample_from_sizes(sizes).n_obs
        block_rows = per_block * rows + data.draw(st.integers(0, rows - 1))
        reps = blocks * per_block + data.draw(st.integers(1, per_block - 1))
        with mock.patch.object(did, "BLOCK_ROWS", block_rows):
            assert_matches_the_row_level_bootstrap(sizes, seed, estimator, reps)

    @pytest.mark.parametrize("per_block", [None, 1, 3])
    @pytest.mark.parametrize("failing", [2, 3])
    def test_ten_percent_of_failed_replicates_is_the_limit(
        self, rng, monkeypatch, failing, per_block
    ):
        sample = random_cell_sample(rng, lo=4, hi=6)
        if per_block is not None:  # blocks of per_block replicates, the last of 20 % per_block
            monkeypatch.setattr(did, "BLOCK_ROWS", per_block * sample.n_obs)

        def failing_first():
            calls = []

            def estimator(table):
                calls.append(table)
                if 1 < len(calls) <= failing + 1:  # the first call is the full sample
                    raise TrimExhaustionError("synthetic failure")
                return cell_means_did(table)

            return estimator

        for bootstrap in (bootstrap_se, row_level_bootstrap):
            estimator = failing_first()
            if failing == 2:  # 2 of 20 is 10%, still allowed
                result = bootstrap(sample, estimator, 20, 7)
                # the oracle returns a plain tuple, and an EffectEstimate is a tuple too
                ours = isinstance(result, EffectEstimate)
                failures = result.bootstrap_failures if ours else result[-1]
                assert failures == 2
            else:
                with pytest.raises(BootstrapDegenerateError, match="3 of 20"):
                    bootstrap(sample, estimator, 20, 7)


@st.composite
def wide_stratum_sizes(draw):
    """Counts per (stratum, cell) for 1 to 12 strata, so that a cell's row
    of strata is summed both by numpy's plain loop (fewer than 8) and by
    its unrolled pairwise one (8 and more). Zeros make empty strata and
    cells, ones make cells of one row."""
    strata = draw(st.integers(1, 12))
    cell = st.lists(st.integers(0, 3) | st.just(0), min_size=4, max_size=4)
    return draw(st.lists(cell, min_size=strata, max_size=strata))


class TestCellTotals:
    @settings(max_examples=300, deadline=None)
    @given(wide_stratum_sizes(), st.integers(0, 2**32 - 1), TABLE_ESTIMATORS, st.integers(2, 20))
    def test_every_table_carries_its_per_cell_totals(self, sizes, seed, estimator, reps):
        # the sample's table first, then bootstrap_se's replicate tables,
        # then the row-level oracle's tables: each reduces its own arrays
        tables = []

        def recording(table):
            tables.append(table)
            return estimator(table)

        assert_matches_the_row_level_bootstrap(sizes, seed, recording, reps)
        n_by_cell = tables[0].n_by_cell
        event(f"strata: {tables[0].counts.shape[1]}")
        event(f"a cell of one row: {1 in n_by_cell}")
        event(f"replicates: {len(tables) > 2}")
        for table in tables:
            assert table.n_by_cell == tuple(table.counts.sum(axis=1))
            assert table.cell_sums == tuple(table.sums.sum(axis=1).tolist())
            assert all(type(n) is int for n in table.n_by_cell)

    def test_a_sample_of_no_rows_tabulates_float_sums(self):
        # np.bincount of no rows returns integers whatever its weights
        table = DidSample([], [], [], []).cell_table()
        assert table.sums.dtype == np.float64 and table.sums.shape == (4, 1)
        assert table.cell_sums == (0.0, 0.0, 0.0, 0.0)
        assert all(type(total) is float for total in table.cell_sums)
        assert table.n_by_cell == (0, 0, 0, 0)


class TestCellMeansOracle:
    """``cell_means_did`` checks the four cell sizes inline and runs
    ``validate`` only for a table with an empty cell;
    ``oracles.cell_means_did`` is the estimator that validated every table.
    Both must agree bit for bit, errors included."""

    @settings(max_examples=300, deadline=None)
    @given(wide_stratum_sizes(), st.just(set()) | st.sets(st.sampled_from(range(4))),
           st.integers(0, 2**32 - 1))
    def test_matches_the_validating_estimator_bit_for_bit(self, sizes, empty, seed):
        # the cells in ``empty`` lose every row, in any position and number;
        # half the draws empty none, so that most tables reach the arithmetic
        sizes = [[0 if k in empty else n for k, n in enumerate(cells)] for cells in sizes]
        cells = sample_from_sizes(sizes)
        # means in different binades, so that each subtraction rounds
        y = np.random.default_rng(seed).lognormal(3.0, 2.0, cells.n_obs)
        table = DidSample(y, cells.d, cells.t, cells.stratum).cell_table()
        ours = outcome_of(cell_means_did, table)
        reference = outcome_of(validating_cell_means_did, table)
        event(f"reference: {type(reference).__name__}")
        if isinstance(reference, Exception):
            assert type(ours) is InfeasibleSampleError, ours
            assert (ours.reason, str(ours)) == (reference.reason, str(reference))
            return
        assert type(ours) is EffectEstimate, ours
        assert float.hex(ours.atet) == float.hex(reference.atet)
        assert (ours.method, ours.n_by_cell) == (reference.method, reference.n_by_cell)
        assert math.isnan(ours.se) and math.isnan(ours.p_value)
        assert ours[5:] == reference[5:]


class TestEffectEstimateRecord:
    FIELDS = (
        "method", "atet", "se", "p_value", "n_by_cell", "n_trimmed_by_cell", "ci_normal",
        "ci_percentile", "bootstrap_reps", "bootstrap_failures", "seed",
    )

    def test_fields_defaults_and_n_trimmed(self):
        assert EffectEstimate._fields == self.FIELDS
        estimate = EffectEstimate("means", 1.5, 0.25, 0.5, (4, 5, 6, 7))
        assert tuple(estimate) == ("means", 1.5, 0.25, 0.5, (4, 5, 6, 7), (0, 0, 0, 0),
                                   None, None, None, None, None)
        assert estimate.n_trimmed == 0
        trimmed = EffectEstimate("ipw", 1.5, 0.25, 0.5, (4, 5, 6, 7), (0, 1, 0, 2))
        assert trimmed.n_trimmed == 3

    def test_is_read_only_and_replace_keeps_the_other_fields(self):
        estimate = EffectEstimate("ipw", 1.5, 0.25, 0.5, (4, 5, 6, 7), (0, 1, 0, 2))
        for name in ("atet", "n_trimmed", "extra"):
            with pytest.raises(AttributeError):
                setattr(estimate, name, 2.0)
        merged = estimate._replace(se=0.75, bootstrap_reps=20, seed=9)
        changed = {"se": 0.75, "bootstrap_reps": 20, "seed": 9}
        assert merged._asdict() == {**estimate._asdict(), **changed}
        assert estimate.se == 0.25 and estimate.seed is None


# trim thresholds in (0, 1], with shares a small table makes exactly
EXACT_SHARES = st.sampled_from([0.5, 0.75, 1.0, 2 / 3, 1 / 3, 0.25])


class TestArrayIpwOracle:
    """``estimate_ipw_did`` decides separation and trimming from the
    table's counts as Python ints and skips the trim arrays when no rho is
    above the threshold; ``oracles.estimate_ipw_did`` is the array
    estimator it replaced. Both must agree bit for bit, errors included."""

    @settings(max_examples=500, deadline=None)
    @given(
        wide_stratum_sizes() | stratum_sizes(treated_max=120),
        st.integers(0, 2**32 - 1),
        EXACT_SHARES | st.floats(0.0, 1.0, exclude_min=True),
        st.booleans(),
    )
    def test_matches_the_array_estimator_bit_for_bit(self, sizes, seed, threshold, trim_treated):
        cells = sample_from_sizes(sizes)
        y = np.random.default_rng(seed).normal(100.0, 10.0, cells.n_obs)
        table = DidSample(y, cells.d, cells.t, cells.stratum).cell_table()
        ours = outcome_of(estimate_ipw_did, table, threshold, trim_treated)
        reference = outcome_of(array_ipw_did, table, threshold, trim_treated)
        event(f"reference: {type(reference).__name__}")
        if isinstance(reference, Exception):
            assert type(ours) is type(reference), (ours, reference)
            assert str(ours) == str(reference)
            assert getattr(ours, "columns", None) == getattr(reference, "columns", None)
            return
        assert not isinstance(ours, Exception), ours
        event(f"trimmed: {reference.n_trimmed > 0}")
        event(f"an empty stratum: {not table.counts.any(axis=0).all()}")
        assert float.hex(ours.atet) == float.hex(reference.atet)
        assert ours.n_by_cell == reference.n_by_cell
        assert ours.n_trimmed_by_cell == reference.n_trimmed_by_cell
        assert all(type(n) is int for n in ours.n_trimmed_by_cell)

    @pytest.mark.parametrize("trim_treated", [False, True])
    @pytest.mark.parametrize("threshold", [0.5, 0.75, 1.0])
    def test_a_share_equal_to_the_threshold_is_kept(self, threshold, trim_treated):
        # every share is 1/2 but stratum 1's against (0,1), 3/4: a share
        # equal to the threshold is kept, and only one above it is trimmed
        table = sample_from_sizes([[2, 2, 2, 2], [3, 3, 1, 3]]).cell_table()
        ours = estimate_ipw_did(table, threshold, trim_treated)
        reference = array_ipw_did(table, threshold, trim_treated)
        assert float.hex(ours.atet) == float.hex(reference.atet)
        assert ours.n_trimmed_by_cell == reference.n_trimmed_by_cell
        expected = {0.5: (0, 0, 1, 0), 0.75: (0, 0, 0, 0), 1.0: (0, 0, 0, 0)}[threshold]
        if trim_treated and expected != (0, 0, 0, 0):
            expected = (3, 0, 0, 0)
        assert ours.n_trimmed_by_cell == expected


class TestValidate:
    """``CellTable.validate`` returns at once when every cell is large
    enough, and otherwise reports as ``oracles.validate_cells`` does."""

    @pytest.mark.parametrize(
        "n_by_cell",
        [
            pytest.param((6, 0, 4, 5), id="an empty cell"),
            pytest.param((6, 4, 3, 5), id="a cell one row short"),
            pytest.param((3, 5, 4, 0), id="a short cell before an empty one"),
            pytest.param((3, 2, 1, 3), id="min_cell above every cell"),
            pytest.param((7, 4, 5, 4), id="min_cell the smallest cell"),
        ],
    )
    def test_matches_the_two_loops(self, n_by_cell):
        min_cell = 4
        table = sample_from_sizes([n_by_cell]).cell_table()
        assert table.n_by_cell == n_by_cell
        ours = outcome_of(table.validate, min_cell)
        reference = outcome_of(validate_cells, n_by_cell, min_cell)
        if isinstance(reference, InfeasibleSampleError):
            assert type(ours) is InfeasibleSampleError, ours
            assert (ours.reason, str(ours)) == (reference.reason, str(reference))
        else:
            assert ours == reference == n_by_cell

    @pytest.mark.parametrize("min_cell", [-1, 0, 1])
    def test_min_cell_below_one_still_refuses_an_empty_cell(self, min_cell):
        table = sample_from_sizes([(1, 0, 1, 1)]).cell_table()
        with pytest.raises(InfeasibleSampleError, match=r"^empty_cell\(D=1,T=0\)"):
            table.validate(min_cell)
        assert sample_from_sizes([(1, 1, 1, 1)]).cell_table().validate(min_cell) == (1,) * 4


def recorded(estimator, calls):
    """``estimator`` appending (whether the table lacks a stratum of the
    first table it saw, its atet or its error's type name) to ``calls``."""
    present = []

    def call(table):
        seen = table.counts.any(axis=0)
        if not present:
            present.append(seen)
        full = present[0]
        lost = bool((full[: seen.size] & ~seen).any() or full[seen.size :].any())
        try:
            estimate = estimator(table)
        except SeasonDidError as exc:
            calls.append((lost, type(exc).__name__))
            raise
        calls.append((lost, estimate.atet))
        return estimate

    return call


class TestNormalP:
    def test_matches_erfc_formula(self):
        assert_allclose(two_sided_normal_p(1.96, 1.0), math.erfc(1.96 / math.sqrt(2)), rtol=1e-12)
        assert_allclose(two_sided_normal_p(0.0, 1.0), 1.0)
        assert two_sided_normal_p(-2.0, 1.0) == two_sided_normal_p(2.0, 1.0)

    def test_degenerate_se(self):
        assert two_sided_normal_p(0.0, 0.0) == 1.0
        assert two_sided_normal_p(1.0, 0.0) == 0.0
        assert two_sided_normal_p(1.0, float("nan")) == 0.0


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def quantile_values(draw):
    """Finite floats, n >= 1; half the time drawn from a few values, both
    zeros among them, so that ties (and 0.0 against -0.0) are common."""
    if draw(st.booleans()):
        return draw(st.lists(FINITE, min_size=1, max_size=60))
    pool = draw(st.lists(FINITE, min_size=1, max_size=4)) + [0.0, -0.0]
    return draw(st.lists(st.sampled_from(pool), min_size=1, max_size=60))


class TestQuantile:
    @settings(max_examples=1000, deadline=None)
    @given(
        quantile_values(),
        st.sampled_from([0.0, 0.025, 0.25, 0.5, 0.75, 0.975, 1.0]) | st.floats(0.0, 1.0),
    )
    def test_is_numpys_linear_quantile_bit_for_bit(self, values, q):
        values = np.array(values)
        with np.errstate(over="ignore", invalid="ignore"):  # b - a may overflow
            expected = float(np.quantile(values, q))
        # effects.csv writes repr, which tells -0.0 from 0.0
        assert repr(quantile(values, q)) == repr(expected)


class TestBuildSample:
    @pytest.fixture
    def calendar(self):
        return ProtectionCalendar({"tomato": window("05-10", "08-31")})

    def outcome_rows(self, calendar, country, price_by_week, product="tomato"):
        rows = [
            price_row(product if country == "CH" else "tomato", country, wk, price)
            for wk, price in price_by_week.items()
        ]
        labeled = label_panel(panel_rows(rows), calendar, window_product="tomato")
        return apply_boundary_exclusion(standardize_prices(labeled))

    def weekly_prices(self, rng, years=(2015, 2016)):
        prices = {}
        for year in years:
            for number in list(range(10, 19)) + list(range(20, 35)) + list(range(36, 45)):
                prices[week(year, number)] = float(rng.uniform(100, 200))
        return prices

    def test_stratum_codes_and_reference_season(self, rng, calendar):
        treated = self.outcome_rows(calendar, "CH", self.weekly_prices(rng))
        control = self.outcome_rows(calendar, "DE", self.weekly_prices(rng))
        task = basic_task(product="tomato")
        sample = build_sample(task, treated, control)
        seasons = np.concatenate([treated.season, control.season])
        assert sorted(set(seasons)) == [2015, 2016]
        assert sample.n_obs == len(treated) + len(control)
        # 2015 is the reference season (code 0), 2016 is code 1
        assert_array_equal(sample.stratum, (seasons == 2016).astype(int))

    def test_no_covariates_gives_one_stratum(self, rng, calendar):
        treated = self.outcome_rows(calendar, "CH", self.weekly_prices(rng))
        control = self.outcome_rows(calendar, "DE", self.weekly_prices(rng))
        task = basic_task(product="tomato", covariates=CovariateSpec.NONE)
        sample = build_sample(task, treated, control)
        assert_array_equal(sample.stratum, np.zeros(sample.n_obs, dtype=int))

    def test_boundary_rows_are_refused(self, rng, calendar):
        rows = [price_row("tomato", "CH", week(2016, 19), 150.0)]
        labeled = label_panel(panel_rows(rows), calendar)
        boundary_rows = standardize_prices(labeled)
        task = basic_task(product="tomato")
        no_rows = boundary_rows.take(np.zeros(1, dtype=bool))
        with pytest.raises(ValueError):
            build_sample(task, boundary_rows, no_rows)

    def test_min_cell_enforced(self, rng, calendar):
        treated = self.outcome_rows(calendar, "CH", self.weekly_prices(rng))
        control = self.outcome_rows(calendar, "DE", self.weekly_prices(rng))
        task = basic_task(product="tomato", min_cell=10_000)
        with pytest.raises(InfeasibleSampleError) as excinfo:
            build_sample(task, treated, control)
        assert excinfo.value.reason.startswith("small_cell")

    def test_task_construction_rejects_bad_settings(self):
        with pytest.raises(ConfigError):
            basic_task(trim_threshold=0.0)
        with pytest.raises(ConfigError):
            basic_task(bootstrap_reps=-1)
        for reps in (1, 2**32 + 1):
            with pytest.raises(ConfigError, match=r"a bootstrap needs reps between 2 and 2\*\*32"):
                basic_task(bootstrap_reps=reps)
        assert basic_task(bootstrap_reps=0).bootstrap_reps == 0
        with pytest.raises(ConfigError):
            basic_task(min_cell=0)
        with pytest.raises(ConfigError):  # treated and control quality differ
            EstimationTask(
                treated=SeriesKey("tomato", Quality.CONVENTIONAL, "CH"),
                control=SeriesKey("tomato", Quality.ORGANIC, "DE"),
                outcome=Outcome.LEVEL,
            )
        # a control in the treated country, of any product or region
        for control in (SeriesKey("tomato", Quality.CONVENTIONAL, "CH"),
                        SeriesKey("leek", Quality.CONVENTIONAL, "CH", "north")):
            with pytest.raises(ConfigError, match=re.escape(
                    f"the control series {control} must be in another country than the "
                    "treated series tomato[conventional]@CH")):
                EstimationTask(treated=SeriesKey("tomato", Quality.CONVENTIONAL, "CH"),
                               control=control, outcome=Outcome.LEVEL)
