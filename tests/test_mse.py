"""Measurement-error study tests: analytic errors and Monte Carlo agreement."""

import math

import numpy as np
import pytest

from volmix.kernels import (
    BrownianIdentity,
    RiemannLiouville,
    TimeGrid,
    cell_average_matrix,
    covariance,
)
from volmix.mse import variance_reduction_report, z_score
from volmix.predict import present_variance
from volmix.simulate import MixParams, noise_pass
from volmix.verify import _check_mse, run_checks

GRID = TimeGrid(horizon=1.0, cells=64)
BM = BrownianIdentity()
KBM = cell_average_matrix(BM, GRID)


def _analytic(kernel, b):
    """The study's analytic (naive, filtered) errors at t = 1, from a 200-path report."""
    row = variance_reduction_report(kernel, [b], [1.0], 200, 42, GRID)[0]
    return row.naive_analytic, row.filtered_analytic


class TestAnalyticErrors:
    def test_no_noise_no_error(self):
        assert _analytic(BM, 0.0) == (0.0, 0.0)

    def test_brownian_values(self):
        naive, filtered = _analytic(BM, 2.0)
        assert naive == pytest.approx(4.0, rel=1e-14)
        assert filtered == pytest.approx(0.8, rel=1e-14)

    def test_fractional_kernel_scales_with_variance(self):
        kernel = RiemannLiouville(0.75)
        base = covariance(cell_average_matrix(kernel, GRID), 1.0, 1.0, GRID)
        naive, filtered = _analytic(kernel, 1.0)
        assert naive == pytest.approx(base, rel=1e-14)
        assert filtered == pytest.approx(base / 2.0, rel=1e-14)

    @pytest.mark.parametrize("b", [0.1, 0.5, 1.0, 2.0, 10.0])
    def test_filtered_bounded_and_below_naive(self, b):
        naive, filtered = _analytic(BM, b)
        base = covariance(KBM, 1.0, 1.0, GRID)
        assert filtered < naive
        assert filtered <= min(1.0, b * b) * base + 1e-15

    def test_equality_only_without_noise(self):
        naive, filtered = _analytic(BM, 0.0)
        assert naive == filtered

    def test_large_noise_saturates_at_variance(self):
        base = covariance(KBM, 1.0, 1.0, GRID)
        assert _analytic(BM, 1e6)[1] == pytest.approx(base, rel=1e-11)

    def test_filtered_error_is_present_variance(self):
        kernel = RiemannLiouville(0.25)
        kbar = cell_average_matrix(kernel, GRID)
        for b in (0.3, 1.0, 2.5):
            assert _analytic(kernel, b)[1] == present_variance(kbar, MixParams(1.0, b), 1.0, GRID)


def _row(b, n_paths, seed):
    """The study's single (t = 1, b) row: both estimators from one noise pass."""
    return variance_reduction_report(BM, [b], [1.0], n_paths, seed, GRID)[0]


class TestMonteCarlo:
    def test_no_noise_filtered_error_is_exactly_zero(self):
        row = _row(0.0, 500, 42)
        assert row.filtered_mc == 0.0
        assert row.filtered_se == 0.0

    def test_brownian_filtered_within_band(self):
        row = _row(1.0, 50_000, 42)
        assert abs(row.filtered_mc - 0.5) <= 3.0 * row.filtered_se

    def test_brownian_naive_within_band(self):
        row = _row(2.0, 50_000, 42)
        assert abs(row.naive_mc - 4.0) <= 3.0 * row.naive_se

    def test_too_few_paths_rejected(self):
        with pytest.raises(ValueError, match="n_paths"):
            _row(1.0, 1, 42)

    def test_bit_reproducible(self):
        # 10_000 paths straddles the 8192-path batch boundary.
        assert _row(1.0, 10_000, 7) == _row(1.0, 10_000, 7)

    def test_deviation_shrinks_along_path_ladder(self):
        deviations = []
        for n_paths in (1_000, 10_000, 100_000):
            row = _row(1.0, n_paths, 42)
            deviations.append(abs(row.filtered_mc - row.filtered_analytic))
        assert deviations[-1] < deviations[0]
        assert deviations[-1] <= 3.0 * row.filtered_se


class TestReport:
    def test_zero_noise_row_is_all_zero(self):
        rows = variance_reduction_report(BM, [0.0], [1.0], 500, 42, GRID)
        assert len(rows) == 1
        row = rows[0]
        assert row.naive_mc == row.filtered_mc == 0.0
        assert row.naive_analytic == row.filtered_analytic == 0.0
        assert row.reduction_ratio == 1.0
        assert row.within_tolerance

    def test_reduction_ratio_column(self):
        rows = variance_reduction_report(BM, [0.5, 1.0, 2.0], [1.0], 2_000, 42, GRID)
        assert [row.reduction_ratio for row in rows] == pytest.approx([0.8, 0.5, 0.2])

    def test_filtered_never_beats_naive_by_more_than_noise(self):
        rows = variance_reduction_report(RiemannLiouville(0.75), [0.5, 1.0, 2.0],
                                         [1.0], 20_000, 42, GRID)
        for row in rows:
            combined = 3.0 * math.hypot(row.naive_se, row.filtered_se)
            assert row.filtered_mc <= row.naive_mc + combined
            assert row.within_tolerance

    def test_rows_flagged_against_analytic(self):
        rows = variance_reduction_report(BM, [1.0], [1.0], 50_000, 42, GRID)
        row = rows[0]
        assert abs(row.naive_mc - row.naive_analytic) <= 3.0 * row.naive_se
        assert abs(row.filtered_mc - row.filtered_analytic) <= 3.0 * row.filtered_se

    def test_non_finite_error_band_fails(self):
        # An overflowed estimate or error band proves nothing; 3 * inf would
        # otherwise accept any estimate.
        for mc, se in ((math.inf, 1.0), (1.0, math.inf), (1.0, math.nan)):
            assert z_score(mc, se, 1.0) == math.inf

    def test_huge_noise_error_band_stays_finite(self):
        # At b = 1e150 the naive errors are about 1e150 and their squares 1e300.
        # Scaled by 2^-498 before squaring, their co-moment no longer overflows.
        row = _row(1e150, 200, 42)
        features, finish = _check_mse(GRID, [1e150])
        checks = finish(*noise_pass(GRID, 42, 200, [features]))
        assert math.isfinite(row.naive_se) and math.isfinite(row.filtered_se)
        assert row.within_tolerance
        assert all(check.passed for check in checks)

    def test_estimate_past_the_float_range_fails_quietly(self):
        # b^2 r(1, 1) = 1.69e308 is a normal float; this estimate, 7% above it, is not.
        row = variance_reduction_report(BM, [1.3e154], [1.0], 200, 42, TimeGrid(1.0, 16))[0]
        assert row.naive_mc == math.inf and math.isfinite(row.naive_se)
        assert not row.within_tolerance

    def test_verify_rows_are_the_study_rows(self):
        # verify's z-scores come from the same reports as mse-study's rows.
        bs, paths, seed = [0.5, 1.0, 2.0], 500, 42
        checks = {check.name: check.statistic
                  for check in run_checks(BM, GRID, MixParams(1.0, 1.0), bs, paths, seed)}
        for row in variance_reduction_report(BM, bs, [GRID.horizon], paths, seed, GRID):
            for name in ("naive", "filtered"):
                mc, se, value = (getattr(row, f"{name}_{field}")
                                 for field in ("mc", "se", "analytic"))
                assert checks[f"mse_{name}_z[b={row.b:g}]"] == abs(mc - value) / se
