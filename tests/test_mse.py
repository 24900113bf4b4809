"""Measurement-error study tests: analytic errors and Monte Carlo agreement."""

import math

import pytest

from volmix.kernels import BrownianIdentity, RiemannLiouville, TimeGrid, covariance
from volmix.mse import (
    filtered_mse_analytic,
    mc_mse,
    naive_mse_analytic,
    variance_reduction_report,
)
from volmix.predict import present_variance
from volmix.simulate import MixParams

GRID = TimeGrid(horizon=1.0, cells=64)
BM = BrownianIdentity()


class TestAnalyticErrors:
    def test_no_noise_no_error(self):
        assert naive_mse_analytic(BM, 0.0, 1.0, GRID) == 0.0
        assert filtered_mse_analytic(BM, 0.0, 1.0, GRID) == 0.0

    def test_brownian_values(self):
        assert naive_mse_analytic(BM, 2.0, 1.0, GRID) == pytest.approx(4.0, rel=1e-14)
        assert filtered_mse_analytic(BM, 2.0, 1.0, GRID) == pytest.approx(0.8, rel=1e-14)

    def test_fractional_kernel_scales_with_variance(self):
        kernel = RiemannLiouville(0.75)
        base = covariance(kernel, 1.0, 1.0, GRID)
        assert naive_mse_analytic(kernel, 1.0, 1.0, GRID) == pytest.approx(base, rel=1e-14)
        assert filtered_mse_analytic(kernel, 1.0, 1.0, GRID) == pytest.approx(
            base / 2.0, rel=1e-14)

    @pytest.mark.parametrize("b", [0.1, 0.5, 1.0, 2.0, 10.0])
    def test_filtered_bounded_and_below_naive(self, b):
        naive = naive_mse_analytic(BM, b, 1.0, GRID)
        filtered = filtered_mse_analytic(BM, b, 1.0, GRID)
        base = covariance(BM, 1.0, 1.0, GRID)
        assert filtered < naive
        assert filtered <= min(1.0, b * b) * base + 1e-15

    def test_equality_only_without_noise(self):
        assert naive_mse_analytic(BM, 0.0, 1.0, GRID) == \
            filtered_mse_analytic(BM, 0.0, 1.0, GRID)

    def test_large_noise_saturates_at_variance(self):
        base = covariance(BM, 1.0, 1.0, GRID)
        assert filtered_mse_analytic(BM, 1e6, 1.0, GRID) == pytest.approx(base, rel=1e-11)

    def test_filtered_error_is_present_variance(self):
        kernel = RiemannLiouville(0.25)
        for b in (0.3, 1.0, 2.5):
            lhs = filtered_mse_analytic(kernel, b, 1.0, GRID)
            rhs = present_variance(kernel, MixParams(1.0, b), 1.0, GRID)
            assert lhs == pytest.approx(rhs, rel=1e-12)


class TestMonteCarlo:
    def test_no_noise_filtered_error_is_exactly_zero(self):
        mse, se = mc_mse(BM, 0.0, 1.0, "filtered", 500, 42, GRID)
        assert mse == 0.0
        assert se == 0.0

    def test_brownian_filtered_within_band(self):
        mse, se = mc_mse(BM, 1.0, 1.0, "filtered", 50_000, 42, GRID)
        assert abs(mse - 0.5) <= 3.0 * se

    def test_brownian_naive_within_band(self):
        mse, se = mc_mse(BM, 2.0, 1.0, "naive", 50_000, 42, GRID)
        assert abs(mse - 4.0) <= 3.0 * se

    def test_unknown_estimator_rejected(self):
        with pytest.raises(ValueError, match="estimator"):
            mc_mse(BM, 1.0, 1.0, "oracle", 500, 42, GRID)

    def test_too_few_paths_rejected(self):
        with pytest.raises(ValueError, match="n_paths"):
            mc_mse(BM, 1.0, 1.0, "naive", 1, 42, GRID)

    def test_bit_reproducible(self):
        # 10_000 paths straddles the 8192-path batch boundary.
        first = mc_mse(BM, 1.0, 1.0, "filtered", 10_000, 7, GRID)
        second = mc_mse(BM, 1.0, 1.0, "filtered", 10_000, 7, GRID)
        assert first == second

    def test_deviation_shrinks_along_path_ladder(self):
        target = filtered_mse_analytic(BM, 1.0, 1.0, GRID)
        deviations = []
        for n_paths in (1_000, 10_000, 100_000):
            mse, se = mc_mse(BM, 1.0, 1.0, "filtered", n_paths, 42, GRID)
            deviations.append(abs(mse - target))
        assert deviations[-1] < deviations[0]
        mse, se = mc_mse(BM, 1.0, 1.0, "filtered", 100_000, 42, GRID)
        assert abs(mse - target) <= 3.0 * se


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
