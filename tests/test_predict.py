"""Conditional prediction law tests.

The direct two-term quadrature of the conditional covariance (the verify
suite's oracle) checks the weighted-factor matrix; the Monte Carlo
residual moments of the acceptance suite (criteria 4 and 5) act as the
oracle for both.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from volmix.kernels import (
    BrownianIdentity,
    ExponentialOU,
    RiemannLiouville,
    TabulatedKernel,
    TimeGrid,
    cell_average_matrix,
    covariance,
    covariance_matrix,
)
from volmix.predict import (
    conditional_covariance_matrix,
    conditional_mean_path,
    prediction_law,
    present_variance,
    rho_to_mix,
)
from volmix.simulate import MixParams, draw_noise, mix
from volmix.verify import conditional_covariance

GRID = TimeGrid(horizon=1.0, cells=32)
FINE = TimeGrid(horizon=1.0, cells=256)
KBM = cell_average_matrix(BrownianIdentity(), GRID)
ZOO = [
    BrownianIdentity(),
    RiemannLiouville(0.25),
    RiemannLiouville(0.5),
    RiemannLiouville(0.75),
    ExponentialOU(1.0, 1.0),
]


def _rel(x, y):
    scale = max(abs(x), abs(y))
    return 0.0 if scale == 0.0 else abs(x - y) / scale


def _unit_response(kernel, params, i, j):
    """Conditional mean at node i of a unit observed increment in cell j:
    the discretized prediction kernel gain * kbar(t_i, j)."""
    unit = np.zeros(GRID.cells)
    unit[j] = 1.0
    return conditional_mean_path(cell_average_matrix(kernel, GRID), params, unit,
                                 GRID.horizon, GRID)[i]


def _closed(averages, params, u, t, s):
    """Conditional covariance of (X_t, X_s) from the matrix on their two rows of K."""
    rows = averages[[GRID.index_of(t), GRID.index_of(s)]]
    return conditional_covariance_matrix(rows, params, u, GRID)[0, 1]


class TestPredictionKernel:
    def test_noise_free_channel_leaves_kernel_alone(self):
        kernel = RiemannLiouville(0.75)
        params = MixParams(1.0, 0.0)
        assert _unit_response(kernel, params, 24, 8) == pytest.approx(
            cell_average_matrix(kernel, GRID)[24, 8], rel=1e-15)

    def test_equal_mix_halves_brownian_kernel(self):
        assert _unit_response(BrownianIdentity(), MixParams(1.0, 1.0), 24, 8) == 0.5

    def test_vanishes_at_and_beyond_t(self):
        for kernel in ZOO:
            assert _unit_response(kernel, MixParams(1.0, 2.0), 16, 16) == 0.0
            assert _unit_response(kernel, MixParams(1.0, 2.0), 16, 28) == 0.0


class TestConditionalMean:
    def test_noise_free_brownian_recovers_driver(self):
        noise = draw_noise(GRID, 42, 0)
        u = GRID.node(16)
        driver_at_u = float(np.sum(noise.driving[:16]))
        path = conditional_mean_path(KBM, MixParams(1.0, 0.0), noise.driving, u, GRID)
        for i in (16, 24, 32):
            assert path[i] == pytest.approx(driver_at_u, rel=1e-14)

    def test_equal_mix_halves_partial_sum(self):
        mixed = np.zeros(GRID.cells)
        mixed[:8] = 0.3 / 8
        path = conditional_mean_path(KBM, MixParams(1.0, 1.0), mixed, GRID.node(8), GRID)
        assert path[GRID.cells] == pytest.approx(0.15, rel=1e-14)

    def test_a_scaling_invariance(self):
        # Scaling the noise-free channel rescales the observation and the
        # gain by inverse factors; the prediction cannot change.
        noise = draw_noise(GRID, 42, 1)
        u = GRID.node(16)
        averages = cell_average_matrix(RiemannLiouville(0.75), GRID)
        reference = conditional_mean_path(averages, MixParams(1.0, 0.0),
                                          noise.driving, u, GRID)[24]
        for a in (0.5, 3.0, -2.0):
            value = conditional_mean_path(averages, MixParams(a, 0.0),
                                          a * noise.driving, u, GRID)[24]
            assert value == pytest.approx(reference, rel=1e-12)

    def test_no_observation_no_mean(self):
        mixed = np.ones(GRID.cells)
        path = conditional_mean_path(KBM, MixParams(1.0, 1.0), mixed, 0.0, GRID)
        assert path[GRID.cells] == 0.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mixed increments"):
            conditional_mean_path(KBM, MixParams(1.0, 1.0), np.zeros(5), 0.5, GRID)

    def test_path_version_agrees_with_scalar(self):
        averages = cell_average_matrix(ExponentialOU(1.0, 1.0), GRID)
        params = MixParams(0.6, 0.8)
        noise = draw_noise(GRID, 42, 2)
        mixed = mix(noise, params)
        path = conditional_mean_path(averages, params, mixed, GRID.node(20), GRID)
        for i in (0, 5, 20, 32):
            scalar = params.gain * float(np.dot(averages[i, :20], mixed[:20]))
            assert path[i] == pytest.approx(scalar, rel=1e-13, abs=1e-16)


class TestConditionalCovariance:
    def test_noise_free_reduction(self):
        averages = cell_average_matrix(RiemannLiouville(0.75), GRID)
        t, s, u = GRID.node(24), GRID.node(32), GRID.node(12)
        seen = float(np.dot(averages[24, :12], averages[32, :12])) * GRID.delta
        for a in (0.5, 1.0, 3.0):
            value = conditional_covariance(averages, MixParams(a, 0.0), u, t, s, GRID)
            expected = covariance(averages, t, s, GRID) - seen
            assert value == pytest.approx(expected, rel=1e-12)

    def test_equal_mix_brownian_half(self):
        value = conditional_covariance(KBM, MixParams(1.0, 1.0), 1.0, 1.0, 1.0, GRID)
        assert value == pytest.approx(0.5, rel=1e-14)

    def test_no_observation_returns_covariance(self):
        averages = cell_average_matrix(ExponentialOU(1.0, 1.0), GRID)
        t, s = GRID.node(10), GRID.node(25)
        value = conditional_covariance(averages, MixParams(1.0, 2.0), 0.0, t, s, GRID)
        assert value == pytest.approx(covariance(averages, t, s, GRID), rel=1e-14)

    def test_closed_form_matches_direct_on_random_tuples(self):
        rng = np.random.default_rng(123)
        worst = 0.0
        for i in range(100):
            averages = cell_average_matrix(ZOO[i % len(ZOO)], GRID)
            params = MixParams(float(rng.uniform(-2, 2)), float(rng.uniform(0.1, 2)))
            it, i_s, iu = (int(v) for v in rng.integers(0, GRID.cells + 1, size=3))
            t, s, u = GRID.node(it), GRID.node(i_s), GRID.node(iu)
            direct = conditional_covariance(averages, params, u, t, s, GRID)
            worst = max(worst, _rel(direct, _closed(averages, params, u, t, s)))
        assert worst <= 1e-12

    def test_monotone_in_observation_time(self):
        averages = cell_average_matrix(RiemannLiouville(0.25), GRID)
        params = MixParams(1.0, 0.5)
        t = GRID.node(24)
        values = [_closed(averages, params, GRID.node(i), t, t)
                  for i in range(0, GRID.cells + 1, 4)]
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_full_information_shrinks_by_signal_fraction(self):
        averages = cell_average_matrix(RiemannLiouville(0.75), GRID)
        params = MixParams(1.0, 1.0)
        for (i, j) in [(8, 16), (16, 16), (24, 32)]:
            t, s = GRID.node(i), GRID.node(j)
            value = _closed(averages, params, 1.0, t, s)
            expected = (1.0 - params.signal_fraction) * covariance(averages, t, s, GRID)
            assert value == pytest.approx(expected, rel=1e-12)

    def test_symmetrisation_keeps_a_finite_product_finite(self):
        # delta * 1.2e154^2 is about 1.4e308: finite, but twice it is not.
        grid = TimeGrid(horizon=8.0, cells=8)
        table = np.zeros((9, 8))
        table[8, 0] = 1.2e154
        cov = conditional_covariance_matrix(table, MixParams(1.0, 1.0), 0.0, grid)
        assert np.isfinite(cov).all() and cov[8, 8] == 1.2e154 * 1.2e154

    @given(iu=st.integers(0, 32), it=st.integers(0, 32), i_s=st.integers(0, 32))
    @settings(max_examples=60, deadline=None)
    def test_symmetric_in_t_and_s(self, iu, it, i_s):
        params = MixParams(0.6, 0.8)
        averages = cell_average_matrix(ExponentialOU(1.0, 1.0), GRID)
        t, s, u = GRID.node(it), GRID.node(i_s), GRID.node(iu)
        assert _closed(averages, params, u, t, s) == _closed(averages, params, u, s, t)


class TestPresentVariance:
    def test_zero_without_noise(self):
        assert present_variance(KBM, MixParams(1.0, 0.0), 1.0, GRID) == 0.0

    def test_equal_mix_brownian(self):
        value = present_variance(KBM, MixParams(1.0, 1.0), 1.0, GRID)
        assert value == pytest.approx(0.5, rel=1e-14)

    def test_small_noise_rate(self):
        averages = cell_average_matrix(RiemannLiouville(0.75), GRID)
        base = covariance(averages, 1.0, 1.0, GRID)
        for b in (1e-1, 1e-2, 1e-3):
            scaled = present_variance(averages, MixParams(1.0, b), 1.0, GRID) / (b * b)
            assert _rel(scaled, base / (1.0 + b * b)) <= 1e-12

    def test_matches_conditional_covariance_at_u(self):
        averages = cell_average_matrix(ExponentialOU(1.0, 1.0), GRID)
        params = MixParams(0.6, 0.8)
        u = GRID.node(20)
        direct = conditional_covariance(averages, params, u, u, u, GRID)
        assert present_variance(averages, params, u, GRID) == pytest.approx(direct, rel=1e-12)

    @pytest.mark.parametrize("kernel", [
        BrownianIdentity(),
        RiemannLiouville(0.75),
        ExponentialOU(1.0, 1.0),
        TabulatedKernel(cell_average_matrix(RiemannLiouville(0.25), FINE), FINE),
    ], ids=lambda k: k.name)
    def test_matrix_keeps_precision_as_b_vanishes(self, kernel):
        # b = 1e-8 leaves a present variance of ~1e-16 * r(u, u): the
        # matrix must not lose it to cancellation against r(u, u).
        params = MixParams(1.0, 1e-8)
        u = FINE.node(128)
        averages = cell_average_matrix(kernel, FINE)
        matrix = conditional_covariance_matrix(averages, params, u, FINE)
        assert _rel(matrix[128, 128], present_variance(averages, params, u, FINE)) <= 1e-12


class TestRhoParametrization:
    def test_corner_cases(self):
        assert rho_to_mix(1.0) == MixParams(1.0, 0.0)
        params = rho_to_mix(0.6)
        assert params.a == pytest.approx(0.6, abs=1e-15)
        assert params.b == pytest.approx(0.8, abs=1e-15)
        zero = rho_to_mix(0.0)
        assert (zero.a, zero.b) == (0.0, 1.0)

    def test_unit_observation_variance(self):
        for rho in (-1.0, -0.3, 0.0, 0.7, 1.0):
            params = rho_to_mix(rho)
            assert params.a**2 + params.b**2 == pytest.approx(1.0, rel=1e-15)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="rho"):
            rho_to_mix(1.5)

    def test_zero_correlation_kills_the_mean(self):
        params = rho_to_mix(0.0)
        noise = draw_noise(GRID, 42, 0)
        mixed = mix(noise, params)
        path = conditional_mean_path(KBM, params, mixed, 1.0, GRID)
        assert np.all(path == 0.0)


class TestPredictionLaw:
    def test_no_observation_gives_prior(self):
        kernel = RiemannLiouville(0.75)
        params = MixParams(1.0, 1.0)
        noise = draw_noise(GRID, 42, 0)
        law = prediction_law(kernel, params, mix(noise, params), 0.0, GRID)
        assert np.all(law.mean == 0.0)
        assert np.allclose(law.cov, covariance_matrix(cell_average_matrix(kernel, GRID), GRID),
                           atol=1e-15)

    def test_noise_free_brownian_pins_past(self):
        params = MixParams(1.0, 0.0)
        noise = draw_noise(GRID, 42, 1)
        hidden = KBM @ noise.driving
        u = GRID.node(16)
        law = prediction_law(BrownianIdentity(), params, mix(noise, params), u, GRID)
        for i in range(17):
            assert law.mean[i] == pytest.approx(hidden[i], abs=1e-15)
            assert abs(law.cov[i, i]) <= 1e-15

    def test_equal_mix_average_of_copies(self):
        params = MixParams(1.0, 1.0)
        noise = draw_noise(GRID, 42, 2)
        u = GRID.node(24)
        law = prediction_law(BrownianIdentity(), params, mix(noise, params), u, GRID)
        i = 24
        expected = 0.5 * (KBM[i] @ noise.driving + KBM[i] @ noise.disturbing)
        assert law.mean[i] == pytest.approx(expected, rel=1e-12)

    def test_covariance_validated(self):
        kernel = ExponentialOU(1.0, 1.0)
        params = MixParams(0.6, 0.8)
        noise = draw_noise(GRID, 42, 3)
        law = prediction_law(kernel, params, mix(noise, params), GRID.node(16), GRID)
        assert np.array_equal(law.cov, law.cov.T)
        lowest = float(np.linalg.eigvalsh(law.cov)[0])
        assert max(0.0, -lowest) / float(np.trace(law.cov)) <= 1e-10

    def test_matrix_matches_scalar_closed_form(self):
        averages = cell_average_matrix(RiemannLiouville(0.25), GRID)
        params = MixParams(1.0, 0.5)
        u = GRID.node(12)
        matrix = conditional_covariance_matrix(averages, params, u, GRID)
        for i in (0, 7, 12, 32):
            for j in (3, 12, 25):
                scalar = conditional_covariance(averages, params, u, GRID.node(i),
                                                GRID.node(j), GRID)
                assert matrix[i, j] == pytest.approx(scalar, rel=1e-12, abs=1e-16)
