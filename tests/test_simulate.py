"""Noise generation and path construction tests.

Monte Carlo oracles run at fixed seeds; tolerances follow the usual
central-limit bands for the sample sizes used.
"""

import math
from collections import Counter

import numpy as np
import pytest

from volmix import simulate
from volmix.kernels import (
    BrownianIdentity,
    ExponentialOU,
    RiemannLiouville,
    TimeGrid,
    cell_average_matrix,
    covariance,
)
from volmix.mse import squared_errors
from volmix.simulate import (
    BATCH_PATHS,
    MixParams,
    Moments,
    build_path,
    draw_noise,
    make_bundle,
    mix,
    noise_matrix,
    noise_pass,
)
from volmix.verify import run_checks

GRID = TimeGrid(horizon=1.0, cells=16)


class TestMixParams:
    def test_degenerate_channel_rejected(self):
        with pytest.raises(ValueError, match="degenerate observation channel"):
            MixParams(a=0.0, b=0.0)

    def test_gain_and_signal_fraction(self):
        params = MixParams(a=3.0, b=4.0)
        assert params.gain == pytest.approx(3.0 / 25.0, rel=1e-15)
        assert params.signal_fraction == pytest.approx(9.0 / 25.0, rel=1e-15)

    def test_pure_disturbance_is_valid(self):
        params = MixParams(a=0.0, b=1.0)
        assert params.gain == 0.0
        assert params.signal_fraction == 0.0


class TestDrawNoise:
    def test_deterministic_per_seed_and_path(self):
        first = draw_noise(GRID, 42, 9)
        second = draw_noise(GRID, 42, 9)
        assert np.array_equal(first.driving, second.driving)
        assert np.array_equal(first.disturbing, second.disturbing)

    def test_distinct_paths_and_channels_differ(self):
        base = draw_noise(GRID, 42, 0)
        other = draw_noise(GRID, 42, 1)
        assert not np.array_equal(base.driving, other.driving)
        assert not np.array_equal(base.driving, base.disturbing)
        reseeded = draw_noise(GRID, 43, 0)
        assert not np.array_equal(base.driving, reseeded.driving)

    def test_noise_matrix_rows_match_single_draws(self):
        block = noise_matrix(GRID, 42, range(5, 9), channel=0)
        for row, path in enumerate(range(5, 9)):
            assert np.array_equal(block[row], draw_noise(GRID, 42, path).driving)

    def test_increment_variance_matches_cell_width(self):
        # MC oracle at 1e5 paths: the variance estimate has a relative
        # standard error of sqrt(2/N) ~ 0.45%, so 2% is a comfortable band.
        n_paths = 100_000
        dw = noise_matrix(GRID, 42, range(n_paths), channel=0)[:, 3]
        assert np.var(dw) == pytest.approx(GRID.delta, rel=0.02)

    def test_channels_uncorrelated(self):
        n_paths = 100_000
        dw = noise_matrix(GRID, 42, range(n_paths), channel=0)[:, 0]
        dwt = noise_matrix(GRID, 42, range(n_paths), channel=1)[:, 0]
        corr = np.corrcoef(dw, dwt)[0, 1]
        assert abs(corr) <= 0.01


class TestBuildPath:
    def test_brownian_partial_sums(self):
        grid = TimeGrid(horizon=1.0, cells=2)
        path = build_path(BrownianIdentity(), np.array([0.5, -0.2]), grid)
        assert path == pytest.approx([0.0, 0.5, 0.3])

    def test_zero_increments_zero_path(self):
        path = build_path(RiemannLiouville(0.75), np.zeros(GRID.cells), GRID)
        assert np.all(path == 0.0)

    def test_unit_increment_reads_off_cell_average(self):
        grid = TimeGrid(horizon=1.0, cells=4)
        kernel = RiemannLiouville(0.75)
        increments = np.zeros(4)
        increments[0] = 1.0
        path = build_path(kernel, increments, grid)
        expected = kernel.cell_integral(1.0, 0, grid) / grid.delta
        assert path[4] == pytest.approx(expected, rel=1e-14)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="increments"):
            build_path(BrownianIdentity(), np.zeros(5), GRID)


class TestMixAndBundle:
    def test_mix_arithmetic(self):
        noise = draw_noise(GRID, 42, 0)
        assert np.array_equal(mix(noise, MixParams(1.0, 0.0)), noise.driving)
        assert np.array_equal(mix(noise, MixParams(0.0, 1.0)), noise.disturbing)
        three_four = mix(noise, MixParams(3.0, 4.0))
        assert three_four[2] == pytest.approx(
            3.0 * noise.driving[2] + 4.0 * noise.disturbing[2], rel=1e-15)

    def test_noise_free_observation_equals_hidden(self):
        noise = draw_noise(GRID, 42, 3)
        bundle = make_bundle(BrownianIdentity(), noise, MixParams(1.0, 0.0), GRID)
        assert np.array_equal(bundle.observed, bundle.hidden)

    def test_brownian_sum_of_channels(self):
        noise = draw_noise(GRID, 42, 4)
        bundle = make_bundle(BrownianIdentity(), noise, MixParams(1.0, 1.0), GRID)
        total = np.sum(noise.driving) + np.sum(noise.disturbing)
        assert bundle.observed[-1] == pytest.approx(total, rel=1e-12)

    def test_bundle_invariants(self):
        noise = draw_noise(GRID, 42, 5)
        params = MixParams(0.6, 0.8)
        bundle = make_bundle(RiemannLiouville(0.75), noise, params, GRID)
        assert bundle.hidden[0] == 0.0
        assert bundle.twin[0] == 0.0
        assert bundle.observed[0] == 0.0
        assert np.allclose(bundle.mixed_increments,
                           0.6 * noise.driving + 0.8 * noise.disturbing, rtol=1e-15)
        assert np.allclose(bundle.observed, bundle.hidden + 0.8 * bundle.twin,
                           rtol=1e-15)


class TestPathMoments:
    N_PATHS = 40_000

    def _terminal_values(self, kernel, seed=42):
        kbar = cell_average_matrix(kernel, GRID)
        dw = noise_matrix(GRID, seed, range(self.N_PATHS), channel=0)
        dwt = noise_matrix(GRID, seed, range(self.N_PATHS), channel=1)
        return dw @ kbar[-1], dwt @ kbar[-1]

    @pytest.mark.parametrize("kernel", [
        BrownianIdentity(),
        RiemannLiouville(0.25),
        RiemannLiouville(0.75),
        ExponentialOU(1.0, 1.0),
    ], ids=lambda k: k.name)
    def test_terminal_variance_matches_quadrature(self, kernel):
        x, _ = self._terminal_values(kernel)
        expected = covariance(kernel, GRID.horizon, GRID.horizon, GRID)
        band = 3.0 * math.sqrt(2.0 / self.N_PATHS)
        assert abs(np.var(x, ddof=1) / expected - 1.0) <= band

    def test_terminal_cross_covariance_matches_quadrature(self):
        kernel = RiemannLiouville(0.75)
        kbar = cell_average_matrix(kernel, GRID)
        dw = noise_matrix(GRID, 42, range(self.N_PATHS), channel=0)
        t, s = GRID.node(8), GRID.node(16)
        xs = dw @ kbar[[8, 16]].T
        sample = np.cov(xs[:, 0], xs[:, 1], ddof=1)[0, 1]
        expected = covariance(kernel, t, s, GRID)
        spread = math.sqrt(
            (covariance(kernel, t, t, GRID) * covariance(kernel, s, s, GRID)
             + expected**2) / self.N_PATHS)
        assert abs(sample - expected) <= 3.0 * spread

    def test_hidden_and_twin_uncorrelated(self):
        x, xt = self._terminal_values(RiemannLiouville(0.75))
        corr = np.corrcoef(x, xt)[0, 1]
        assert abs(corr) <= 3.0 / math.sqrt(self.N_PATHS)

    def test_observed_variance_inflated_by_noise(self):
        kernel = BrownianIdentity()
        x, xt = self._terminal_values(kernel)
        observed = x + 2.0 * xt
        expected = (1.0 + 4.0) * covariance(kernel, 1.0, 1.0, GRID)
        assert np.var(observed, ddof=1) == pytest.approx(expected, rel=0.02)


class TestNoisePass:
    """The shared batch loop against one unbatched draw."""

    N_PATHS = 10_000  # crosses the batch boundary
    RTOL = 1e-12  # float64 sums of 1e4 terms in another order: ~1e-14 expected

    @staticmethod
    def _squares(dw, dwt):
        return np.hstack((dw, dwt)) ** 2

    def _assert_close(self, got, expected):
        assert np.max(np.abs(got - expected)) <= self.RTOL * np.max(np.abs(expected))

    def _unbatched(self):
        rows = range(self.N_PATHS)
        return noise_matrix(GRID, 42, rows, channel=0), noise_matrix(GRID, 42, rows, channel=1)

    def test_matches_unbatched_reference(self):
        assert BATCH_PATHS < self.N_PATHS
        mse = squared_errors(RiemannLiouville(0.75), [(1.0, 0.5), (0.5, 2.0)], GRID)
        moments = noise_pass(GRID, 42, self.N_PATHS, [self._squares, mse])
        dw, dwt = self._unbatched()
        for features, summary in zip((self._squares, mse), moments):
            reference = features(dw, dwt)
            assert summary.count == self.N_PATHS
            self._assert_close(summary.mean, reference.mean(axis=0))
            self._assert_close(summary.covariance(), np.cov(reference, rowvar=False))

    def test_merge_of_halves_equals_one_pass(self):
        samples = self._squares(*self._unbatched())
        whole = Moments.of(samples)
        halves = Moments.of(samples[:3_000]).merge(Moments.of(samples[3_000:]))
        assert halves.count == whole.count
        self._assert_close(halves.mean, whole.mean)
        self._assert_close(halves.comoment, whole.comoment)

    def test_verify_draws_each_path_once(self, monkeypatch):
        drawn = Counter()
        original = simulate.noise_matrix

        def counting(grid, seed, path_indices, channel):
            path_indices = list(path_indices)
            drawn.update((grid.cells, seed, channel, p) for p in path_indices)
            return original(grid, seed, path_indices, channel)

        monkeypatch.setattr(simulate, "noise_matrix", counting)
        run_checks(BrownianIdentity(), GRID, None, [0.5, 1.0, 2.0], 500, 42)
        assert drawn == Counter({(GRID.cells, 42, channel, p): 1
                                 for channel in (0, 1) for p in range(500)})
