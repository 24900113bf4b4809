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
    draw_noise,
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

    def test_stream_is_pinned(self):
        # Literal values of one stream: a numpy change that moves Philox's
        # output, or the layout of its state that re-keying writes, fails here.
        noise = draw_noise(TimeGrid(1.0, 4), seed=42, path_index=3)
        assert noise.driving.tolist() == [
            -0.4096446841333315, 0.58542126002037, 0.11114722062764625, -0.13971225615837865]
        assert noise.disturbing.tolist() == [
            -0.1742649759991289, 0.13123404893046312, 0.07216200043276334, 0.38639946152652743]

    @pytest.mark.parametrize("seed", [0, 42, 2**64 - 1])
    def test_rows_match_one_philox_per_stream(self, seed):
        # Unsorted, across the block edge; re-keying must not depend on order.
        # Five normals leave three words of a four-word Philox block in the
        # buffer, so a row that read its predecessor's leftovers fails too.
        grid = TimeGrid(1.0, 5)
        paths = [8192, 3, 8191, 0, 123456]
        for channel in (0, 1):
            block = noise_matrix(grid, seed, paths, channel)
            for row, p in zip(block, paths):
                key = np.array([seed, p << 1 | channel], dtype=np.uint64)
                normals = np.random.Generator(np.random.Philox(key=key)).standard_normal(grid.cells)
                assert np.array_equal(row, normals * np.sqrt(grid.delta))

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


def _path(kernel, increments, grid):
    """The discretized Wiener integral: the kernel's cell averages applied to increments."""
    return cell_average_matrix(kernel, grid) @ increments


class TestBuildPath:
    def test_brownian_partial_sums(self):
        grid = TimeGrid(horizon=1.0, cells=2)
        path = _path(BrownianIdentity(), np.array([0.5, -0.2]), grid)
        assert path == pytest.approx([0.0, 0.5, 0.3])

    def test_zero_increments_zero_path(self):
        path = _path(RiemannLiouville(0.75), np.zeros(GRID.cells), GRID)
        assert np.all(path == 0.0)

    def test_unit_increment_reads_off_cell_average(self):
        grid = TimeGrid(horizon=1.0, cells=4)
        kernel = RiemannLiouville(0.75)
        increments = np.zeros(4)
        increments[0] = 1.0
        path = _path(kernel, increments, grid)
        # average over [0, 1/4] of (1 - s)^(1/4) / Gamma(5/4)
        expected = (1.0 - 0.75**1.25) / (1.25 * math.gamma(1.25)) / grid.delta
        assert path[4] == pytest.approx(expected, rel=1e-14)


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
        kernel = BrownianIdentity()
        observed = _path(kernel, mix(noise, MixParams(1.0, 0.0)), GRID)
        assert np.array_equal(observed, _path(kernel, noise.driving, GRID))

    def test_brownian_sum_of_channels(self):
        noise = draw_noise(GRID, 42, 4)
        observed = _path(BrownianIdentity(), mix(noise, MixParams(1.0, 1.0)), GRID)
        total = np.sum(noise.driving) + np.sum(noise.disturbing)
        assert observed[-1] == pytest.approx(total, rel=1e-12)

    def test_bundle_invariants(self):
        noise = draw_noise(GRID, 42, 5)
        params = MixParams(0.6, 0.8)
        kernel = RiemannLiouville(0.75)
        hidden = _path(kernel, noise.driving, GRID)
        twin = _path(kernel, noise.disturbing, GRID)
        mixed = mix(noise, params)
        observed = _path(kernel, mixed, GRID)
        assert hidden[0] == 0.0
        assert twin[0] == 0.0
        assert observed[0] == 0.0
        assert np.allclose(mixed, 0.6 * noise.driving + 0.8 * noise.disturbing, rtol=1e-15)
        assert np.allclose(observed, 0.6 * hidden + 0.8 * twin, rtol=1e-15)


class TestPathMoments:
    N_PATHS = 40_000

    def _terminal_values(self, kbar, seed=42):
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
        kbar = cell_average_matrix(kernel, GRID)
        x, _ = self._terminal_values(kbar)
        expected = covariance(kbar, GRID.horizon, GRID.horizon, GRID)
        band = 3.0 * math.sqrt(2.0 / self.N_PATHS)
        assert abs(np.var(x, ddof=1) / expected - 1.0) <= band

    def test_terminal_cross_covariance_matches_quadrature(self):
        kbar = cell_average_matrix(RiemannLiouville(0.75), GRID)
        dw = noise_matrix(GRID, 42, range(self.N_PATHS), channel=0)
        t, s = GRID.node(8), GRID.node(16)
        xs = dw @ kbar[[8, 16]].T
        sample = np.cov(xs[:, 0], xs[:, 1], ddof=1)[0, 1]
        expected = covariance(kbar, t, s, GRID)
        spread = math.sqrt(
            (covariance(kbar, t, t, GRID) * covariance(kbar, s, s, GRID)
             + expected**2) / self.N_PATHS)
        assert abs(sample - expected) <= 3.0 * spread

    def test_hidden_and_twin_uncorrelated(self):
        x, xt = self._terminal_values(cell_average_matrix(RiemannLiouville(0.75), GRID))
        corr = np.corrcoef(x, xt)[0, 1]
        assert abs(corr) <= 3.0 / math.sqrt(self.N_PATHS)

    def test_observed_variance_inflated_by_noise(self):
        kbar = cell_average_matrix(BrownianIdentity(), GRID)
        x, xt = self._terminal_values(kbar)
        observed = x + 2.0 * xt
        expected = (1.0 + 4.0) * covariance(kbar, 1.0, 1.0, GRID)
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
        kbar = cell_average_matrix(RiemannLiouville(0.75), GRID)
        mse = squared_errors(kbar, [(1.0, 0.5), (0.5, 2.0)], GRID)
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
