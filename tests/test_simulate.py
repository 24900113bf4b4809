"""Noise generation and path construction tests.

Monte Carlo oracles run at fixed seeds; tolerances follow the usual
central-limit bands for the sample sizes used.
"""

import dataclasses
import math
import threading
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
from volmix.mse import study, variance_reduction_report
from volmix.simulate import (
    BATCH_PATHS,
    BLOCK_ELEMENTS,
    MixParams,
    Moments,
    draw_noise,
    mix,
    noise_matrix,
    noise_pass,
)
from volmix.verify import MONTE_CARLO_KERNELS, _check_residuals, run_checks

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
        with pytest.raises(ValueError, match=r"^channel must be 0 \(driver\) or 1 "
                                             r"\(disturbance\), got 2$"):
            noise_matrix(GRID, 42, range(5, 9), channel=2)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_stream_keys_refused(self, seed):
        with pytest.raises(ValueError, match=rf"^seed must lie in \[0, 2\*\*64\), got {seed}$"):
            draw_noise(GRID, seed, 0)

    def test_stream_is_pinned(self):
        # Literal values of one stream: a numpy change that moves Philox's
        # output, or a change of how paths map onto block streams, fails here.
        noise = draw_noise(TimeGrid(1.0, 4), seed=42, path_index=3)
        assert noise.driving.tolist() == [
            0.2144125152894849, -0.6505084556725208, -0.30375099228437946, -1.1961216326545474]
        assert noise.disturbing.tolist() == [
            -0.12955822996450844, 0.21564432046328885, -1.2159563897243584, -0.4658094249244287]

    @pytest.mark.parametrize("seed", [0, 42, 2**64 - 1])
    def test_rows_match_one_philox_per_stream(self, seed):
        # Unsorted, across the block edge, in three blocks: each row is the
        # last of its block stream's prefix, whatever the order asked for.
        # Rows of five normals mostly start inside a four-word Philox block,
        # so a row read off a misaligned prefix fails too.
        grid = TimeGrid(1.0, 5)
        step = min(BATCH_PATHS, BLOCK_ELEMENTS // grid.cells)
        paths = [8192, 3, 8191, 0, 123456]
        for channel in (0, 1):
            block = noise_matrix(grid, seed, paths, channel)
            for row, p in zip(block, paths):
                key = np.array([seed, (p // step) << 1 | channel], dtype=np.uint64)
                prefix = np.random.Generator(np.random.Philox(key=key)).standard_normal(
                    (p % step + 1, grid.cells))
                assert np.array_equal(row, prefix[-1] * np.sqrt(grid.delta))

    def test_adjacent_blocks_and_channels_independent(self):
        # A key that ignored the block would repeat block 0 in block 1; one
        # that ignored the channel would repeat the driver in the disturbance.
        grid = TimeGrid(1.0, 256)
        step = BLOCK_ELEMENTS // grid.cells
        dw = noise_matrix(grid, 42, range(2 * step), channel=0)
        dwt = noise_matrix(grid, 42, range(2 * step), channel=1)
        pairs = [(dw[:step], dw[step:]), (dwt[:step], dwt[step:]), (dw[:step], dwt[:step])]
        for x, y in pairs:
            assert not np.any(x == y)
            corr = np.corrcoef(x.ravel(), y.ravel())[0, 1]
            assert abs(corr) <= 3.0 / math.sqrt(x.size)

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

    def _unbatched(self, grid=GRID, n_paths=N_PATHS):
        rows = range(n_paths)
        return noise_matrix(grid, 42, rows, channel=0), noise_matrix(grid, 42, rows, channel=1)

    def test_matches_unbatched_reference(self):
        assert BATCH_PATHS < self.N_PATHS
        kbar = cell_average_matrix(RiemannLiouville(0.75), GRID)
        mse, _ = study(kbar, [(1.0, 0.5), (0.5, 2.0)], GRID)
        moments = noise_pass(GRID, 42, self.N_PATHS, [self._squares, mse])
        dw, dwt = self._unbatched()
        for features, summary in zip((self._squares, mse), moments):
            reference = features(dw, dwt)
            assert summary.count == self.N_PATHS
            self._assert_close(summary.mean, reference.mean(axis=0))
            self._assert_close(summary.covariance(), np.cov(reference, rowvar=False))

    def test_merge_of_halves_equals_one_pass(self):
        samples = self._squares(*self._unbatched())
        whole = Moments.of(samples.copy())  # `of` centres its input in place
        halves = Moments.of(samples[:3_000]).merge(Moments.of(samples[3_000:]))
        assert halves.count == whole.count
        self._assert_close(halves.mean, whole.mean)
        self._assert_close(halves.comoment, whole.comoment)

    def test_matches_unbatched_reference_in_narrow_blocks(self):
        # At 1024 cells a block holds 256 paths, so 2,500 paths merge ten
        # blocks; the residual map keeps only its 20 lead columns' co-moments.
        grid, n_paths = TimeGrid(horizon=1.0, cells=1024), 2_500
        mse, _ = study(cell_average_matrix(RiemannLiouville(0.75), grid), [(1.0, 0.5)], grid)
        residuals, _ = _check_residuals(grid)
        moments = noise_pass(grid, 42, n_paths, [mse, residuals])
        dw, dwt = self._unbatched(grid, n_paths)
        for features, summary in zip((mse, residuals), moments):
            reference = features(dw, dwt)
            full = np.cov(reference, rowvar=False)
            assert summary.count == n_paths
            self._assert_close(summary.mean, reference.mean(axis=0))
            self._assert_close(summary.covariance(), full[:len(summary.comoment)])
            self._assert_close(summary.squares / (n_paths - 1), np.diag(full))
        assert moments[1].comoment.shape == (residuals.lead, residuals.lead + grid.cells // 2)

    def test_partial_comoment_matches_full(self):
        samples = np.random.default_rng(3).normal(size=(3_000, 40)) * np.arange(1, 41)
        centred = samples - samples.mean(axis=0)
        full = centred.T @ centred
        lead = 6
        one = Moments.of(samples.copy(), lead)
        halves = Moments.of(samples[:1_000].copy(), lead).merge(
            Moments.of(samples[1_000:].copy(), lead))
        for summary in (one, halves):
            assert summary.comoment.shape == (lead, 40)
            assert np.all(np.abs(summary.comoment - full[:lead])
                          <= 1e-12 * np.abs(full[:lead]).max())
            assert np.all(np.abs(summary.squares - np.diag(full)) <= 1e-12 * np.diag(full))
            assert np.array_equal(summary.squares[:lead], np.diag(summary.comoment[:, :lead]))
        self._assert_close(halves.mean, one.mean)

    @pytest.mark.parametrize("cells, rows", [(32, 8192), (33, 7943), (256, 1024),
                                             (1024, 256), (4096, 64)])
    def test_blocks_capped_by_element_budget(self, monkeypatch, cells, rows):
        sizes = []
        original = simulate.noise_matrix

        def counting(grid, seed, path_indices, channel, out=None):
            path_indices = list(path_indices)
            sizes.append(len(path_indices))
            return original(grid, seed, path_indices, channel, out)

        monkeypatch.setattr(simulate, "noise_matrix", counting)
        noise_pass(TimeGrid(horizon=1.0, cells=cells), 42, rows + 1,
                   [lambda dw, dwt: dw[:, :2] + dwt[:, :2]])
        assert sizes == [rows, rows, 1, 1]

    def test_reused_buffer_holds_each_block_afresh(self):
        # 2,500 paths at 256 cells end in a partial block of 452 paths: a
        # row left over from the block before it, in either channel, fails.
        grid, n_paths = TimeGrid(horizon=1.0, cells=256), 2_500
        seen = []

        def record(dw, dwt):
            seen.append(np.stack((dw, dwt)))
            return dw[:, :1] + dwt[:, :1]

        expected = [noise_matrix(grid, 42, range(n_paths), channel) for channel in (0, 1)]
        noise_pass(grid, 42, n_paths, [record])
        assert [block.shape[1] for block in seen] == [1024, 1024, 452]
        drawn = np.concatenate(seen, axis=1)
        for channel in (0, 1):
            assert np.array_equal(drawn[channel], expected[channel])

    @pytest.mark.parametrize("feature", [lambda dw, dwt: dw, lambda dw, dwt: dwt[:, 1:3]],
                             ids=["input", "view"])
    def test_feature_map_must_own_its_array(self, feature):
        with pytest.raises(ValueError, match="array it owns"):
            noise_pass(GRID, 42, 10, [feature])

    def test_verify_draws_each_path_once(self, monkeypatch):
        drawn = Counter()
        original = simulate.noise_matrix

        def counting(grid, seed, path_indices, channel, out=None):
            path_indices = list(path_indices)
            drawn.update((grid.cells, seed, channel, p) for p in path_indices)
            return original(grid, seed, path_indices, channel, out)

        monkeypatch.setattr(simulate, "noise_matrix", counting)
        run_checks(BrownianIdentity(), GRID, MixParams(1.0, 1.0), [0.5, 1.0, 2.0], 500, 42)
        assert drawn == Counter({(GRID.cells, 42, channel, p): 1
                                 for channel in (0, 1) for p in range(500)})

    def test_threaded_draw_matches_serial(self, monkeypatch):
        # 2,500 paths at 256 cells end in a partial block of 452 paths.  The
        # reference draws both channels on the calling thread, one after the other.
        grid, n_paths, kernel = TimeGrid(horizon=1.0, cells=256), 2_500, BrownianIdentity()
        mse, _ = study(cell_average_matrix(RiemannLiouville(0.75), grid), [(1.0, 0.5)], grid)
        residuals, _ = _check_residuals(grid)
        drawers = set()

        def recording(grid, seed, path_indices, channel, out=None):
            drawers.add((channel, threading.current_thread() is threading.main_thread()))
            return noise_matrix(grid, seed, path_indices, channel, out)

        def serial(grid, seed, rows, out):
            noise_matrix(grid, seed, rows, 0, out=out[0])
            noise_matrix(grid, seed, rows, 1, out=out[1])
            return out

        def run():
            return (run_checks(kernel, grid, MixParams(1.0, 1.0), [0.5, 1.0, 2.0], n_paths, 42),
                    variance_reduction_report(kernel, [0.5, 2.0], [0.5, 1.0], n_paths, 42, grid),
                    noise_pass(grid, 42, n_paths, [mse, residuals]))

        monkeypatch.setattr(simulate, "noise_matrix", recording)
        threaded = run()
        assert drawers == {(0, True), (1, False)}
        monkeypatch.setattr(simulate, "_draw_block", serial)
        one = run()
        assert one[:2] == threaded[:2]
        for a, b in zip(one[2], threaded[2]):
            for field in dataclasses.fields(Moments):
                assert np.array_equal(getattr(a, field.name), getattr(b, field.name))

    @pytest.mark.parametrize("channel", [0, 1])
    def test_failed_draw_reaches_caller_and_leaves_no_thread(self, monkeypatch, channel):
        before = threading.active_count()
        noise_pass(GRID, 42, 10, [self._squares])
        assert threading.active_count() == before
        original = simulate.noise_matrix

        def failing(grid, seed, path_indices, drawn_channel, out=None):
            if drawn_channel == channel:
                raise RuntimeError("boom")
            return original(grid, seed, path_indices, drawn_channel, out)

        monkeypatch.setattr(simulate, "noise_matrix", failing)
        with pytest.raises(RuntimeError, match="^boom$"):
            noise_pass(GRID, 42, 10, [self._squares])
        assert threading.active_count() == before

    def test_residual_features_match_per_combination_loop(self):
        # The reference forms the three products again for each (kernel, channel).
        features, _ = _check_residuals(GRID)
        dw, dwt = np.random.default_rng(5).normal(size=(2, 64, GRID.cells))
        u_index, t_indices = 8, [4, 6, 8, 12, 16]
        columns = []
        for kernel in MONTE_CARLO_KERNELS:
            rows = cell_average_matrix(kernel, GRID)[t_indices]
            for params in (MixParams(1.0, 1.0), MixParams(0.6, 0.8)):
                seen = rows[:, :u_index].T
                weighted = (params.a * (dw[:, :u_index] @ seen)
                            + params.b * (dwt[:, :u_index] @ seen))
                columns.append(dw @ rows.T - params.gain * weighted)
        path = dw[:, :u_index] + dwt[:, :u_index]
        columns.append(np.cumsum(path, axis=1, out=path))
        reference, got = np.hstack(columns), features(dw, dwt)
        scale = got[0] / reference[0]  # each column is scaled by a power of two
        assert np.all(np.frexp(scale)[0] == 0.5)
        assert np.array_equal(got, reference * scale)
