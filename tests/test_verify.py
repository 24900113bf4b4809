"""The verify suite's PSD rows and the memory its checks hold.

The two `*_psd_defect` rows read the verdict of `certified_defect`, a
proof from how their matrices are built: 0.0 when it holds, and inf, a
failed row, when a premise of that proof fails.
"""

import math
import tracemalloc

import numpy as np
import pytest

from volmix import predict, verify
from volmix.kernels import BrownianIdentity, TimeGrid, cell_average_matrix
from volmix.simulate import MixParams
from volmix.verify import (
    _check_closed_vs_direct,
    _check_covariance_psd,
    _check_prediction_psd,
    _check_residuals,
    run_checks,
)

PSD_ROWS = ("covariance_psd_defect", "conditional_covariance_psd_defect")


def _refuse(*args, **kwargs):
    raise AssertionError("factorised")


class TestPsdRows:
    def test_rows_need_no_factorisation(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "cholesky", _refuse)
        monkeypatch.setattr(np.linalg, "eigvalsh", _refuse)
        grid = TimeGrid(horizon=1.0, cells=256)
        checks = run_checks(BrownianIdentity(), grid, MixParams(1.0, 1.0), [0.5, 1.0, 2.0],
                            200, 42)
        rows = {check.name: check for check in checks}
        for name in PSD_ROWS:
            assert rows[name].statistic == 0.0
            assert rows[name].passed

    def test_negative_weight_fails(self, monkeypatch):
        original = predict.observation_weight

        def negative(params, u, grid):
            weight = original(params, u, grid)
            weight[:grid.index_of(u)] = -0.01  # the trace stays positive
            return weight

        monkeypatch.setattr(verify, "observation_weight", negative)
        grid = TimeGrid(horizon=1.0, cells=48)
        averages = cell_average_matrix(BrownianIdentity(), grid)
        check = _check_prediction_psd(grid, averages, MixParams(1.0, 1.0))
        assert check.statistic == math.inf
        assert not check.passed

    def test_infinite_entry_gives_infinite_statistic(self):
        grid = TimeGrid(horizon=1.0, cells=48)
        averages = cell_average_matrix(BrownianIdentity(), grid).copy()  # writable
        averages[-1, 0] = np.inf
        checks = [_check_covariance_psd(grid, averages),
                  _check_prediction_psd(grid, averages, MixParams(1.0, 1.0))]
        for check in checks:
            assert check.statistic == math.inf
            assert not check.passed


@pytest.mark.parametrize("n_paths", [0, 1])
def test_fewer_than_two_paths_refused(n_paths):
    with pytest.raises(ValueError, match=f"^n_paths must be >= 2, got {n_paths}$"):
        run_checks(BrownianIdentity(), TimeGrid(horizon=1.0, cells=16), MixParams(1.0, 1.0),
                   [1.0], n_paths, 42)


def _traced_peak(call):
    """call() and the most memory traced above the start while it ran."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def _full_matrix_bytes(grid):
    return (grid.cells + 1) * grid.cells * np.dtype(float).itemsize


@pytest.mark.parametrize("check", [_check_closed_vs_direct, _check_residuals],
                         ids=lambda f: f.__name__)
def test_zoo_checks_hold_one_matrix_at_a_time(check):
    # The zoo kernels' cell averages are views of their lag averages: the
    # checks copy only the rows they read, never a whole matrix.
    _check_closed_vs_direct(TimeGrid(horizon=1.0, cells=16))  # first-call allocations
    _check_residuals(TimeGrid(horizon=1.0, cells=16))
    grid = TimeGrid(horizon=1.0, cells=512)
    result, peak = _traced_peak(lambda: check(grid))
    assert result is not None
    assert peak < 0.1 * _full_matrix_bytes(grid)


def test_run_checks_holds_one_full_matrix():
    # Every row on the configured kernel shares one contiguous K; no second
    # full-size matrix is built beside it.
    channel, b_values = MixParams(1.0, 1.0), [0.5, 1.0, 2.0]
    run_checks(BrownianIdentity(), TimeGrid(horizon=1.0, cells=16), channel, b_values, 100, 1)
    grid = TimeGrid(horizon=1.0, cells=2048)
    checks, peak = _traced_peak(
        lambda: run_checks(BrownianIdentity(), grid, channel, b_values, 100, 1))
    assert len(checks) > 0
    assert peak < 1.5 * _full_matrix_bytes(grid)


def test_noise_pass_memory_bounded_by_grid():
    # At 1024 cells a noise block holds 256 paths, and the residual
    # check keeps 20 x 532 co-moments, not 532^2.
    channel, b_values = MixParams(1.0, 1.0), [0.5, 1.0, 2.0]
    run_checks(BrownianIdentity(), TimeGrid(horizon=1.0, cells=16), channel, b_values, 200, 1)
    checks, peak = _traced_peak(lambda: run_checks(
        BrownianIdentity(), TimeGrid(horizon=1.0, cells=1024), channel, b_values, 4096, 1))
    assert len(checks) > 0
    assert peak < 16 * 2**20


def test_noise_pass_memory_at_desk_scale():
    # 256 cells and 8192 paths: eight blocks of 1024 paths.  The two channels'
    # blocks take 2 x 2^18 x 8 bytes = 4 MiB.  The widest feature array, the
    # residual map's 148 columns, takes 1.2 MiB a block, and a map holds its
    # parts while it stacks them: under two more 2 MiB blocks.
    block = 2**18 * np.dtype(float).itemsize
    channel, b_values = MixParams(1.0, 1.0), [0.5, 1.0, 2.0]
    run_checks(BrownianIdentity(), TimeGrid(horizon=1.0, cells=16), channel, b_values, 200, 1)
    checks, peak = _traced_peak(lambda: run_checks(
        BrownianIdentity(), TimeGrid(horizon=1.0, cells=256), channel, b_values, 8192, 1))
    assert len(checks) > 0
    assert peak < 2 * block + 2 * block
