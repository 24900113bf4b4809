"""Kernel, grid, and quadrature tests.

Closed-form cell integrals (entries of the cell-average matrix) are
checked against adaptive quadrature of the pointwise kernel (an
independent route through scipy), and covariance values against
high-precision integrals frozen below.  The library never evaluates a
kernel at a point, so the pointwise formulas live here, in `_pointwise`.
"""

import dataclasses
import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.linalg import toeplitz

from volmix import predict, runner
from volmix.config import MAX_CELLS, parse_config
from volmix.kernels import (
    PSD_RTOL,
    BrownianIdentity,
    ExponentialOU,
    RiemannLiouville,
    TabulatedKernel,
    TimeGrid,
    cell_average_matrix,
    certified_defect,
    covariance,
    covariance_matrix,
    gram_defect_bound,
)
from volmix.predict import conditional_covariance_matrix, observation_weight, prediction_law
from volmix.simulate import MixParams

# Frozen 40-digit quadrature values (independent of the library code).
RL75_R11 = 0.81145898519965555          # r(1,1) = 1/(1.5*Gamma(1.25)^2)
RL75_CROSS_HALF = 0.52456490965494018   # integral of k(1,v)^2 over [0, 0.5]
RL75_CELL_LAST = 0.15602490043576271    # integral of k(1,s) over [0.75, 1]

ZOO = [
    BrownianIdentity(),
    RiemannLiouville(0.25),
    RiemannLiouville(0.5),
    RiemannLiouville(0.75),
    ExponentialOU(decay=1.0, scale=1.0),
    ExponentialOU(decay=0.0, scale=2.0),
]
LAG_KERNELS = [BrownianIdentity(), RiemannLiouville(0.25), RiemannLiouville(0.75),
               ExponentialOU(decay=1.0, scale=1.0)]


class TestTimeGrid:
    def test_nodes_span_horizon(self):
        grid = TimeGrid(horizon=2.0, cells=10)
        nodes = grid.nodes
        assert nodes[0] == 0.0
        assert nodes[-1] == 2.0
        assert np.all(np.diff(nodes) > 0)
        assert grid.delta == pytest.approx(0.2, rel=1e-15)

    def test_index_of_roundtrip(self):
        grid = TimeGrid(horizon=1.0, cells=100)
        for i in (0, 1, 37, 100):
            assert grid.index_of(grid.node(i)) == i

    def test_index_of_rejects_off_grid(self):
        grid = TimeGrid(horizon=1.0, cells=8)
        for t in (0.1, np.inf, -np.inf, 1e308, -1e308, np.nan):  # t / delta overflows or is nan
            with pytest.raises(ValueError, match="is not a node of"):
                grid.index_of(t)

    def test_snap_ties_toward_smaller_node(self):
        grid = TimeGrid(horizon=1.0, cells=4)
        index, dist = grid.snap(0.375)  # exactly between nodes 1 and 2
        assert index == 1
        assert dist == pytest.approx(0.125)
        assert grid.snap(0.3)[0] == 1
        assert grid.snap(1.7)[0] == 4  # clamped to the horizon
        for t, index in ((1e308, 4), (np.inf, 4), (-1e308, 0), (-np.inf, 0)):  # t/delta = inf
            assert grid.snap(t) == (index, abs(t - grid.node(index)))

    def test_validation(self):
        with pytest.raises(ValueError):
            TimeGrid(horizon=0.0, cells=4)
        with pytest.raises(ValueError):
            TimeGrid(horizon=1.0, cells=0)
        with pytest.raises(ValueError, match="horizon must be > 0 and finite, got inf"):
            TimeGrid(math.inf, 8)
        with pytest.raises(ValueError, match="cells must be an integer >= 1, got True"):
            TimeGrid(1.0, True)
        with pytest.raises(ValueError, match="underflows the cell width"):
            TimeGrid(1e-320, 16)
        for horizon in (10**309, 10**400):  # past the largest float, compared as ints
            with pytest.raises(ValueError, match="horizon must be > 0 and finite, got 1000"):
                TimeGrid(horizon, 8)
        # An int horizon is stored as its float, so the nodes need no int arithmetic.
        assert np.array_equal(TimeGrid(10**20, 8).nodes, TimeGrid(1e20, 8).nodes)
        assert repr(TimeGrid(3, 8)) == "TimeGrid(horizon=3.0, cells=8)"


def _pointwise(kernel, t, s):
    """k(t, s) of a bm, rl or ou kernel, from the formulas in the class docstrings."""
    if s >= t:
        return 0.0
    if kernel.name == "rl":
        return (t - s) ** (kernel.hurst - 0.5) / math.gamma(kernel.hurst + 0.5)
    if kernel.name == "ou":
        return kernel.scale * math.exp(-kernel.decay * (t - s))
    assert kernel.name == "bm"
    return 1.0


def _lag_antiderivatives(kernel):
    """Integrals of k and of k^2 over [0, v] in the lag v, for an rl or a decaying ou kernel."""
    if kernel.name == "rl":
        p, gamma = kernel.hurst + 0.5, math.gamma(kernel.hurst + 0.5)
        return (lambda v: v ** p / (p * gamma),
                lambda v: v ** (2.0 * kernel.hurst) / (2.0 * kernel.hurst * gamma * gamma))
    assert kernel.name == "ou" and kernel.decay > 0.0
    theta, sigma = kernel.decay, kernel.scale
    return (lambda v: -sigma * np.expm1(-theta * v) / theta,
            lambda v: -sigma * sigma * np.expm1(-2.0 * theta * v) / (2.0 * theta))


class TestKernelParameters:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            RiemannLiouville(0.0)
        with pytest.raises(ValueError):
            RiemannLiouville(1.0)
        with pytest.raises(ValueError):
            ExponentialOU(decay=-0.5)
        with pytest.raises(ValueError):
            ExponentialOU(scale=0.0)

    def test_non_finite_node_variances_rejected(self):
        # Every average, 1e160, is finite; its square is not.
        with pytest.raises(ValueError, match="non-finite node variances"):
            cell_average_matrix(ExponentialOU(decay=0.0, scale=1e160), TimeGrid(1.0, 16))


class TestCellIntegrals:
    def test_brownian_cell_is_width(self):
        grid = TimeGrid(horizon=1.0, cells=4)
        assert cell_average_matrix(BrownianIdentity(), grid)[4, 0] * grid.delta == \
            pytest.approx(0.25)

    def test_cells_beyond_t_are_zero(self):
        grid = TimeGrid(horizon=1.0, cells=4)
        for kernel in ZOO:
            assert np.all(cell_average_matrix(kernel, grid)[2, 2:] == 0.0)

    def test_rl_final_cell_frozen_value(self):
        # Near-diagonal cell where pointwise rules degrade.
        grid = TimeGrid(horizon=1.0, cells=4)
        value = cell_average_matrix(RiemannLiouville(0.75), grid)[4, 3] * grid.delta
        assert value == pytest.approx(RL75_CELL_LAST, rel=1e-14)

    def test_ou_decay_past_float_range_is_silent(self):
        # decay * lag overflows to inf at every lag but 0, and exp(-inf) = 0 is
        # exact: only the first lag cell is nonzero, with no overflow warning.
        grid = TimeGrid(horizon=10.0, cells=8)
        averages = cell_average_matrix(ExponentialOU(decay=1e308), grid)
        first_lag = (1.0 / 1e308) / grid.delta
        assert np.array_equal(averages, np.eye(9, 8, k=-1) * first_lag)
        # Every product underflows: a zero trace, and a matrix built exactly zero.
        matrix = covariance_matrix(averages, grid)
        assert not matrix.any()
        assert certified_defect(averages, np.ones(grid.cells), grid.delta, lambda: matrix) == 0.0

    @pytest.mark.parametrize("kernel", ZOO, ids=lambda k: k.name)
    def test_matches_adaptive_quadrature(self, kernel):
        # Independent oracle: adaptive quadrature of the pointwise kernel
        # over each cell, including the singular near-diagonal cell.
        grid = TimeGrid(horizon=1.0, cells=8)
        i = 6
        t = grid.node(i)
        row = cell_average_matrix(kernel, grid)[i] * grid.delta
        for j in range(grid.cells):
            lo, hi = grid.node(j), min(grid.node(j + 1), t)
            expected = 0.0
            if lo < t:
                expected, _ = integrate.quad(lambda s: _pointwise(kernel, t, s), lo, hi,
                                             points=[hi], limit=200)
            assert row[j] == pytest.approx(expected, rel=1e-9, abs=1e-12)


class TestLagView:
    """A lag kernel's K is a read-only Toeplitz view of its `cells` lag averages."""

    @pytest.mark.parametrize("cells", [256, 4096])
    @pytest.mark.parametrize("kernel", LAG_KERNELS, ids=lambda k: k.name)
    def test_view_is_the_toeplitz_matrix(self, kernel, cells):
        grid = TimeGrid(horizon=1.0, cells=cells)
        averages = cell_average_matrix(kernel, grid)
        lags = kernel.lag_integrals(grid) / grid.delta
        expected = toeplitz(np.concatenate(([0.0], lags)), np.zeros(cells))
        assert np.array_equal(averages.view(np.int64), expected.view(np.int64))  # bit for bit
        assert not averages.flags.writeable
        with pytest.raises(ValueError):
            averages[1, 0] = 0.0
        byte_bounds = getattr(np, "byte_bounds", None) or np.lib.array_utils.byte_bounds
        low, high = byte_bounds(averages)
        assert high - low <= 2 * cells * averages.itemsize

    @pytest.mark.parametrize("kernel", LAG_KERNELS, ids=lambda k: k.name)
    def test_covariance_on_the_view_matches_a_copy(self, kernel):
        grid = TimeGrid(horizon=1.0, cells=64)
        view = cell_average_matrix(kernel, grid)
        copy = np.ascontiguousarray(view)
        for t in grid.nodes:
            for s in grid.nodes:
                assert covariance(view, t, s, grid) == covariance(copy, t, s, grid)


class TestCovariance:
    def test_brownian_min_rule(self):
        grid = TimeGrid(horizon=4.0, cells=16)
        assert covariance(cell_average_matrix(BrownianIdentity(), grid), 2.0, 3.0, grid) == 2.0

    def test_zero_time_gives_zero(self):
        grid = TimeGrid(horizon=1.0, cells=8)
        for kernel in ZOO:
            assert covariance(cell_average_matrix(kernel, grid), 0.0, 0.5, grid) == 0.0

    def test_rl_self_covariance_converges_to_frozen_value(self):
        grid = TimeGrid(1.0, 256)
        got = covariance(cell_average_matrix(RiemannLiouville(0.75), grid), 1.0, 1.0, grid)
        assert got == pytest.approx(RL75_R11, rel=5e-5)

    def test_symmetry_is_exact(self):
        grid = TimeGrid(horizon=1.0, cells=64)
        rng = np.random.default_rng(7)
        for kernel in ZOO:
            averages = cell_average_matrix(kernel, grid)
            for _ in range(5):
                i, j = rng.integers(0, grid.cells + 1, size=2)
                t, s = grid.node(int(i)), grid.node(int(j))
                assert covariance(averages, t, s, grid) == covariance(averages, s, t, grid)

    def test_rl_half_matches_brownian(self):
        grid = TimeGrid(horizon=1.0, cells=64)
        rl = cell_average_matrix(RiemannLiouville(0.5), grid)
        bm = cell_average_matrix(BrownianIdentity(), grid)
        for i, j in [(3, 60), (17, 17), (64, 10)]:
            t, s = grid.node(i), grid.node(j)
            assert covariance(rl, t, s, grid) == pytest.approx(
                covariance(bm, t, s, grid), rel=1e-12)

    @pytest.mark.parametrize("kernel,t,s,rtol", [
        (RiemannLiouville(0.25), 0.5, 1.0, 3e-5),
        (RiemannLiouville(0.75), 0.25, 0.75, 1e-5),
        (ExponentialOU(1.0, 1.0), 0.5, 1.0, 1e-5),
    ])
    def test_matches_continuous_integral(self, kernel, t, s, rtol):
        grid = TimeGrid(horizon=1.0, cells=256)
        exact, _ = integrate.quad(lambda v: _pointwise(kernel, t, v) * _pointwise(kernel, s, v),
                                  0.0, min(t, s), limit=200)
        got = covariance(cell_average_matrix(kernel, grid), t, s, grid)
        assert got == pytest.approx(exact, rel=rtol)

    def test_refinement_ladder_monotone(self):
        kernel = RiemannLiouville(0.75)
        errors = []
        for cells in (64, 128, 256, 512):
            grid = TimeGrid(1.0, cells)
            approx = covariance(cell_average_matrix(kernel, grid), 1.0, 1.0, grid)
            errors.append(abs(approx - RL75_R11) / RL75_R11)
        assert all(b < a for a, b in zip(errors, errors[1:]))
        assert errors[-1] <= 1e-3

    @pytest.mark.parametrize("hurst", [0.1, 0.25, 0.75])
    def test_rl_variance_error_falls_like_delta_to_the_2h(self, hurst):
        # r(1, 1) of the cell-averaged process falls short of the continuous
        # 1 / (2H Gamma(H + 1/2)^2) by the summed within-cell variances, which
        # shrink like delta^(2H): each eightfold refinement divides the gap by 8^(2H).
        kernel = RiemannLiouville(hurst)
        exact = 1.0 / (2.0 * hurst * math.gamma(hurst + 0.5) ** 2)
        gaps = []
        for cells in (64, 512, 4096):
            grid = TimeGrid(1.0, cells)
            gaps.append(exact - covariance(cell_average_matrix(kernel, grid), 1.0, 1.0, grid))
        for coarse, fine in zip(gaps, gaps[1:]):
            assert math.log(coarse / fine) == pytest.approx(2.0 * hurst * math.log(8.0),
                                                            rel=0.01)

    @pytest.mark.parametrize("kernel", [RiemannLiouville(0.05), RiemannLiouville(0.25),
                                        RiemannLiouville(0.75), ExponentialOU(1.0, 1.0)],
                             ids=["rl0.05", "rl0.25", "rl0.75", "ou"])
    @pytest.mark.parametrize("horizon,cells", [(1.0, 16), (3.0, 512)])
    def test_projected_plus_within_cell_variance_is_the_closed_form(self, kernel, horizon,
                                                                    cells):
        # The cell average is the L^2 projection of k(t, .) onto the cell indicators,
        # so r(t, t) = delta ||K_t||^2 + the within-cell variances summed over the lag
        # cells, (integral of k^2) - (integral of k)^2 / delta, both integrals from
        # the antiderivatives below.  A lag integral, here or in the library's K, is a
        # difference of antiderivative values within u of exact: at lag cell d its
        # square is within 4 d u / p (p = H + 1/2 >= 0.55 for rl, 1 for ou), which
        # over the cells' shares of r(t, t) is 4 n u / p on each side.  The second
        # antiderivative's differences add 3 n u, the two sums 2 n u: to first order
        # (8 / p + 5) n u <= 20 n u of r(t, t) in all.
        first, second = _lag_antiderivatives(kernel)
        grid = TimeGrid(horizon, cells)
        lag_integrals = np.diff(first(grid.nodes))
        within = np.diff(second(grid.nodes)) - lag_integrals * lag_integrals / grid.delta
        projected = np.diag(covariance_matrix(cell_average_matrix(kernel, grid), grid))
        closed = second(grid.nodes)
        summed = projected + np.concatenate(([0.0], np.cumsum(within)))
        assert np.all(np.abs(summed - closed) <= 24 * cells * 2.0 ** -53 * closed)


class TestCrossIntegral:
    """The integral of k(t, v) k(s, v) over [0, min(u, t, s)]: `covariance` on columns below u."""

    def test_brownian_truncation(self):
        grid = TimeGrid(horizon=4.0, cells=16)
        averages = cell_average_matrix(BrownianIdentity(), grid)
        assert covariance(averages[:, :grid.index_of(1.0)], 2.0, 3.0, grid) == 1.0

    def test_saturates_at_covariance(self):
        grid = TimeGrid(horizon=1.0, cells=32)
        for kernel in ZOO:
            averages = cell_average_matrix(kernel, grid)
            full = covariance(averages, 0.5, 0.75, grid)
            for u in (0.5, 1.0):
                assert covariance(averages[:, :grid.index_of(u)], 0.5, 0.75, grid) == full

    def test_rl_frozen_value(self):
        # Integrand is k(1, .)^2 even though u < t; the frozen value is the
        # 40-digit integral over [0, 0.5].
        grid = TimeGrid(1.0, 256)
        averages = cell_average_matrix(RiemannLiouville(0.75), grid)
        got = covariance(averages[:, :grid.index_of(0.5)], 1.0, 1.0, grid)
        assert got == pytest.approx(RL75_CROSS_HALF, rel=1e-5)

    @given(steps=st.lists(st.integers(0, 32), min_size=2, max_size=6))
    @settings(max_examples=50, deadline=None)
    def test_nondecreasing_in_u(self, steps):
        grid = TimeGrid(horizon=1.0, cells=32)
        averages = cell_average_matrix(RiemannLiouville(0.75), grid)
        values = [covariance(averages[:, :i], 0.75, 1.0, grid) for i in sorted(steps)]
        assert all(b >= a for a, b in zip(values, values[1:]))


class TestCovarianceMatrix:
    @pytest.mark.parametrize("kernel", ZOO, ids=lambda k: k.name)
    def test_symmetric_and_psd(self, kernel):
        grid = TimeGrid(horizon=1.0, cells=48)
        averages = cell_average_matrix(kernel, grid)
        matrix = covariance_matrix(averages, grid)
        assert np.array_equal(matrix, matrix.T)
        assert certified_defect(averages, np.ones(grid.cells), grid.delta, _refuse) == 0.0
        trace = np.trace(matrix)
        assert np.linalg.eigvalsh(matrix)[0] >= -1e-10 * trace

    def test_matches_scalar_quadrature(self):
        grid = TimeGrid(horizon=1.0, cells=16)
        averages = cell_average_matrix(RiemannLiouville(0.75), grid)
        matrix = covariance_matrix(averages, grid)
        for i in (0, 3, 9, 16):
            for j in (1, 8, 16):
                scalar = covariance(averages, grid.node(i), grid.node(j), grid)
                assert matrix[i, j] == pytest.approx(scalar, rel=1e-13, abs=1e-15)

    def test_validation_scans_for_non_finite_entries_once(self, monkeypatch, tmp_path):
        # The certificate reads the cell averages, not the matrix: finiteness and
        # exact symmetry of what is written are two scans of their own.
        grid = TimeGrid(horizon=1.0, cells=48)
        params = MixParams(1.0, 1.0)
        increments = np.zeros(grid.cells)
        full_size = []
        original = np.isfinite

        def spy(x, *args, **kwargs):
            full_size.append(np.size(x) == (grid.cells + 1) ** 2)
            return original(x, *args, **kwargs)

        monkeypatch.setattr(np, "isfinite", spy)
        prediction_law(BrownianIdentity(), params, increments, 0.5, grid)
        assert sum(full_size) == 1
        monkeypatch.undo()
        cfg = parse_config("covariance", overrides={"cells": "48", "out": str(tmp_path)})

        def corrupt(build, entry, mirror, *args):
            matrix = build(*args)
            matrix[3, 5], matrix[5, 3] = entry, mirror
            return matrix

        for entry, mirror, reason in ((np.inf, np.inf, "an entry is not finite"),
                                      (1.0, 0.0, "it is not exactly symmetric")):
            monkeypatch.setattr(predict, "conditional_covariance_matrix",
                                partial(corrupt, conditional_covariance_matrix, entry, mirror))
            monkeypatch.setattr(runner, "covariance_matrix",
                                partial(corrupt, covariance_matrix, entry, mirror))
            refused = f"^the covariance cannot be certified: {reason}$"
            with pytest.raises(ValueError, match=refused):
                prediction_law(BrownianIdentity(), params, increments, 0.5, grid)
            with pytest.raises(ValueError, match=refused):
                runner._run_covariance(cfg)
            assert not (tmp_path / "cov.csv").exists()


def _refuse(*args, **kwargs):
    raise AssertionError("factorised or built")


def _largest_grid_weights(grid):
    """All-ones weights and the weights of an observation at mid-horizon."""
    observed = observation_weight(MixParams(1.0, 1.0), grid.node(grid.cells // 2), grid)
    return np.ones(grid.cells), observed


class TestCertifiedDefect:
    """No output needs a Cholesky factor, an eigenvalue or, where the
    certificate holds, its own matrix: `certified_defect` decides from the
    cell averages and weights alone, and reads inf where a premise fails."""

    @pytest.mark.parametrize(
        ("kernel", "cells"), [*((kernel, 48) for kernel in ZOO), (BrownianIdentity(), 1024)],
        ids=lambda v: str(getattr(v, "name", v)))
    def test_outputs_need_no_eigenvalues(self, kernel, cells, monkeypatch, tmp_path):
        monkeypatch.setattr(np.linalg, "cholesky", _refuse)
        monkeypatch.setattr(np.linalg, "eigvalsh", _refuse)
        grid = TimeGrid(horizon=1.0, cells=cells)
        averages = cell_average_matrix(kernel, grid)
        u = grid.node(cells // 2)
        weights = [np.ones(cells), *(observation_weight(MixParams(a, b), u, grid)
                                     for a, b in ((1.0, 1.0), (0.6, 0.8), (1.0, 0.0)))]
        for weight in weights:
            assert certified_defect(averages, weight, grid.delta, _refuse) == 0.0
        params = MixParams(0.6, 0.8)
        law = prediction_law(kernel, params, np.ones(cells), u, grid)
        assert law.cov.shape == (cells + 1, cells + 1)
        cfg = parse_config("covariance", overrides={"cells": str(cells), "out": str(tmp_path)})
        assert runner._run_covariance(dataclasses.replace(cfg, kernel=kernel)) == 0
        with open(tmp_path / "cov.csv", "rb") as handle:
            assert sum(1 for _ in handle) == 1 + (cells + 1) ** 2

    def test_largest_grid_needs_no_eigenvalues(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "cholesky", _refuse)
        monkeypatch.setattr(np.linalg, "eigvalsh", _refuse)
        grid = TimeGrid(horizon=1.0, cells=MAX_CELLS)
        averages = cell_average_matrix(BrownianIdentity(), grid)
        for weight in _largest_grid_weights(grid):
            assert certified_defect(averages, weight, grid.delta, _refuse) == 0.0

    def test_zero_row_or_column_alone_is_no_shortcut(self):
        # At a zero trace only a matrix built exactly zero is certified: one
        # entry left in either triangle reads inf.
        averages = np.zeros((2, 3))
        for matrix in ([[0.0, 1e-300], [0.0, 0.0]], [[0.0, 0.0], [5e-324, 0.0]]):
            matrix = np.array(matrix)
            assert certified_defect(averages, np.ones(3), 1.0, lambda: matrix) == math.inf
        assert certified_defect(averages, np.ones(3), 1.0, lambda: np.zeros((2, 2))) == 0.0

    def test_empty_matrix_reads_zero(self):
        empty = np.zeros((0, 4))
        assert certified_defect(empty, np.ones(4), 1.0, lambda: np.zeros((0, 0))) == 0.0


class TestGramCertificate:
    """`gram_defect_bound` certifies the products the library builds, and is
    an honest bound on their defect read from the eigenvalues."""

    @pytest.mark.parametrize("cells", [48, 256])
    @pytest.mark.parametrize("kernel", ZOO, ids=lambda k: k.name)
    def test_zoo_is_certified_and_bound_holds(self, kernel, cells):
        grid = TimeGrid(horizon=1.0, cells=cells)
        averages = cell_average_matrix(kernel, grid)
        u = grid.node(cells // 2)
        cases = [(np.ones(cells), covariance_matrix(averages, grid))]
        for a, b in ((1.0, 1.0), (0.6, 0.8), (1.0, 0.0), (0.0, 1.0)):
            params = MixParams(a, b)
            cases.append((observation_weight(params, u, grid),
                          conditional_covariance_matrix(averages, params, u, grid)))
        for weight, matrix in cases:
            bound = gram_defect_bound(averages, weight, grid.delta)
            assert bound <= PSD_RTOL
            assert -float(np.linalg.eigvalsh(matrix)[0]) / float(np.trace(matrix)) <= bound

    def test_failed_premise_gives_inf(self):
        grid = TimeGrid(horizon=1.0, cells=16)
        averages = cell_average_matrix(BrownianIdentity(), grid)
        ones = np.ones(grid.cells)
        negative = ones.copy()
        negative[3] = -1e-300
        assert gram_defect_bound(averages, negative, grid.delta) == math.inf
        assert gram_defect_bound(averages, np.full(grid.cells, np.nan), grid.delta) == math.inf
        # A zero trace: the defect over it is 0 / 0.
        assert math.isnan(gram_defect_bound(np.zeros_like(averages), ones, grid.delta))
        for bad in (np.inf, np.nan):
            broken = averages.copy()
            broken[-1, 0] = bad
            assert gram_defect_bound(broken, ones, grid.delta) == math.inf
            zero_weight = ones.copy()
            zero_weight[0] = 0.0  # 0 * inf is nan: a zero weight hides nothing
            assert gram_defect_bound(broken, zero_weight, grid.delta) == math.inf
            assert certified_defect(broken, zero_weight, grid.delta, _refuse) == math.inf
        assert certified_defect(averages, negative, grid.delta, _refuse) == math.inf

    def test_zero_weight_or_kernel_builds_zero_and_reads_zero(self):
        grid = TimeGrid(horizon=1.0, cells=16)
        averages = cell_average_matrix(BrownianIdentity(), grid)
        noise_free = MixParams(1.0, 0.0)
        weight = observation_weight(noise_free, grid.horizon, grid)
        assert not weight.any()
        built = conditional_covariance_matrix(averages, noise_free, grid.horizon, grid)
        assert certified_defect(averages, weight, grid.delta, lambda: built) == 0.0
        zero = np.zeros_like(averages)
        assert certified_defect(zero, np.ones(grid.cells), grid.delta,
                                lambda: covariance_matrix(zero, grid)) == 0.0

    def test_subnormal_trace_reads_inf(self):
        # Entries of 1e-161 square to subnormals: the trace is positive but
        # too small for the rounding bound, and no matrix is built.
        grid = TimeGrid(horizon=1.0, cells=16)
        averages = 1e-161 * cell_average_matrix(BrownianIdentity(), grid)
        ones = np.ones(grid.cells)
        trace = grid.delta * float(np.sum(averages * averages))
        assert 0.0 < trace < np.finfo(float).tiny
        assert gram_defect_bound(averages, ones, grid.delta) > PSD_RTOL
        assert certified_defect(averages, ones, grid.delta, _refuse) == math.inf

    def test_bound_at_largest_grid(self):
        # 2 gamma_{n+3} is about 9.1e-13 at n = 4096, over a hundred times
        # below the tolerance, with every weight 1 or some observed.
        grid = TimeGrid(horizon=1.0, cells=MAX_CELLS)
        averages = cell_average_matrix(BrownianIdentity(), grid)
        for weight in _largest_grid_weights(grid):
            assert 9e-13 < gram_defect_bound(averages, weight, grid.delta) < 1e-2 * PSD_RTOL


class TestTabulated:
    def test_reproduces_source_kernel_exactly(self):
        grid = TimeGrid(horizon=1.0, cells=16)
        source = RiemannLiouville(0.75)
        averages = cell_average_matrix(source, grid)
        table = cell_average_matrix(TabulatedKernel(averages, grid), grid)
        assert np.array_equal(table, averages)
        t, s = grid.node(10), grid.node(16)
        assert covariance(table, t, s, grid) == covariance(averages, t, s, grid)
        assert covariance(table[:, :4], t, s, grid) == covariance(averages[:, :4], t, s, grid)

    def test_off_grid_query_rejected(self):
        grid = TimeGrid(horizon=1.0, cells=8)
        table = TabulatedKernel(cell_average_matrix(BrownianIdentity(), grid), grid)
        with pytest.raises(ValueError, match="off-grid query"):
            cell_average_matrix(table, TimeGrid(horizon=1.0, cells=16))

    def test_rejects_upper_triangular_garbage(self):
        grid = TimeGrid(horizon=1.0, cells=4)
        values = np.ones((5, 4))
        with pytest.raises(ValueError):
            TabulatedKernel(values, grid)

    def test_rejects_non_finite(self):
        grid = TimeGrid(horizon=1.0, cells=4)
        values = np.zeros((5, 4))
        values[4, 0] = np.inf
        with pytest.raises(ValueError):
            TabulatedKernel(values, grid)
        # Each square, 1e308, is finite; their sum in row 8 is not.
        grid = TimeGrid(horizon=1.0, cells=8)
        values = np.zeros((9, 8))
        values[8] = 1e154
        with pytest.raises(ValueError, match="non-finite node variances"):
            TabulatedKernel(values, grid)

    def test_table_is_a_read_only_copy(self):
        # Changing the source after construction would bypass every check.
        grid = TimeGrid(horizon=1.0, cells=8)
        source = cell_average_matrix(BrownianIdentity(), grid)
        values = np.array(source)
        kernel = TabulatedKernel(values, grid)
        values[0, 5], values[2, 0] = 7.0, np.inf
        averages = cell_average_matrix(kernel, grid)
        assert np.array_equal(averages, source)
        assert covariance_matrix(averages, grid)[0, 0] == 0.0
        with pytest.raises(ValueError):
            averages[2, 0] = np.inf


def test_square_integrability_proxy_is_finite_everywhere():
    # The second grid is not dyadic, so node differences round row by row.
    for grid in (TimeGrid(horizon=1.0, cells=64), TimeGrid(horizon=2.5, cells=300)):
        for kernel in ZOO:
            matrix = cell_average_matrix(kernel, grid)
            assert np.all(np.isfinite(matrix))
            # strict lower-triangularity in the cell index
            assert np.all(np.triu(matrix) == 0.0)
            # lag kernels: exactly Toeplitz, one lag vector down every diagonal
            assert np.array_equal(matrix[1:, 1:], matrix[:-1, :-1])
