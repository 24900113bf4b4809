"""Kernel, grid, and quadrature tests.

Closed-form cell integrals (entries of the cell-average matrix) are
checked against adaptive quadrature of the pointwise kernel (an
independent route through scipy), and covariance values against
high-precision integrals frozen below.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from volmix.kernels import (
    BrownianIdentity,
    ExponentialOU,
    RiemannLiouville,
    TabulatedKernel,
    TimeGrid,
    cell_average_matrix,
    covariance,
    covariance_matrix,
    psd_defect,
    validate_covariance_matrix,
)

# Frozen 40-digit quadrature values (independent of the library code).
RL75_R11 = 0.81145898519965555          # r(1,1) = 1/(1.5*Gamma(1.25)^2)
RL75_CROSS_HALF = 0.52456490965494018   # integral of k(1,v)^2 over [0, 0.5]
RL75_CELL_LAST = 0.15602490043576271    # integral of k(1,s) over [0.75, 1]
EXP_MINUS_ONE = 0.36787944117144233

ZOO = [
    BrownianIdentity(),
    RiemannLiouville(0.25),
    RiemannLiouville(0.5),
    RiemannLiouville(0.75),
    ExponentialOU(decay=1.0, scale=1.0),
    ExponentialOU(decay=0.0, scale=2.0),
]


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
        with pytest.raises(ValueError):
            grid.index_of(0.1)

    def test_snap_ties_toward_smaller_node(self):
        grid = TimeGrid(horizon=1.0, cells=4)
        index, dist = grid.snap(0.375)  # exactly between nodes 1 and 2
        assert index == 1
        assert dist == pytest.approx(0.125)
        assert grid.snap(0.3)[0] == 1
        assert grid.snap(1.7)[0] == 4  # clamped to the horizon

    def test_validation(self):
        with pytest.raises(ValueError):
            TimeGrid(horizon=0.0, cells=4)
        with pytest.raises(ValueError):
            TimeGrid(horizon=1.0, cells=0)


class TestPointwiseEval:
    def test_brownian_identity_is_one_below_diagonal(self):
        assert BrownianIdentity().eval(2.0, 1.0) == 1.0

    def test_rl_half_reduces_to_identity(self):
        assert RiemannLiouville(0.5).eval(2.0, 1.0) == pytest.approx(1.0, rel=1e-15)

    def test_ou_matches_frozen_exponential(self):
        kernel = ExponentialOU(decay=1.0, scale=1.0)
        assert kernel.eval(1.0, 0.0) == pytest.approx(EXP_MINUS_ONE, rel=1e-15)

    @given(t=st.floats(0.0, 10.0), extra=st.floats(0.0, 10.0))
    @settings(max_examples=200, deadline=None)
    def test_vanishes_at_and_beyond_diagonal(self, t, extra):
        s = t + extra
        for kernel in ZOO:
            assert kernel.eval(t, s) == 0.0

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            RiemannLiouville(0.0)
        with pytest.raises(ValueError):
            RiemannLiouville(1.0)
        with pytest.raises(ValueError):
            ExponentialOU(decay=-0.5)
        with pytest.raises(ValueError):
            ExponentialOU(scale=0.0)


def _cross(averages, t, s, u, grid):
    """Integral of k(t, v) * k(s, v) over [0, min(u, t, s)] from cell-average rows."""
    it, i_s = grid.index_of(t), grid.index_of(s)
    m = min(it, i_s, grid.index_of(u))
    return float(np.dot(averages[it, :m], averages[i_s, :m])) * grid.delta


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
                expected, _ = integrate.quad(lambda s: kernel.eval(t, s), lo, hi,
                                             points=[hi], limit=200)
            assert row[j] == pytest.approx(expected, rel=1e-9, abs=1e-12)


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
        exact, _ = integrate.quad(lambda v: kernel.eval(t, v) * kernel.eval(s, v),
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


class TestCrossIntegral:
    def test_brownian_truncation(self):
        grid = TimeGrid(horizon=4.0, cells=16)
        assert _cross(cell_average_matrix(BrownianIdentity(), grid), 2.0, 3.0, 1.0, grid) == 1.0

    def test_saturates_at_covariance(self):
        grid = TimeGrid(horizon=1.0, cells=32)
        for kernel in ZOO:
            averages = cell_average_matrix(kernel, grid)
            full = covariance(averages, 0.5, 0.75, grid)
            assert _cross(averages, 0.5, 0.75, 0.5, grid) == full
            assert _cross(averages, 0.5, 0.75, 1.0, grid) == full

    def test_rl_frozen_value(self):
        # Integrand is k(1, .)^2 even though u < t; the frozen value is the
        # 40-digit integral over [0, 0.5].
        grid = TimeGrid(1.0, 256)
        got = _cross(cell_average_matrix(RiemannLiouville(0.75), grid), 1.0, 1.0, 0.5, grid)
        assert got == pytest.approx(RL75_CROSS_HALF, rel=1e-5)

    @given(steps=st.lists(st.integers(0, 32), min_size=2, max_size=6))
    @settings(max_examples=50, deadline=None)
    def test_nondecreasing_in_u(self, steps):
        grid = TimeGrid(horizon=1.0, cells=32)
        averages = cell_average_matrix(RiemannLiouville(0.75), grid)
        values = [_cross(averages, 0.75, 1.0, grid.node(i), grid) for i in sorted(steps)]
        assert all(b >= a for a, b in zip(values, values[1:]))


class TestCovarianceMatrix:
    @pytest.mark.parametrize("kernel", ZOO, ids=lambda k: k.name)
    def test_symmetric_and_psd(self, kernel):
        grid = TimeGrid(horizon=1.0, cells=48)
        matrix = covariance_matrix(cell_average_matrix(kernel, grid), grid)
        validate_covariance_matrix(matrix)
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

    def test_psd_defect_detects_negative_eigenvalue(self):
        # A non-finite entry must fail too, although it compares False
        # against every bound.
        for bad in ([[1.0, 2.0], [2.0, 1.0]], [[np.nan]],
                    [[1.0, np.nan], [np.nan, 1.0]], [[np.inf, 0.0], [0.0, 1.0]]):
            bad = np.array(bad)
            assert psd_defect(bad) > 0.1
            with pytest.raises(ValueError):
                validate_covariance_matrix(bad)


class TestTabulated:
    def test_reproduces_source_kernel_exactly(self):
        grid = TimeGrid(horizon=1.0, cells=16)
        source = RiemannLiouville(0.75)
        table = cell_average_matrix(TabulatedKernel.from_kernel(source, grid), grid)
        averages = cell_average_matrix(source, grid)
        assert np.array_equal(table, averages)
        t, s, u = grid.node(10), grid.node(16), grid.node(4)
        assert covariance(table, t, s, grid) == covariance(averages, t, s, grid)
        assert _cross(table, t, s, u, grid) == _cross(averages, t, s, u, grid)

    def test_eval_returns_cell_average(self):
        grid = TimeGrid(horizon=1.0, cells=8)
        table = TabulatedKernel.from_kernel(BrownianIdentity(), grid)
        assert table.eval(grid.node(4), grid.node(2)) == 1.0
        assert table.eval(grid.node(4), grid.node(6)) == 0.0

    def test_off_grid_query_rejected(self):
        grid = TimeGrid(horizon=1.0, cells=8)
        table = TabulatedKernel.from_kernel(BrownianIdentity(), grid)
        with pytest.raises(ValueError, match="off-grid query"):
            table.eval(0.3, 0.1)
        with pytest.raises(ValueError, match="off-grid query"):
            table.eval(0.5, 0.3)
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
