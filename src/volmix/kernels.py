"""Volterra kernels, time grids, and the deterministic quadrature built on them.

A Volterra kernel is a two-argument function k(t, s) that vanishes for
s >= t and is square-integrable in s over [0, t].  Feeding Brownian
increments through such a kernel produces a centered Gaussian process
with covariance

    r(t, s) = integral over [0, min(t, s)] of k(t, v) * k(s, v) dv.

Everything here is discretized on a uniform grid.  Integrals are computed
from *exact per-cell integrals* of the kernel (cell averages) rather than
pointwise samples: the fractional kernel with Hurst index below 1/2 blows
up on the diagonal, so left-endpoint rules are useless there while cell
averages stay finite for every kernel in scope.

The cell-average matrix K is the only representation of a kernel: row i
holds the averages of k(t_i, .) over the cells, and no pointwise value
k(t, s) is ever formed.  Every covariance is a delta-weighted inner
product of its rows, and K is read-only.  The bm, rl and ou kernels depend
on t - s alone: K is a Toeplitz view of their `cells` lag-cell averages,
and only the matrix products copy it; a tabulated kernel copies its table.

Outside the kernel classes, `cell_average_matrix` is the only function
here that takes a kernel.  The quadrature functions take K (or some of
its rows) instead, so the caller builds it once, where it can be seen,
and a kernel can never disagree with its matrix.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# A covariance is positive semidefinite within tolerance when its most
# negative eigenvalue is no worse than -PSD_RTOL * trace.  Every matrix the
# library writes or checks is a Gram product delta * (K * w) @ K^T, and
# `certified_defect` proves that bound from how it is built: no product,
# factorisation or eigenvalue of the matrix is needed.
PSD_RTOL = 1e-10
# Unit roundoff and smallest positive (subnormal) float64.
_UNIT_ROUNDOFF = 2.0 ** -53
_ETA = 2.0 ** -1074
_FLOAT_MAX = float(np.finfo(float).max)

# Node lookup accepts |t/delta - round(t/delta)| up to this much.
_NODE_SLACK = 1e-9


@dataclass(frozen=True)
class TimeGrid:
    """Uniform partition of [0, horizon] into `cells` cells.

    Nodes are t_i = horizon * i / cells for i = 0..cells, so the first
    node is exactly 0 and the last is exactly `horizon`.  The horizon is
    stored as a float, so one past the largest float is refused, and so
    is a cell width that is 0 or subnormal: the nodes would lose digits.
    """

    horizon: float
    cells: int

    def __post_init__(self):
        if not isinstance(self.cells, (int, np.integer)) or self.cells < 1 or self.cells is True:
            raise ValueError(f"cells must be an integer >= 1, got {self.cells!r}")
        # A numpy scalar is read as its Python value: an np.float32 would compare
        # with the largest float cast down to its own type, inf.  Any real, an int
        # too, then compares with the largest float exactly, without converting.
        h = self.horizon.item() if isinstance(self.horizon, np.generic) else self.horizon
        if h is True or not (isinstance(h, numbers.Real) and 0 < h <= _FLOAT_MAX):
            raise ValueError(f"horizon must be > 0 and finite, got {self.horizon!r}")
        object.__setattr__(self, "horizon", float(h))
        if self.delta < np.finfo(float).tiny:
            raise ValueError(f"horizon {self.horizon!r} / cells {self.cells} underflows the "
                             "cell width to 0 or a subnormal number")

    @property
    def delta(self) -> float:
        """Constant cell width."""
        return self.horizon / self.cells

    @property
    def nodes(self) -> np.ndarray:
        """All cells + 1 grid nodes, from 0 to horizon."""
        return self.horizon * np.arange(self.cells + 1) / self.cells

    def node(self, i: int) -> float:
        return self.horizon * i / self.cells

    def index_of(self, t: float) -> int:
        """Index of the node equal to t; raises if t is off the grid or not finite."""
        i, distance = self.snap(t)
        if not distance <= _NODE_SLACK * self.delta:  # false for a nan distance too
            raise ValueError(f"{t!r} is not a node of {self}")
        return i

    def snap(self, t: float) -> tuple[int, float]:
        """Nearest node index for t, ties resolved toward the smaller node.

        Returns (index, snap distance), clamped to the grid; nan gives (0, nan).
        """
        x = max(0.0, min(t / self.delta, self.cells))  # t / delta may overflow to inf
        lo = math.floor(x)
        i = lo if x - lo <= 0.5 else lo + 1
        return i, abs(t - self.node(i))


class VolterraKernel:
    """Base class for deterministic kernels k(t, s) with k(t, s) = 0 for s >= t.

    A kernel is used only through its cell averages on a uniform grid.  One
    that depends on t - s alone gives the exact integrals over the lag
    cells; its cell-average matrix is then Toeplitz.
    """

    name = "volterra"

    def lag_integrals(self, grid: TimeGrid) -> np.ndarray:
        """Integral of the kernel over each lag cell [(d-1)*delta, d*delta], d = 1..cells."""
        raise NotImplementedError

    def _cell_averages(self, grid: TimeGrid) -> np.ndarray:
        # Entry (i, j) is the average over lag cell i - j, zero for j >= i:
        # row i is the reversed window of the zero-padded lag averages
        # that ends at lag i: a read-only view, finite when they are.
        # Node i's variance is delta times the sum of the first i squares:
        # the last node's is the largest.
        with np.errstate(over="ignore", invalid="ignore"):  # rejected just below
            averages = self.lag_integrals(grid) / grid.delta
            largest = grid.delta * float(averages @ averages)
        if not np.all(np.isfinite(averages)):
            raise ValueError(f"kernel {self.name!r} has non-finite cell integrals on {grid}")
        if not math.isfinite(largest):
            raise ValueError(f"kernel {self.name!r} has non-finite node variances on {grid}")
        padded = np.concatenate((np.zeros(grid.cells), averages))
        return sliding_window_view(padded, grid.cells)[:, ::-1]


class BrownianIdentity(VolterraKernel):
    """k(t, s) = 1 for s < t: the process is the driving Brownian motion."""

    name = "bm"

    def lag_integrals(self, grid):
        return np.diff(grid.nodes)


class RiemannLiouville(VolterraKernel):
    """Fractional kernel k(t, s) = (t - s)^(H - 1/2) / Gamma(H + 1/2), s < t.

    Parameters
    ----------
    hurst : float
        Hurst index H in (0, 1).  H = 1/2 reduces to `BrownianIdentity`;
        H < 1/2 gives rough paths and a kernel that is singular on the
        diagonal (but still square-integrable).
    """

    name = "rl"

    def __init__(self, hurst: float):
        if not 0.0 < hurst < 1.0:
            raise ValueError(f"hurst must lie in (0,1), got {hurst!r}")
        self.hurst = float(hurst)
        self._gamma = math.gamma(self.hurst + 0.5)

    def lag_integrals(self, grid):
        # Antiderivative of v^(H-1/2) in the lag v is v^(H+1/2)/(H+1/2),
        # finite at v = 0 for every H > 0.
        p = self.hurst + 0.5
        lags = grid.nodes
        return (lags[1:] ** p - lags[:-1] ** p) / (p * self._gamma)


class ExponentialOU(VolterraKernel):
    """Exponential moving-average kernel k(t, s) = scale * exp(-decay*(t-s)).

    decay = 0 degenerates to `scale` times the Brownian identity kernel.
    """

    name = "ou"

    def __init__(self, decay: float = 1.0, scale: float = 1.0):
        if decay < 0.0:
            raise ValueError(f"decay must be >= 0, got {decay!r}")
        if scale <= 0.0:
            raise ValueError(f"scale must be > 0, got {scale!r}")
        self.decay = float(decay)
        self.scale = float(scale)

    def lag_integrals(self, grid):
        lags = grid.nodes
        if self.decay == 0.0:
            return self.scale * np.diff(lags)
        with np.errstate(over="ignore"):  # decay * lag = inf gives exp(-inf) = 0, as it should
            return (self.scale / self.decay) * (np.exp(-self.decay * lags[:-1])
                                                - np.exp(-self.decay * lags[1:]))


class TabulatedKernel(VolterraKernel):
    """Kernel given by its per-cell averages on a fixed grid.

    Parameters
    ----------
    values : array, shape (cells + 1, cells)
        values[i, j] is the average of k(t_i, .) over cell j.  Entries with
        j >= i must be zero (the kernel vanishes at and beyond t).
    grid : TimeGrid
        The grid the table is defined on.  Its cell-average matrix exists
        on this grid only; there is no interpolation between cells.
    """

    name = "tabulated"

    def __init__(self, values: np.ndarray, grid: TimeGrid):
        values = np.array(values, dtype=float)  # a copy: the caller's array may change
        expected = (grid.cells + 1, grid.cells)
        if values.shape != expected:
            raise ValueError(
                f"tabulated values must have shape {expected}, got {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("tabulated values must be finite")
        upper = ~np.tri(grid.cells + 1, grid.cells, k=-1, dtype=bool)
        if np.any(values[upper] != 0.0):
            raise ValueError("tabulated values must vanish for cells at or beyond t")
        with np.errstate(over="ignore"):  # rejected just below
            variances = grid.delta * np.einsum("ij,ij->i", values, values)
        if not np.all(np.isfinite(variances)):
            raise ValueError(f"kernel {self.name!r} has non-finite node variances on {grid}")
        values.flags.writeable = False
        self.values = values
        self.grid = grid

    def _cell_averages(self, grid):
        if grid.cells != self.grid.cells or grid.horizon != self.grid.horizon:
            raise ValueError(f"off-grid query: table defined on {self.grid}, queried on {grid}")
        return self.values


def cell_average_matrix(kernel: VolterraKernel, grid: TimeGrid) -> np.ndarray:
    """Per-cell averages of the kernel at every grid node.

    Returns a read-only (cells + 1, cells) array, for a lag kernel a view,
    whose row i holds the average of k(t_i, .) over each cell.  Row i is
    zero from cell i onward: strictly lower triangular in the cell index.

    Raises
    ------
    ValueError
        If any cell integral or node variance delta * ||row i||^2 is
        non-finite (the numerical stand-in for square-integrability).  A
        lag kernel sums its last row only, which can differ from a
        row-by-row sum within rounding of the largest float.
    """
    return kernel._cell_averages(grid)


def covariance(cell_averages: np.ndarray, t: float, s: float, grid: TimeGrid) -> float:
    """Process covariance r(t, s) at two grid nodes.

    Composite quadrature on two rows of the cell averages: the products
    kbar(t, j) * kbar(s, j) * delta are summed over all cells below
    min(t, s).  Passing only some columns truncates the integral there.
    """
    it, i_s = grid.index_of(t), grid.index_of(s)
    m = min(it, i_s)
    return float(np.dot(cell_averages[it, :m], cell_averages[i_s, :m])) * grid.delta


def covariance_matrix(cell_averages: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Covariance over all node pairs.

    The quadrature needs no explicit truncation at min(t, s): row i of the
    cell-average matrix already vanishes from cell i on.  Passing some rows
    of that matrix gives the covariance of their nodes.

    The rows are made contiguous first, so the result is exactly
    symmetric: numpy forms the product with BLAS `syrk` and copies one
    triangle onto the other.
    """
    cell_averages = np.ascontiguousarray(cell_averages)
    return grid.delta * (cell_averages @ cell_averages.T)


def gram_defect_bound(cell_averages: np.ndarray, weight: np.ndarray, delta: float) -> float:
    """Bound on the PSD defect of delta * (K * w) @ K^T as the library builds it.

    The defect of a symmetric matrix is its most negative eigenvalue,
    negated, over its trace, and 0 when it has none.

    K is the (m, n) cell-average matrix (or some of its rows) and w the
    n cell weights: all ones for `covariance_matrix`, the observation
    weight for `conditional_covariance_matrix`.  The premises are w >= 0
    and a finite, positive trace T = delta * sum_j w_j ||K[:, j]||^2, which
    also rules out a non-finite K (0 * inf is nan).  When one fails the
    bound is inf, except that a zero trace gives nan: the defect over it
    is 0 / 0, and only a matrix built exactly zero is then known to have
    none (`certified_defect`).  Otherwise M = delta K W K^T is positive
    semidefinite, and every rounding in building it is bounded entry by
    entry, with u the unit roundoff and eta the smallest subnormal.  A rounding is
    fl(x op y) = (x op y)(1 + e) + d, |e| <= u, |d| <= eta / 2, and d = 0
    for a sum (Higham, *Accuracy and Stability of Numerical Algorithms*,
    2nd ed., §2.2):

    - fl(K * w) = K W + relative error u |K| W + absolute d_ij;
    - each length-n inner product of a row of it with a row of K, in any
      order and with or without fused multiply-adds, adds
      gamma_n = n u / (1 - n u) times the product of the absolute values
      (§3.1) plus n eta / 2 of product underflows; the d_ij add at most
      (eta / 2) sum_j |K_lj|, which is at most (eta / 4) (n + ||K_l||^2)
      since |x| <= (1 + x^2) / 2;
    - the scaling by delta, and the symmetrisation C / 2 + C^T / 2 of
      the conditional form, add one rounding each plus eta / 2 of
      underflow; the unconditional form takes neither of the last two.

    So the matrix A that the lower triangle defines is M + E with
    |E| <= gamma_{n+3} delta |K| W |K|^T + eta (2 delta n + F + 2), F the
    unweighted trace delta * ||K||_F^2.  By Cauchy-Schwarz the entries of
    the nonnegative delta |K| W |K|^T are at most sqrt(M_ii M_ll), so
    || delta |K| W |K|^T ||_2 <= T.  An m x m matrix of entries at most c
    has 2-norm at most m c, which Rump's term ("Verification of positive
    definiteness", BIT 46 (2006) 433-452, Thm 2.3) with top = delta n + F
    covers.  Weyl's inequality then gives
    lambda_min(A) >= lambda_min(M) - ||E||_2 >= -(gamma_{n+3} T + Rump).
    Doubling covers the rounding of the bound, of T and of the trace of
    A.  The result is that bound over T: about 9.1e-13 at n = 4096, a
    hundred times below `PSD_RTOL`.
    """
    rows, inner = cell_averages.shape
    if not np.all(weight >= 0.0):  # a nan weight fails too
        return math.inf
    with np.errstate(over="ignore", invalid="ignore"):  # an inf or nan trace fails below
        columns = delta * np.einsum("ij,ij->j", cell_averages, cell_averages)
        trace = float(columns @ weight)
        plain = float(columns.sum())
    if trace == 0.0:
        return math.nan
    if not (0.0 < trace < math.inf and plain < math.inf):
        return math.inf
    gamma = (inner + 3) * _UNIT_ROUNDOFF / (1.0 - (inner + 3) * _UNIT_ROUNDOFF)
    # Rump's term 4 m (2 (m + 2) + top) eta, with 4 m eta formed first and exactly,
    # so that a top near the end of the float range does not overflow it.
    rump = 4.0 * rows * _ETA * (2.0 * (rows + 2) + delta * inner + plain)
    return 2.0 * (gamma * trace + rump) / trace


def certified_defect(cell_averages: np.ndarray, weight: np.ndarray, delta: float,
                     build) -> float:
    """PSD verdict on delta * (K * w) @ K^T as the library builds it: 0.0 or inf.

    0.0 when `gram_defect_bound` is at most `PSD_RTOL`, or when the
    weighted trace is exactly 0 and the matrix that `build()` returns is
    exactly zero; `build` is called in that case only.  Any other failed
    premise reads inf.  The verdict reads no eigenvalue: a matrix it does
    not certify is not thereby shown to be indefinite.
    """
    bound = gram_defect_bound(cell_averages, weight, delta)
    if bound <= PSD_RTOL or (math.isnan(bound) and not build().any()):
        return 0.0
    return math.inf


def check_written(cell_averages: np.ndarray, weight: np.ndarray, delta: float,
                  matrix: np.ndarray) -> None:
    """Gate on `matrix` = delta * (K * w) @ K^T before it is written: `certified_defect`,
    then finite entries and exact symmetry.  Raises ValueError reading
    "the covariance cannot be certified: <reason>", naming the failed check."""
    refused = "the covariance cannot be certified: "
    if certified_defect(cell_averages, weight, delta, lambda: matrix) != 0.0:
        raise ValueError(refused + "its weighted trace is too near the ends of the float range")
    if not np.isfinite(matrix).all():
        raise ValueError(refused + "an entry is not finite")
    if not np.array_equal(matrix, matrix.T):
        raise ValueError(refused + "it is not exactly symmetric")
