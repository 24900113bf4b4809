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

The one quadrature representation is the cell-average matrix K: row i
holds the averages of k(t_i, .) over the cells.  Every covariance is a
delta-weighted inner product of its rows.  The bm, rl and ou kernels
depend on t - s alone, so they only give their integrals over the lag
cells and the matrix is Toeplitz; a tabulated kernel is its matrix.

Outside the kernel classes, `cell_average_matrix` is the only function
here that takes a kernel.  The quadrature functions take K (or some of
its rows) instead, so the caller builds it once, where it can be seen,
and a kernel can never disagree with its matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# Symmetry slack for assembled covariance matrices (absolute).
SYMMETRY_ATOL = 1e-12
# A matrix passes the positive-semidefiniteness check when its most
# negative eigenvalue is no worse than -PSD_RTOL * trace.
PSD_RTOL = 1e-10

# Node lookup accepts |t/delta - round(t/delta)| up to this much.
_NODE_SLACK = 1e-9


@dataclass(frozen=True)
class TimeGrid:
    """Uniform partition of [0, horizon] into `cells` cells.

    Nodes are t_i = horizon * i / cells for i = 0..cells, so the first
    node is exactly 0 and the last is exactly `horizon`.
    """

    horizon: float
    cells: int

    def __post_init__(self):
        if not (isinstance(self.cells, (int, np.integer)) and self.cells >= 1):
            raise ValueError(f"cells must be an integer >= 1, got {self.cells!r}")
        if not (isinstance(self.horizon, (int, float)) and self.horizon > 0):
            raise ValueError(f"horizon must be > 0, got {self.horizon!r}")

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
        """Index of the node equal to t; raises if t is off the grid."""
        x = t / self.delta
        i = int(round(x))
        if i < 0 or i > self.cells or abs(x - i) > _NODE_SLACK:
            raise ValueError(f"{t!r} is not a node of {self}")
        return i

    def snap(self, t: float) -> tuple[int, float]:
        """Nearest node index for t, ties resolved toward the smaller node.

        Returns (index, snap distance).  The result is clamped to the grid.
        """
        x = t / self.delta
        lo = math.floor(x)
        i = lo if x - lo <= 0.5 else lo + 1
        i = min(max(i, 0), self.cells)
        return i, abs(t - self.node(i))


class VolterraKernel:
    """Base class for deterministic kernels k(t, s) with k(t, s) = 0 for s >= t.

    Subclasses provide pointwise evaluation and their cell averages on a
    uniform grid.  A kernel that depends on t - s alone gives the exact
    integrals over the lag cells; its cell-average matrix is then Toeplitz.
    """

    name = "volterra"

    def eval(self, t: float, s: float) -> float:
        """Pointwise k(t, s); zero whenever s >= t.

        Note that the fractional kernel with Hurst index < 1/2 diverges as
        s approaches t from below; quadrature near the diagonal must go
        through `cell_average_matrix` instead.
        """
        raise NotImplementedError

    def lag_integrals(self, grid: TimeGrid) -> np.ndarray:
        """Integral of the kernel over each lag cell [(d-1)*delta, d*delta], d = 1..cells."""
        raise NotImplementedError

    def _cell_averages(self, grid: TimeGrid) -> np.ndarray:
        # Entry (i, j) is the average over lag cell i - j, zero for j >= i:
        # row i is the reversed window of the zero-padded lag averages
        # that ends at lag i.
        padded = np.concatenate((np.zeros(grid.cells), self.lag_integrals(grid) / grid.delta))
        return sliding_window_view(padded, grid.cells)[:, ::-1].copy()


class BrownianIdentity(VolterraKernel):
    """k(t, s) = 1 for s < t: the process is the driving Brownian motion."""

    name = "bm"

    def eval(self, t, s):
        return 1.0 if s < t else 0.0

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

    def eval(self, t, s):
        if s >= t:
            return 0.0
        return (t - s) ** (self.hurst - 0.5) / self._gamma

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

    def eval(self, t, s):
        if s >= t:
            return 0.0
        return self.scale * math.exp(-self.decay * (t - s))

    def lag_integrals(self, grid):
        lags = grid.nodes
        if self.decay == 0.0:
            return self.scale * np.diff(lags)
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
        The grid the table is defined on.  Queries are only valid at the
        nodes of this grid; there is no interpolation between cells.
    """

    name = "tabulated"

    def __init__(self, values: np.ndarray, grid: TimeGrid):
        values = np.asarray(values, dtype=float)
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
        self.values = values
        self.grid = grid

    @classmethod
    def from_kernel(cls, kernel: VolterraKernel, grid: TimeGrid) -> "TabulatedKernel":
        """Tabulate another kernel's cell averages on `grid`."""
        return cls(cell_average_matrix(kernel, grid), grid)

    def _node(self, x: float, what: str) -> int:
        try:
            return self.grid.index_of(x)
        except ValueError:
            raise ValueError(f"off-grid query: {what}={x!r} is not a node of {self.grid}") from None

    def eval(self, t, s):
        i = self._node(t, "t")
        if s >= t:
            # s need not be a node in the trivially-zero region
            return 0.0
        j = self._node(s, "s")
        return float(self.values[i, j])

    def _cell_averages(self, grid):
        if grid.cells != self.grid.cells or grid.horizon != self.grid.horizon:
            raise ValueError(f"off-grid query: table defined on {self.grid}, queried on {grid}")
        return self.values


def cell_average_matrix(kernel: VolterraKernel, grid: TimeGrid) -> np.ndarray:
    """Per-cell averages of the kernel at every grid node.

    Returns a (cells + 1, cells) array whose row i holds the average of
    k(t_i, .) over each cell.  Row i is zero from cell i onward, so the
    matrix is strictly lower triangular in the cell index.

    Raises
    ------
    ValueError
        If any cell integral is non-finite (the numerical stand-in for the
        square-integrability requirement on the kernel).
    """
    rows = kernel._cell_averages(grid)
    if not np.all(np.isfinite(rows)):
        raise ValueError(f"kernel {kernel.name!r} has non-finite cell integrals on {grid}")
    return rows


def covariance(cell_averages: np.ndarray, t: float, s: float, grid: TimeGrid) -> float:
    """Process covariance r(t, s) at two grid nodes.

    Composite quadrature on two rows of the cell averages: the products
    kbar(t, j) * kbar(s, j) * delta are summed over all cells below
    min(t, s).  Passing only some columns truncates the integral there.
    """
    it, i_s = grid.index_of(t), grid.index_of(s)
    m = min(it, i_s)
    if m == 0:
        return 0.0
    return float(np.dot(cell_averages[it, :m], cell_averages[i_s, :m])) * grid.delta


def covariance_matrix(cell_averages: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Covariance over all node pairs, symmetrized against rounding.

    The quadrature needs no explicit truncation at min(t, s): row i of the
    cell-average matrix already vanishes from cell i on.  Passing some rows
    of that matrix gives the covariance of their nodes.
    """
    cov = grid.delta * (cell_averages @ cell_averages.T)
    return 0.5 * (cov + cov.T)


def psd_defect(matrix: np.ndarray) -> float:
    """Worst negative eigenvalue relative to the trace (0 when PSD).

    The defect is max(0, -min eigenvalue) / trace; matrices that are zero
    (trace 0) have defect 0 by convention, and any non-finite entry gives
    an infinite defect.
    """
    if not np.all(np.isfinite(matrix)):
        return math.inf
    trace = float(np.trace(matrix))
    if trace <= 0.0:
        return 0.0
    lo = float(np.linalg.eigvalsh(matrix)[0])
    return max(0.0, -lo) / trace


def validate_covariance_matrix(matrix: np.ndarray,
                               symmetry_atol: float = SYMMETRY_ATOL,
                               psd_rtol: float = PSD_RTOL) -> None:
    """Raise ValueError unless `matrix` is finite, symmetric and PSD within tolerance."""
    if not np.all(np.isfinite(matrix)):
        raise ValueError("covariance matrix has non-finite entries")
    asym = float(np.max(np.abs(matrix - matrix.T))) if matrix.size else 0.0
    if asym > symmetry_atol:
        raise ValueError(f"covariance matrix asymmetric: max |M - M^T| = {asym:.3e}")
    defect = psd_defect(matrix)
    if defect > psd_rtol:
        raise ValueError(f"covariance matrix not PSD: defect {defect:.3e} exceeds {psd_rtol:.1e}")
