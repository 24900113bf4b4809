"""Measurement-error study: naive vs filtered estimation of the hidden process.

With observation X^b = X + b*X~ (driver observed through unit gain plus
an independent disturbance scaled by b), two estimators of X_t compete:

* naive: use X^b_t as is.  Its mean squared error is b^2 * r(t, t) and
  grows without bound in b.
* filtered: use the conditional mean given observations up to t.  Its
  mean squared error is b^2/(1+b^2) * r(t, t), bounded by r(t, t) no
  matter how noisy the channel gets.

The ratio of the two is 1/(1+b^2).  Both analytic values are checked by
Monte Carlo over simulated paths; every (t, b) pair and both estimators
share one noise pass, whose fixed batch order makes reported numbers
reproducible bit for bit.

The analytic errors and the squared-error feature map read the kernel's
cell-average matrix K; `variance_reduction_report` takes the kernel and
builds K once for all of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import TimeGrid, VolterraKernel, cell_average_matrix, covariance
from .simulate import FeatureMap, Moments, noise_pass

_ESTIMATORS = ("naive", "filtered")


@dataclass(frozen=True)
class MseReport:
    """One row of the variance-reduction study at evaluation time t."""

    t: float
    b: float
    naive_analytic: float
    naive_mc: float
    naive_se: float
    filtered_analytic: float
    filtered_mc: float
    filtered_se: float
    n_paths: int
    reduction_ratio: float
    within_tolerance: bool


def naive_mse_analytic(cell_averages: np.ndarray, b: float, t: float,
                       grid: TimeGrid) -> float:
    """Mean squared error of the raw observation: b^2 * r(t, t)."""
    return b * b * covariance(cell_averages, t, t, grid)


def filtered_mse_analytic(cell_averages: np.ndarray, b: float, t: float,
                          grid: TimeGrid) -> float:
    """Mean squared error of the conditional-mean estimator at u = t.

    Equals b^2/(1+b^2) * r(t, t), which never exceeds
    min(1, b^2) * r(t, t).
    """
    return b * b / (1.0 + b * b) * covariance(cell_averages, t, t, grid)


def squared_errors(cell_averages: np.ndarray, pairs, grid: TimeGrid) -> FeatureMap:
    """Feature map for `noise_pass`: each estimator's squared error per (t, b) pair.

    The channel is (a=1, b) and the filtered estimator predicts the
    present, i.e. uses observations up to u = t.  Column k holds the naive
    error at pairs[k], column len(pairs) + k the filtered one.
    """
    rows = cell_averages[[grid.index_of(t) for t, _ in pairs]]
    b = np.array([level for _, level in pairs], dtype=float)
    gain = 1.0 / (1.0 + b * b)

    def features(dw: np.ndarray, dwt: np.ndarray) -> np.ndarray:
        hidden = dw @ rows.T
        observed = hidden + b * (dwt @ rows.T)
        # u = t, so the conditional mean is gain times the observation
        # itself: kbar_t vanishes from cell index(t) on.  At b = 0 the
        # filtered error is then identically zero, not rounding noise.
        errors = np.hstack((observed - hidden, gain * observed - hidden))
        return errors * errors

    return features


def error_stats(moments: Moments) -> list[dict[str, tuple[float, float]]]:
    """Per (t, b) pair of `squared_errors`, {estimator: (mse, standard error)}."""
    n = moments.count
    se = np.sqrt(np.diag(moments.comoment) / (n - 1) / n)
    pairs = len(se) // 2
    return [{name: (float(moments.mean[k + offset]), float(se[k + offset]))
             for name, offset in zip(_ESTIMATORS, (0, pairs))}
            for k in range(pairs)]


def variance_reduction_report(kernel: VolterraKernel, b_values, ts,
                              n_paths: int, seed: int,
                              grid: TimeGrid) -> list[MseReport]:
    """Run both estimators for every evaluation time in `ts` and noise level.

    Rows come time by time, noise levels in order within each time.  A
    row is flagged (within_tolerance=False) when either Monte Carlo
    estimate strays more than 3 standard errors from its analytic value,
    or when either standard error is not finite: an overflowed error band
    would pass any estimate.
    """
    if n_paths < 2:
        raise ValueError(f"n_paths must be >= 2, got {n_paths}")
    pairs = [(t, b) for t in ts for b in b_values]
    averages = cell_average_matrix(kernel, grid)
    (moments,) = noise_pass(grid, seed, n_paths, [squared_errors(averages, pairs, grid)])
    reports = []
    for (t, b), stats in zip(pairs, error_stats(moments)):
        naive_true = naive_mse_analytic(averages, b, t, grid)
        filtered_true = filtered_mse_analytic(averages, b, t, grid)
        naive_mc, naive_se = stats["naive"]
        filtered_mc, filtered_se = stats["filtered"]
        ok = (math.isfinite(naive_se) and math.isfinite(filtered_se)
              and abs(naive_mc - naive_true) <= 3.0 * naive_se
              and abs(filtered_mc - filtered_true) <= 3.0 * filtered_se)
        reports.append(MseReport(
            t=t,
            b=b,
            naive_analytic=naive_true,
            naive_mc=naive_mc,
            naive_se=naive_se,
            filtered_analytic=filtered_true,
            filtered_mc=filtered_mc,
            filtered_se=filtered_se,
            n_paths=n_paths,
            reduction_ratio=1.0 / (1.0 + b * b),
            within_tolerance=ok,
        ))
    return reports
