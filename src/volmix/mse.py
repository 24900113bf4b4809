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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import TimeGrid, VolterraKernel, covariance
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


def naive_mse_analytic(kernel: VolterraKernel, b: float, t: float,
                       grid: TimeGrid) -> float:
    """Mean squared error of the raw observation: b^2 * r(t, t)."""
    return b * b * covariance(kernel, t, t, grid)


def filtered_mse_analytic(kernel: VolterraKernel, b: float, t: float,
                          grid: TimeGrid) -> float:
    """Mean squared error of the conditional-mean estimator at u = t.

    Equals b^2/(1+b^2) * r(t, t), which never exceeds
    min(1, b^2) * r(t, t).
    """
    return b * b / (1.0 + b * b) * covariance(kernel, t, t, grid)


def squared_errors(kernel: VolterraKernel, pairs, grid: TimeGrid) -> FeatureMap:
    """Feature map for `noise_pass`: each estimator's squared error per (t, b) pair.

    The channel is (a=1, b) and the filtered estimator predicts the
    present, i.e. uses observations up to u = t.  Column k holds the naive
    error at pairs[k], column len(pairs) + k the filtered one.
    """
    for t, _ in pairs:
        grid.index_of(t)  # evaluation times must be nodes
    rows = np.array([kernel.cell_integrals(t, grid) for t, _ in pairs]) / grid.delta
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


def _mc_errors(kernel, pairs, n_paths, seed, grid):
    if n_paths < 2:
        raise ValueError(f"n_paths must be >= 2, got {n_paths}")
    (moments,) = noise_pass(grid, seed, n_paths, [squared_errors(kernel, pairs, grid)])
    return error_stats(moments)


def mc_mse(kernel: VolterraKernel, b: float, t: float, estimator: str,
           n_paths: int, seed: int, grid: TimeGrid) -> tuple[float, float]:
    """Monte Carlo mean squared error of one estimator with its standard error.

    Parameters
    ----------
    estimator : {"naive", "filtered"}
        naive uses the noisy observation X^b_t directly; filtered uses the
        conditional mean given observations up to t.
    n_paths : int
        Number of simulated paths, at least 2.

    Returns
    -------
    (mse, se) : tuple of float
        Sample mean of squared errors and its standard error (sample
        standard deviation of the squared errors over sqrt(n_paths)).
    """
    if estimator not in _ESTIMATORS:
        raise ValueError(f"estimator must be one of {_ESTIMATORS}, got {estimator!r}")
    return _mc_errors(kernel, [(t, b)], n_paths, seed, grid)[0][estimator]


def variance_reduction_report(kernel: VolterraKernel, b_values, ts,
                              n_paths: int, seed: int,
                              grid: TimeGrid) -> list[MseReport]:
    """Run both estimators for every evaluation time in `ts` and noise level.

    Rows come time by time, noise levels in order within each time.  A
    row is flagged (within_tolerance=False) when either Monte Carlo
    estimate strays more than 3 standard errors from its analytic value.
    """
    pairs = [(t, b) for t in ts for b in b_values]
    reports = []
    for (t, b), stats in zip(pairs, _mc_errors(kernel, pairs, n_paths, seed, grid)):
        naive_true = naive_mse_analytic(kernel, b, t, grid)
        filtered_true = filtered_mse_analytic(kernel, b, t, grid)
        naive_mc, naive_se = stats["naive"]
        filtered_mc, filtered_se = stats["filtered"]
        ok = (abs(naive_mc - naive_true) <= 3.0 * naive_se
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
