"""Measurement-error study: naive vs filtered estimation of the hidden process.

With observation X^b = X + b*X~ (driver observed through unit gain plus
an independent disturbance scaled by b), two estimators of X_t compete:

* naive: use X^b_t as is.  Its mean squared error is b^2 * r(t, t) and
  grows without bound in b.
* filtered: use the conditional mean given observations up to t.  Its
  mean squared error is b^2/(1+b^2) * r(t, t), bounded by r(t, t) no
  matter how noisy the channel gets.

The ratio of the two is 1/(1+b^2).  The filtered error is the present
variance of the prediction law on the channel (1, b).

`study` gives both halves of the comparison for a list of (t, b) pairs:
a squared-error feature map for `noise_pass`, and a function that turns
the moments of those features into `MseReport` rows against the analytic
errors.  `variance_reduction_report` (for `mse-study`) and the `verify`
suite run the same pair and judge each estimate by one `z_score` against
`MC_Z_TOL`; every pair and both estimators share one noise pass, whose
fixed batch order makes reported numbers reproducible bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .kernels import TimeGrid, VolterraKernel, cell_average_matrix, covariance
from .simulate import FeatureMap, MixParams, Moments, half_exponents, noise_pass

MC_Z_TOL = 3.0  # standard errors a Monte Carlo estimate may stray from its target


def z_score(mc: float, se: float, target: float) -> float:
    """|mc - target| / se; inf when `mc` or `se` is not finite (an overflowed
    estimate or error band proves nothing), and at se = 0 unless mc == target."""
    if not (math.isfinite(mc) and math.isfinite(se)):
        return math.inf
    if se > 0.0:
        return abs(mc - target) / se
    return 0.0 if mc == target else math.inf


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
    reduction_ratio: float
    within_tolerance: bool


def study(cell_averages: np.ndarray, pairs, grid: TimeGrid
          ) -> tuple[FeatureMap, Callable[[Moments], list[MseReport]]]:
    """Feature map and report builder for the study of each (t, b) pair.

    The channel is (a=1, b) and the filtered estimator predicts the
    present, i.e. uses observations up to u = t.  Feature column k holds
    the naive squared error at pairs[k], column len(pairs) + k the
    filtered one.  The analytic errors are b^2 * r(t, t) and the present
    variance b^2/(1+b^2) * r(t, t).

    Each error is scaled by 2^-h (`half_exponents`) before it is squared,
    and means and standard errors are scaled back by 4^h.  Rows keep their
    bits, and stay in range wherever the analytic errors are normal floats
    or exactly 0 (at b = 0, or where the cell averages are all zero).

    A report is flagged (within_tolerance=False) when the `z_score` of
    either Monte Carlo estimate against its analytic value exceeds
    `MC_Z_TOL`.  Neither function holds the cell averages, only the rows
    they read.
    """
    rows = cell_averages[[grid.index_of(t) for t, _ in pairs]]
    channels = [MixParams(1.0, b) for _, b in pairs]
    variances = [covariance(cell_averages, t, t, grid) for t, _ in pairs]
    analytic = [(b * b * r, channel.noise_fraction * r)
                for (_, b), channel, r in zip(pairs, channels, variances)]
    bs = np.array([b for _, b in pairs], dtype=float)
    names = [f"the {e} error at t={t!r}, b={b!r}" for e in ("naive", "filtered") for t, b in pairs]
    half = half_exponents(np.transpose(analytic).ravel(), names,
                          np.tile((bs == 0.0) | ~rows.any(axis=1), 2))
    h, h_filtered = np.split(half, 2)  # the scaling folds exactly into b, b^2 and gain
    twin_scale, shift = np.ldexp(bs, -h), np.ldexp(bs * bs, -h)
    gain = np.ldexp([channel.gain for channel in channels], h - h_filtered)

    def features(dw: np.ndarray, dwt: np.ndarray) -> np.ndarray:
        hidden = dw @ rows.T
        twin = twin_scale * (dwt @ rows.T)
        # The naive error X^b - X is b X~ itself, formed without the
        # difference that cancels once b X~ falls below the rounding of X.
        # u = t, so the conditional mean is gain times the observation
        # itself (kbar_t vanishes from cell index(t) on), and its error
        # gain (X + b X~) - X is gain (b X~ - b^2 X): identically zero at
        # b = 0, not rounding noise.
        errors = np.hstack((twin, gain * (twin - shift * hidden)))
        return errors * errors

    def finish(moments: Moments) -> list[MseReport]:
        n, m = moments.count, len(pairs)
        se = np.sqrt(moments.squares / (n - 1) / n)
        with np.errstate(over="ignore"):  # an estimate past the float range fails its row
            mc, se = np.ldexp([moments.mean, se], 2 * half).tolist()
        reports = []
        for k, ((t, b), (naive, filtered)) in enumerate(zip(pairs, analytic)):
            ok = (z_score(mc[k], se[k], naive) <= MC_Z_TOL
                  and z_score(mc[m + k], se[m + k], filtered) <= MC_Z_TOL)
            reports.append(MseReport(
                t=t, b=b, naive_analytic=naive, naive_mc=mc[k], naive_se=se[k],
                filtered_analytic=filtered, filtered_mc=mc[m + k], filtered_se=se[m + k],
                reduction_ratio=channels[k].gain, within_tolerance=ok))
        return reports

    return features, finish


def variance_reduction_report(kernel: VolterraKernel, b_values, ts,
                              n_paths: int, seed: int,
                              grid: TimeGrid) -> list[MseReport]:
    """Run both estimators for every evaluation time in `ts` and noise level.

    Rows come time by time, noise levels in order within each time; see
    `study` for the flag.
    """
    pairs = [(t, b) for t in ts for b in b_values]
    features, finish = study(cell_average_matrix(kernel, grid), pairs, grid)
    return finish(*noise_pass(grid, seed, n_paths, [features]))
