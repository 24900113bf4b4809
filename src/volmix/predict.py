"""Conditional law of the hidden process given the mixed observations.

Observing a*W + b*W~ up to time u pins down the hidden process X only
partially: the conditional law of X is Gaussian with a random mean that
is linear in the observed increments and a covariance that does not
depend on the path at all.

Both read rows of the kernel's cell-average matrix K.  The conditional
mean integrates the observed increments against gain * K with
gain = a/(a^2+b^2), truncated at u.  The conditional covariance

    r(t, s) - c * integral over [0, min(u, t, s)] of k(t, v) k(s, v) dv,

c = a^2/(a^2+b^2), is one weighted factor delta * (K * w) @ K^T with
w = 1 - c on the observed cells, which keeps its precision as b -> 0.
The verify suite checks it against the direct two-term quadrature.

Each function takes K, or some of its rows, as its first argument; only
`prediction_law` takes the kernel and builds K itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import (
    Refused,
    TimeGrid,
    VolterraKernel,
    cell_average_matrix,
    check_written,
    covariance,
)
from .simulate import MixParams


def conditional_mean_path(cell_averages: np.ndarray, params: MixParams,
                          mixed_increments: np.ndarray, u: float,
                          grid: TimeGrid) -> np.ndarray:
    """Conditional mean at every grid node given the mixed increments up to node u.

    Node i gets gain * sum of kbar(t_i, j) * mixed_increments[j] over cells
    that end at or before u; for t_i < u the extra cells drop out on their
    own since kbar(t_i, j) vanishes there.
    """
    mixed_increments = np.asarray(mixed_increments, dtype=float)
    if mixed_increments.shape != (grid.cells,):
        raise Refused(f"expected {grid.cells} mixed increments, "
                      f"got shape {mixed_increments.shape}")
    iu = grid.index_of(u)
    if iu == 0:
        return np.zeros(grid.cells + 1)
    return params.gain * (np.ascontiguousarray(cell_averages)[:, :iu] @ mixed_increments[:iu])


def conditional_covariance_matrix(cell_averages: np.ndarray, params: MixParams,
                                  u: float, grid: TimeGrid) -> np.ndarray:
    """Conditional covariance over all node pairs, exactly symmetric.

    One weighted factor, delta * (K * w) @ K^T with K the cell averages and
    w their `observation_weight`: b^2/(a^2+b^2) on cells below u, 1
    elsewhere.  Subtracting c times the observed product from the full one
    would cancel every digit of the present variance as b -> 0.  Passing
    some rows of K gives the conditional covariance of their nodes.  The
    entries are halved before the transpose is added, so the sum cannot
    overflow.  Halving is exact but for subnormal entries; halving delta
    instead would round a subnormal delta.
    """
    weight = observation_weight(params, u, grid)
    cell_averages = np.ascontiguousarray(cell_averages)
    cov = grid.delta * ((cell_averages * weight) @ cell_averages.T)
    cov *= 0.5
    return cov + cov.T


def observation_weight(params: MixParams, u: float, grid: TimeGrid) -> np.ndarray:
    """Weight w of each cell in the conditional covariance delta * (K * w) @ K^T.

    b^2/(a^2+b^2) on the cells below u, whose increments are observed
    through the channel, and 1 on the cells after u.
    """
    weight = np.ones(grid.cells)
    weight[:grid.index_of(u)] = params.noise_fraction
    return weight


def present_variance(cell_averages: np.ndarray, params: MixParams,
                     u: float, grid: TimeGrid) -> float:
    """Conditional variance of X_u itself given observations up to u.

    Equals b^2/(a^2+b^2) * r(u, u): zero when the driver is observed
    exactly (b = 0), but positive otherwise because the hidden process
    never becomes measurable through a noisy channel.  Computed in this
    product form rather than as r - c*r, which would lose digits to
    cancellation when b is small.
    """
    return params.noise_fraction * covariance(cell_averages, u, u, grid)


def rho_to_mix(rho: float) -> MixParams:
    """Channel with unit variance and correlation rho against the driver.

    Maps rho in [-1, 1] to (a, b) = (rho, sqrt(1 - rho^2)).  rho = 0 is a
    valid channel that carries no information about the driver (the
    prediction gain is 0).
    """
    if not -1.0 <= rho <= 1.0:
        raise Refused(f"rho must lie in [-1, 1], got {rho!r}")
    return MixParams(a=float(rho), b=math.sqrt(1.0 - rho * rho))


@dataclass(frozen=True)
class PredictionLaw:
    """Gaussian conditional law of the whole path given observations up to u.

    mean[i] is the conditional mean of X at node i; cov[i, j] the
    conditional covariance between nodes i and j.  The covariance is
    deterministic: it depends on (kernel, channel, u) but not on the
    observed path.
    """

    mean: np.ndarray
    cov: np.ndarray


def prediction_law(kernel: VolterraKernel, params: MixParams,
                   mixed_increments: np.ndarray, u: float,
                   grid: TimeGrid) -> PredictionLaw:
    """Assemble the conditional mean path and covariance matrix at time u.

    The covariance passes `check_written` (certified positive semidefinite,
    finite, exactly symmetric), whose `Refused` names the check that failed.
    """
    kbar = cell_average_matrix(kernel, grid)
    mean = conditional_mean_path(kbar, params, mixed_increments, u, grid)
    cov = conditional_covariance_matrix(kbar, params, u, grid)
    check_written(kbar, observation_weight(params, u, grid), grid.delta, cov)
    return PredictionLaw(mean=mean, cov=cov)
