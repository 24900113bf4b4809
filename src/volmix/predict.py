"""Conditional law of the hidden process given the mixed observations.

Observing a*W + b*W~ up to time u pins down the hidden process X only
partially: the conditional law of X is Gaussian with a random mean that
is linear in the observed increments and a covariance that does not
depend on the path at all.

The conditional mean integrates the observed increments against the
scaled kernel gain * k(t, .) with gain = a/(a^2+b^2), truncated at u.
The conditional covariance is computed two ways:

* `conditional_covariance` sums the defining two-term quadrature directly
  (the squared damping factor on cells already observed, plus the
  leak-through term from the disturbance channel);
* `conditional_covariance_closed` uses the algebraically reduced form

      r(t, s) - c * integral over [0, min(u, t, s)] of k(t, v) k(s, v) dv

  with c = a^2/(a^2+b^2).

Both run over the same cell averages, so they agree to rounding; the
direct form is kept as an internal consistency oracle.  Whole matrices
use the closed form with the subtraction folded into one weighted
factor, which keeps its precision as b -> 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import (
    TimeGrid,
    VolterraKernel,
    cell_average_matrix,
    covariance,
    cross_integral,
    validate_covariance_matrix,
)
from .simulate import MixParams


def prediction_kernel(kernel: VolterraKernel, params: MixParams,
                      t: float, v: float) -> float:
    """Kernel weighting observed increments in the conditional mean.

    Equals gain * k(t, v) with gain = a/(a^2+b^2); vanishes for v >= t
    because the kernel does.
    """
    return params.gain * kernel.eval(t, v)


def conditional_mean(kernel: VolterraKernel, params: MixParams,
                     mixed_increments: np.ndarray, u: float, t: float,
                     grid: TimeGrid) -> float:
    """Conditional mean of X_t given the mixed increments up to node u.

    Discretized as gain * sum of kbar(t, j) * mixed_increments[j] over
    cells that end at or before u.  The integrand is always k(t, .): when
    u exceeds t the extra cells drop out on their own since kbar(t, j)
    vanishes there.
    """
    mixed_increments = np.asarray(mixed_increments, dtype=float)
    if mixed_increments.shape != (grid.cells,):
        raise ValueError(
            f"expected {grid.cells} mixed increments, got shape {mixed_increments.shape}"
        )
    iu = grid.index_of(u)
    grid.index_of(t)  # t must be a node as well
    if iu == 0:
        return 0.0
    kbar_t = kernel.cell_integrals(t, grid) / grid.delta
    return params.gain * float(np.dot(kbar_t[:iu], mixed_increments[:iu]))


def conditional_mean_path(kernel: VolterraKernel, params: MixParams,
                          mixed_increments: np.ndarray, u: float,
                          grid: TimeGrid,
                          cell_averages: np.ndarray | None = None) -> np.ndarray:
    """Conditional mean at every grid node, as one vector."""
    mixed_increments = np.asarray(mixed_increments, dtype=float)
    if mixed_increments.shape != (grid.cells,):
        raise ValueError(
            f"expected {grid.cells} mixed increments, got shape {mixed_increments.shape}"
        )
    iu = grid.index_of(u)
    if cell_averages is None:
        cell_averages = cell_average_matrix(kernel, grid)
    if iu == 0:
        return np.zeros(grid.cells + 1)
    return params.gain * (cell_averages[:, :iu] @ mixed_increments[:iu])


def conditional_covariance(kernel: VolterraKernel, params: MixParams,
                           u: float, t: float, s: float,
                           grid: TimeGrid) -> float:
    """Conditional covariance of (X_t, X_s) given observations up to u.

    Direct two-term quadrature: cells below min(t, s) carry the factor
    (1 - c * [cell below u])^2, and cells below u add c*(1-c) times the
    kernel product, c = a^2/(a^2+b^2).
    """
    it, i_s, iu = grid.index_of(t), grid.index_of(s), grid.index_of(u)
    c = params.signal_fraction
    kt = kernel.cell_integrals(t, grid) / grid.delta
    ks = kernel.cell_integrals(s, grid) / grid.delta
    prod = kt * ks
    m = min(it, i_s)
    damp = np.ones(grid.cells)
    damp[:iu] = (1.0 - c) ** 2
    first = float(np.dot(damp[:m], prod[:m])) * grid.delta
    second = c * (1.0 - c) * float(np.sum(prod[:iu])) * grid.delta
    return first + second


def conditional_covariance_closed(kernel: VolterraKernel, params: MixParams,
                                  u: float, t: float, s: float,
                                  grid: TimeGrid) -> float:
    """Closed form r(t, s) - c * cross_integral(t, s, u).

    Agrees with `conditional_covariance` to rounding since both use the
    same cell averages.
    """
    c = params.signal_fraction
    return covariance(kernel, t, s, grid) - c * cross_integral(kernel, t, s, u, grid)


def conditional_covariance_matrix(kernel: VolterraKernel, params: MixParams,
                                  u: float, grid: TimeGrid,
                                  cell_averages: np.ndarray | None = None) -> np.ndarray:
    """Conditional covariance over all node pairs, symmetrized.

    One weighted factor, delta * (K * w) @ K^T with K the cell averages and
    w = b^2/(a^2+b^2) on cells below u, 1 elsewhere.  Subtracting c times
    the observed product from the full one would cancel every digit of the
    present variance as b -> 0.
    """
    iu = grid.index_of(u)
    if cell_averages is None:
        cell_averages = cell_average_matrix(kernel, grid)
    weight = np.ones(grid.cells)
    weight[:iu] = params.noise_fraction
    cov = grid.delta * ((cell_averages * weight) @ cell_averages.T)
    return 0.5 * (cov + cov.T)


def present_variance(kernel: VolterraKernel, params: MixParams,
                     u: float, grid: TimeGrid) -> float:
    """Conditional variance of X_u itself given observations up to u.

    Equals b^2/(a^2+b^2) * r(u, u): zero when the driver is observed
    exactly (b = 0), but positive otherwise because the hidden process
    never becomes measurable through a noisy channel.  Computed in this
    product form rather than as r - c*r, which would lose digits to
    cancellation when b is small.
    """
    return params.noise_fraction * covariance(kernel, u, u, grid)


def rho_to_mix(rho: float) -> MixParams:
    """Channel with unit variance and correlation rho against the driver.

    Maps rho in [-1, 1] to (a, b) = (rho, sqrt(1 - rho^2)).  rho = 0 is a
    valid channel that carries no information about the driver (the
    prediction gain is 0).
    """
    if not -1.0 <= rho <= 1.0:
        raise ValueError(f"rho must lie in [-1, 1], got {rho!r}")
    return MixParams(a=float(rho), b=math.sqrt(1.0 - rho * rho))


@dataclass(frozen=True)
class PredictionLaw:
    """Gaussian conditional law of the whole path given observations up to u.

    mean[i] is the conditional mean of X at node i; cov[i, j] the
    conditional covariance between nodes i and j.  The covariance is
    deterministic: it depends on (kernel, channel, u) but not on the
    observed path.
    """

    observation_time: float
    mean: np.ndarray
    cov: np.ndarray
    params: MixParams
    grid: TimeGrid


def prediction_law(kernel: VolterraKernel, params: MixParams,
                   mixed_increments: np.ndarray, u: float,
                   grid: TimeGrid) -> PredictionLaw:
    """Assemble the conditional mean path and covariance matrix at time u.

    The covariance is symmetrized and checked against the PSD tolerance
    before being returned.
    """
    kbar = cell_average_matrix(kernel, grid)
    mean = conditional_mean_path(kernel, params, mixed_increments, u, grid, kbar)
    cov = conditional_covariance_matrix(kernel, params, u, grid, kbar)
    validate_covariance_matrix(cov)
    return PredictionLaw(observation_time=u, mean=mean, cov=cov,
                         params=params, grid=grid)
