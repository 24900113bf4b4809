"""Noise for the hidden process and its noisy observation.

The hidden process X is the discretized moving average of the driving
Brownian increments through a Volterra kernel: with K the kernel's
cell-average matrix, the path at the grid nodes is K @ increments.  The
observation channel mixes the driver W with an independent Brownian
motion W~ as a*W + b*W~ (`mix`); the noisy observation X^b feeds the
*mixed* increments through the same kernel, which makes it X + b*X~
with X~ an independent copy of X.  This module draws the increments;
the Monte Carlo feature maps apply K to them.

Randomness is counter-based: the increments of each (seed, path_index,
channel) triple come from their own Philox stream, keyed by
(seed, path_index << 1 | channel), so any path can be regenerated
bit-identically in isolation and batches are independent of how they are
chunked.  A block of paths builds one Philox per channel and re-keys it
for each path, rewinding its counter and emptying its buffer, instead of
building a generator per stream: the streams are the same, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .kernels import TimeGrid

_DRIVER_CHANNEL = 0
_DISTURBANCE_CHANNEL = 1

# Paths per noise batch.  Fixed so that the summation order, and with it
# every Monte Carlo statistic bit for bit, does not depend on the path count.
BATCH_PATHS = 8192


@dataclass(frozen=True)
class MixParams:
    """Observation channel coefficients for a*W + b*W~.

    The pair must satisfy a^2 + b^2 > 0; the fully degenerate channel
    carries no observation at all and the prediction gain a/(a^2+b^2)
    would be undefined.  So would every channel fraction if a^2 + b^2
    overflowed.
    """

    a: float
    b: float

    def __post_init__(self):
        norm = self.a * self.a + self.b * self.b
        if not 0.0 < norm < float("inf"):
            raise ValueError(f"degenerate observation channel: a^2 + b^2 = {norm!r} "
                             f"for a = {self.a!r}, b = {self.b!r}")

    @property
    def gain(self) -> float:
        """Coefficient a/(a^2+b^2) applied to observed increments."""
        return self.a / (self.a * self.a + self.b * self.b)

    @property
    def signal_fraction(self) -> float:
        """c = a^2/(a^2+b^2), the share of observed variance owed to the driver.

        Lies in [0, 1]; 1 means the driver is observed exactly (b = 0),
        0 means the observation is pure disturbance (a = 0).
        """
        return self.a * self.a / (self.a * self.a + self.b * self.b)

    @property
    def noise_fraction(self) -> float:
        """b^2/(a^2+b^2); unlike 1 - signal_fraction, precise as b -> 0."""
        return self.b * self.b / (self.a * self.a + self.b * self.b)


@dataclass(frozen=True)
class NoiseDraw:
    """One path's Brownian increments for both channels.

    driving : increments of the driver W over each grid cell.
    disturbing : increments of the independent disturbance W~.
    """

    driving: np.ndarray
    disturbing: np.ndarray
    seed: int
    path_index: int


def _increments(grid: TimeGrid, seed: int, path_indices: Iterable[int],
                channel: int) -> np.ndarray:
    """One channel's increments of each path, a (paths, cells) array.

    One Philox serves the whole block.  Before each row it is given back
    its fresh state (counter zero, buffer empty) under that stream's key,
    so row p is exactly what a new Philox(key=[seed, p << 1 | channel])
    draws.  Keys never repeat: the channel is a single bit.
    """
    indices = list(path_indices)
    out = np.empty((len(indices), grid.cells))
    bits = np.random.Philox(key=np.array([seed, channel], dtype=np.uint64))
    gen = np.random.Generator(bits)
    fresh = bits.state  # a copy: drawing does not change it
    for row, p in enumerate(indices):
        fresh["state"]["key"][:] = (seed, (p << 1) | channel)
        bits.state = fresh
        gen.standard_normal(out=out[row])
    out *= np.sqrt(grid.delta)
    return out


def draw_noise(grid: TimeGrid, seed: int, path_index: int) -> NoiseDraw:
    """Draw one path's increments; bit-identical for equal (seed, path_index).

    Each increment is centered Gaussian with variance delta, i.i.d. within
    a channel, and the two channels are independent.
    """
    dw, = _increments(grid, seed, [path_index], _DRIVER_CHANNEL)
    dwt, = _increments(grid, seed, [path_index], _DISTURBANCE_CHANNEL)
    return NoiseDraw(driving=dw, disturbing=dwt, seed=seed, path_index=path_index)


def noise_matrix(grid: TimeGrid, seed: int, path_indices: Iterable[int],
                 channel: int) -> np.ndarray:
    """Stack one channel's increments for many paths into a (paths, cells) array.

    Row p equals the corresponding `draw_noise` channel exactly, whatever
    the batching.
    """
    if channel not in (_DRIVER_CHANNEL, _DISTURBANCE_CHANNEL):
        raise ValueError(f"channel must be 0 (driver) or 1 (disturbance), got {channel}")
    return _increments(grid, seed, path_indices, channel)


@dataclass(frozen=True)
class Moments:
    """Count, mean vector and centred co-moment of per-path feature vectors.

    `comoment` is the sum over paths of the outer product of each path's
    deviation from `mean`.  `of` summarises one batch and `merge` folds two
    summaries together with the pairwise update of Chan, Golub & LeVeque
    (1979), which avoids the cancellation of sum-of-squares formulas.
    """

    count: int
    mean: np.ndarray
    comoment: np.ndarray

    @classmethod
    def of(cls, samples: np.ndarray) -> "Moments":
        """Moments of a (paths, features) array; the array is not modified."""
        mean = samples.mean(axis=0)
        centred = samples - mean
        return cls(samples.shape[0], mean, centred.T @ centred)

    def merge(self, other: "Moments") -> "Moments":
        count = self.count + other.count
        delta = other.mean - self.mean
        return Moments(
            count,
            self.mean + delta * (other.count / count),
            self.comoment + other.comoment
            + np.outer(delta, delta) * (self.count * other.count / count),
        )

    def covariance(self) -> np.ndarray:
        """Sample covariance matrix, divisor count - 1."""
        return self.comoment / (self.count - 1)


FeatureMap = Callable[[np.ndarray, np.ndarray], np.ndarray]


def noise_pass(grid: TimeGrid, seed: int, n_paths: int,
               features: Sequence[FeatureMap]) -> list[Moments]:
    """Moments of each feature map over paths 0 .. n_paths-1, drawing each path once.

    Blocks of `BATCH_PATHS` paths are drawn through `noise_matrix`, both
    channels, and handed to each feature map in turn as (dw, dwt) of shape
    (paths, cells).  A map returns a (paths, k) array and must not write to
    its inputs.  Block moments merge in path order.
    """
    totals: list = [None] * len(features)
    for start in range(0, n_paths, BATCH_PATHS):
        rows = range(start, min(start + BATCH_PATHS, n_paths))
        dw = noise_matrix(grid, seed, rows, channel=_DRIVER_CHANNEL)
        dwt = noise_matrix(grid, seed, rows, channel=_DISTURBANCE_CHANNEL)
        for i, feature in enumerate(features):
            block = Moments.of(feature(dw, dwt))
            totals[i] = block if totals[i] is None else totals[i].merge(block)
    return totals


def mix(noise: NoiseDraw, params: MixParams) -> np.ndarray:
    """Observed increments a*dW + b*dW~, cell by cell."""
    return params.a * noise.driving + params.b * noise.disturbing
