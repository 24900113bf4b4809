"""Noise for the hidden process and its noisy observation.

The hidden process X is the discretized moving average of the driving
Brownian increments through a Volterra kernel: with K the kernel's
cell-average matrix, the path at the grid nodes is K @ increments.  The
observation channel mixes the driver W with an independent Brownian
motion W~ as a*W + b*W~ (`mix`); the noisy observation X^b feeds the
*mixed* increments through the same kernel, which makes it X + b*X~
with X~ an independent copy of X.  This module draws the increments;
the Monte Carlo feature maps apply K to them.

Randomness is counter-based.  Paths come in noise blocks of
`min(BATCH_PATHS, max(1, BLOCK_ELEMENTS // cells))` paths, and channel c
of block k is one Philox stream, keyed by (seed, k << 1 | c) with its
counter from zero, whose normals fill the block row-major: path p is row
p - k*step of block k = p // step.  A whole block is then one draw, and
any path regenerates bit-identically from its block's prefix (at most
2^18 normals on a grid of up to 4096 cells).  The draws do not depend on
the path count or on how a caller chunks its indices, but
`BLOCK_ELEMENTS` and `BATCH_PATHS` define the streams: changing either
moves every Monte Carlo bit.  Path 0 heads block 0, so its streams are
those of the key (seed, c).

`noise_pass` bounds its memory by the grid alone: a block holds at most
`BLOCK_ELEMENTS` = 2^18 increments (2 MiB) per channel, whatever the path
count, and every block of a pass is drawn into the same buffer, the disturbance
on a worker thread; the bits do not depend on it or on the core count.  Its
feature maps return arrays they own, which `Moments` centres in place,
and `Moments` keeps the co-moments of a map's first `lead` columns with
every column, plus each column's sum of squares: a map with many
columns, only a few of which are cross-checked, costs lead x features
co-moments, not features^2.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .kernels import Refused, TimeGrid

_DRIVER_CHANNEL = 0
_DISTURBANCE_CHANNEL = 1

# Paths per noise block up to 32 cells; wider grids take fewer, so that a
# block of one channel holds at most BLOCK_ELEMENTS increments: 2 MiB, about
# one core's L2 cache, so the blocks and the feature arrays built from them
# no longer set a Monte Carlo run's peak memory.  The block size depends on
# the grid alone, so the streams and the summation order, and with them
# every Monte Carlo statistic bit for bit, do not depend on the path count
# or the machine.
BATCH_PATHS = 8192
BLOCK_ELEMENTS = 2**18


def _block_paths(cells: int) -> int:
    """Paths per noise block on a grid of `cells` cells."""
    return min(BATCH_PATHS, max(1, BLOCK_ELEMENTS // cells))


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
            raise Refused(f"degenerate observation channel: a^2 + b^2 = {norm!r} "
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
                channel: int, out: np.ndarray | None = None) -> np.ndarray:
    """One channel's increments of each path, a (paths, cells) array.

    Each block the indices touch is one Philox(key=[seed, k << 1 | channel])
    stream.  Indices that are exactly the leading rows of their block, in
    order, are drawn into `out` in one call; any others are read from their
    block's prefix, drawn up to the deepest row asked for.  Keys never
    repeat: the channel is a single bit.
    """
    if not 0 <= seed < 2**64:
        raise Refused(f"seed must lie in [0, 2**64), got {seed!r}")
    step = _block_paths(grid.cells)
    paths = np.fromiter(path_indices, dtype=np.int64)
    if out is None:
        out = np.empty((paths.size, grid.cells))
    blocks, rows = np.divmod(paths, step)
    for block in set(blocks.tolist()):
        at = np.flatnonzero(blocks == block)
        key = np.array([seed, block << 1 | channel], dtype=np.uint64)
        gen = np.random.Generator(np.random.Philox(key=key))
        if np.array_equal(rows[at], np.arange(at.size)) and at[-1] - at[0] == at.size - 1:
            gen.standard_normal(out=out[at[0]:at[-1] + 1])
        else:
            out[at] = gen.standard_normal((rows[at].max() + 1, grid.cells))[rows[at]]
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
                 channel: int, out: np.ndarray | None = None) -> np.ndarray:
    """Stack one channel's increments for many paths into a (paths, cells) array.

    Row p equals the corresponding `draw_noise` channel exactly, whatever
    the batching.  `out`, if given, is a C-contiguous float64 array of that
    shape; it is filled and returned.
    """
    if channel not in (_DRIVER_CHANNEL, _DISTURBANCE_CHANNEL):
        raise Refused(f"channel must be 0 (driver) or 1 (disturbance), got {channel}")
    return _increments(grid, seed, path_indices, channel, out)


@dataclass(frozen=True)
class Moments:
    """Count, mean vector and centred co-moments of per-path feature vectors.

    `comoment` is the sum over paths of the outer product of each path's
    deviation from `mean`, restricted to the first `lead` rows: shape
    (lead, features).  `squares` is every column's centred sum of squares,
    the full diagonal; for a lead column it equals the co-moment's
    diagonal entry bit for bit.  `of` summarises one batch and `merge`
    folds two summaries together with the pairwise update of Chan, Golub &
    LeVeque (1979), which avoids the cancellation of sum-of-squares
    formulas and holds for any block of the co-moment (Pebay 2008).
    """

    count: int
    mean: np.ndarray
    comoment: np.ndarray
    squares: np.ndarray

    @classmethod
    def of(cls, samples: np.ndarray, lead: int | None = None) -> "Moments":
        """Moments of a (paths, features) array, keeping the co-moments of its
        first `lead` columns (all by default).

        The array is centred in place: the caller must own it and not read
        it again.
        """
        lead = samples.shape[1] if lead is None else lead
        mean = samples.mean(axis=0)
        samples -= mean
        comoment = samples[:, :lead].T @ samples
        rest = samples[:, lead:]
        squares = np.concatenate((comoment.diagonal(), np.einsum("ij,ij->j", rest, rest)))
        return cls(samples.shape[0], mean, comoment, squares)

    def merge(self, other: "Moments") -> "Moments":
        count = self.count + other.count
        delta = other.mean - self.mean
        weight = self.count * other.count / count
        return Moments(
            count,
            self.mean + delta * (other.count / count),
            self.comoment + other.comoment
            + np.outer(delta[:len(self.comoment)], delta) * weight,
            self.squares + other.squares + delta * delta * weight,
        )

    def covariance(self) -> np.ndarray:
        """Sample co-variances of the lead columns with every column, divisor count - 1."""
        return self.comoment / (self.count - 1)


def half_exponents(variances, names: Sequence[str], zero=False) -> np.ndarray:
    """Exponents h that bring each variance times 4^-h into [1/2, 2).

    Feature maps scale a column of variance v by 2^-h and undo it with `np.ldexp`:
    exact away from subnormals and commuting with `Moments`, so statistics keep
    their bits and moments stay near 1.  A v that is 0, subnormal, inf or nan
    raises `Refused` naming its column, unless `zero` marks it exactly zero.
    """
    variances = np.asarray(variances, dtype=float)
    bad = np.flatnonzero(~(zero | (np.isfinite(variances) & (variances >= np.finfo(float).tiny))))
    if bad.size:
        raise Refused(f"{names[bad[0]]} has analytic scale {float(variances[bad[0]])!r}, "
                      "not a positive normal float")
    return np.where(zero, 0, np.frexp(variances)[1] // 2)


FeatureMap = Callable[[np.ndarray, np.ndarray], np.ndarray]


def _draw_block(grid: TimeGrid, seed: int, rows: range, out: np.ndarray) -> np.ndarray:
    """Draw `rows` of the driver into `out[0]` on this thread and of the disturbance
    into `out[1]` on a worker thread, joined before this returns."""
    failed: list[BaseException] = []

    def disturbance():
        try:
            noise_matrix(grid, seed, rows, _DISTURBANCE_CHANNEL, out=out[1])
        except BaseException as error:  # raised again on the calling thread
            failed.append(error)
    worker = threading.Thread(target=disturbance, name="volmix-disturbance")
    worker.start()
    try:
        noise_matrix(grid, seed, rows, _DRIVER_CHANNEL, out=out[0])
    finally:
        worker.join()
    if failed:
        raise failed[0]
    return out


def noise_pass(grid: TimeGrid, seed: int, n_paths: int,
               features: Sequence[FeatureMap]) -> list[Moments]:
    """Moments of each feature map over paths 0 .. n_paths-1, drawing each path once.

    Blocks of `BATCH_PATHS` paths, fewer where that many would exceed
    `BLOCK_ELEMENTS` increments (1024 paths at 256 cells, 64 at 4096), are
    drawn through `noise_matrix`, both channels, into one buffer that every
    block of the pass reuses (the disturbance on a worker thread while this
    thread draws the driver; the bits do not depend on it or on the core
    count), and handed to each feature map in turn as
    (dw, dwt) of shape (paths, cells).  A map returns a (paths, k) array
    that it owns: a new array, not `dw`, `dwt` or a view of them, since
    `Moments.of` centres it in place and the next block overwrites the
    buffer.  A map must not write to its inputs.  A map with an int
    attribute `lead` keeps the co-moments of only that many leading columns
    with every column (see `Moments`); without one it keeps all.  Block
    moments merge in path order.  Sample variances need two paths, so
    `n_paths` below 2 is refused before any noise is drawn.
    """
    if n_paths < 2:
        raise Refused(f"n_paths must be >= 2, got {n_paths}")
    step = _block_paths(grid.cells)
    buffer = np.empty((2, min(step, n_paths), grid.cells))
    totals: list = [None] * len(features)
    for start in range(0, n_paths, step):
        rows = range(start, min(start + step, n_paths))
        dw, dwt = _draw_block(grid, seed, rows, buffer[:, :len(rows)])
        for i, feature in enumerate(features):
            samples = feature(dw, dwt)
            if np.may_share_memory(samples, dw) or np.may_share_memory(samples, dwt):
                raise Refused("a feature map must return an array it owns, "
                              "not its input or a view of it")
            block = Moments.of(samples, getattr(feature, "lead", None))
            totals[i] = block if totals[i] is None else totals[i].merge(block)
            del samples, block  # before the next map's array or block is made
        del dw, dwt
    return totals


def mix(noise: NoiseDraw, params: MixParams) -> np.ndarray:
    """Observed increments a*dW + b*dW~, cell by cell."""
    return params.a * noise.driving + params.b * noise.disturbing
