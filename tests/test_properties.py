"""Identities of the conditional law that hold to rounding over the whole parameter range.

Each property draws a kernel (bm, rl with H in (0.01, 0.99), ou with theta
in [1e-14, 1e3]), a horizon in [1e-6, 1e6], 4-256 cells, b in [1e-12, 1e4]
and observation times anywhere on the grid; the channel is (1, b).  The
bm covariance identity draws only the grid.  The draws are derandomized,
so every run checks the same examples.  The Monte Carlo study's scaling
property draws only a power of two.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from volmix.kernels import (
    BrownianIdentity,
    ExponentialOU,
    RiemannLiouville,
    TimeGrid,
    cell_average_matrix,
    covariance_matrix,
)
from volmix.mse import variance_reduction_report
from volmix.predict import conditional_covariance_matrix, present_variance
from volmix.simulate import MixParams

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)
U = 2.0 ** -53  # unit roundoff
ETA = 2.0 ** -1074  # smallest subnormal


def _decades(low, high):
    return st.floats(low, high).map(lambda e: 10.0 ** e)


kernels = st.one_of(
    st.just(BrownianIdentity()),
    st.floats(0.01, 0.99, exclude_min=True, exclude_max=True).map(RiemannLiouville),
    _decades(-14, 3).map(ExponentialOU),
)


grids = st.builds(TimeGrid, _decades(-6, 6), st.integers(4, 256))


@st.composite
def setups(draw):
    """A kernel's cell averages on its grid, and a channel (1, b)."""
    grid = draw(grids)
    return cell_average_matrix(draw(kernels), grid), grid, MixParams(1.0, draw(_decades(-12, 4)))


def _underflow(grid):
    # Each underflowing rounding adds at most eta / 2: at most n in K * w (times
    # K_ij, which is below 1e24 * tiny when K_ij w_j underflows, as w_j >= 1e-24),
    # n in the products of the dot product, all n then scaled by delta, and one in
    # each later scaling or halving.
    return (2 * grid.cells + 2) * (1.0 + grid.delta) * ETA


@PROPERTY
@given(setup=setups(), data=st.data())
def test_lag_kernel_conditional_covariance_is_a_shifted_copy(setup, data):
    # Cells from u on carry weight 1 = nf + sf, and for a kernel in t - s their
    # part of r(t_i, t_j) is R[i - iu, j - iu], so C = nf R + sf shift(R).  Each
    # of C and R is within gamma_{n+3} sqrt(r(t,t) r(s,s)) of its exact value entry
    # by entry (the argument of `gram_defect_bound`), and nf + sf = 1 to rounding;
    # the combination adds two roundings.  4 (n + 3) u covers all of it.
    averages, grid, params = setup
    iu = data.draw(st.integers(0, grid.cells))
    full = covariance_matrix(averages, grid)
    shifted = np.zeros_like(full)
    shifted[iu:, iu:] = full[:grid.cells + 1 - iu, :grid.cells + 1 - iu]
    expected = params.noise_fraction * full + params.signal_fraction * shifted
    got = conditional_covariance_matrix(averages, params, grid.node(iu), grid)
    scale = np.sqrt(np.outer(np.diag(full), np.diag(full)))
    assert np.all(np.abs(got - expected) <= 4 * (grid.cells + 3) * 2.0 ** -53 * scale)


@PROPERTY
@given(setup=setups(), data=st.data())
def test_conditional_variance_never_grows_with_u(setup, data):
    # Each term of delta * sum_j w_j K_ij^2 shrinks or stays as w_j drops from 1
    # to nf, and rounding is monotone, so the order holds exactly.
    averages, grid, params = setup
    rows = averages[sorted(data.draw(st.sets(st.integers(0, grid.cells), min_size=1,
                                             max_size=8)))]
    observed = sorted(data.draw(st.lists(st.integers(0, grid.cells), min_size=2, max_size=6)))
    variances = [np.diag(conditional_covariance_matrix(rows, params, grid.node(iu), grid))
                 for iu in observed]
    assert all(np.all(later <= earlier) for earlier, later in zip(variances, variances[1:]))


@PROPERTY
@given(setup=setups(), data=st.data())
def test_noise_free_channel_pins_the_observed_past(setup, data):
    # At b = 0 the observed cells weigh 0, and a node at or below u reads only those.
    averages, grid, _ = setup
    iu = data.draw(st.integers(0, grid.cells))
    cov = conditional_covariance_matrix(averages, MixParams(1.0, 0.0), grid.node(iu), grid)
    assert not cov[:iu + 1].any() and not cov[:, :iu + 1].any()


@PROPERTY
@given(setup=setups(), data=st.data())
def test_observing_never_adds_variance(setup, data):
    # Exactly, delta sum_j w_j K_ij^2 <= delta sum_j K_ij^2 since w_j <= 1.  Both
    # sums have nonnegative terms, so as in `gram_defect_bound` the computed
    # conditional diagonal is within gamma_{n+3} of its exact value, relative, and
    # the unconditional one (a different BLAS routine) within gamma_{n+1}.  Hence
    # C_ii <= R_ii (1 + gamma) / (1 - gamma) + underflow, and 3 (n + 3) u bounds
    # 2 gamma / (1 - gamma) for n <= 256.
    averages, grid, params = setup
    iu = data.draw(st.integers(0, grid.cells))
    conditional = np.diag(conditional_covariance_matrix(averages, params, grid.node(iu), grid))
    full = np.diag(covariance_matrix(averages, grid))
    tolerance = 3 * (grid.cells + 3) * U * full + 2 * _underflow(grid)
    assert np.all(conditional - full <= tolerance)


@PROPERTY
@given(setup=setups(), data=st.data())
def test_present_variance_is_the_conditional_diagonal_at_u(setup, data):
    # Both are nf delta ||K_u||^2.  `present_variance` rounds a length-n dot product,
    # the scaling by delta and the product with nf; the matrix rounds K * nf, a dot
    # product and the scaling, and then halves and doubles exactly.  So they agree
    # within 2 gamma_{n+2} of the entry, below 4 (n + 2) u of it, plus underflow.
    # Forming the entry as r - c r instead would miss by about u r = u entry / nf,
    # up to 1e24 times more at b = 1e-12.
    averages, grid, params = setup
    iu = data.draw(st.integers(0, grid.cells))
    u = grid.node(iu)
    present = present_variance(averages, params, u, grid)
    entry = conditional_covariance_matrix(averages[[iu]], params, u, grid)[0, 0]
    assert abs(present - entry) <= 4 * (grid.cells + 2) * U * entry + 2 * _underflow(grid)


@PROPERTY
@given(grid=grids)
def test_brownian_covariance_is_the_smaller_time(grid):
    # A node t_k = fl(fl(h k) / n) is within 2u t_k of h k / n, and the difference of
    # two neighbours is exact (Sterbenz), so a cell average, that difference over
    # delta, is within (4k + 2) u <= (4n + 2) u of 1.  r(t_i, t_j) sums min(i, j)
    # products of two of them (gamma_n) and scales by delta (u), and min(t, s) is a
    # node again (2u): (9n + 7) u in all, below 10 (n + 1) u.
    averages = cell_average_matrix(BrownianIdentity(), grid)
    smaller = np.minimum.outer(grid.nodes, grid.nodes)
    got = covariance_matrix(averages, grid)
    assert np.all(np.abs(got - smaller) <= 10 * (grid.cells + 1) * U * smaller)


STUDY_GRID = TimeGrid(1.0, 16)
_STUDY_FIELDS = [f"{name}_{field}" for name in ("naive", "filtered")
                 for field in ("analytic", "mc", "se")]


def _study(sigma):
    rows = variance_reduction_report(ExponentialOU(1.0, sigma), [0.5, 1.0, 2.0], [1.0],
                                     500, 7, STUDY_GRID)
    return np.array([[getattr(row, name) for name in _STUDY_FIELDS] for row in rows])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(k=st.integers(-500, 500))
def test_study_scales_exactly_with_the_kernel(k):
    # Scaling sigma by 2^k scales the cell averages and increments' images by
    # 2^k exactly, so every error, analytic or Monte Carlo, and every standard
    # error by 4^k, bit for bit: the study's own power-of-two scaling keeps all
    # of them out of the subnormal and overflow ranges.
    assert np.array_equal(_study(2.0 ** k), np.ldexp(_study(1.0), 2 * k))
