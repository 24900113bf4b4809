"""Identities of the conditional law that hold to rounding over the whole parameter range.

Each property draws a kernel (bm, rl with H in (0.01, 0.99), ou with theta
in [1e-14, 1e3]), a horizon in [1e-6, 1e6], 4-256 cells, b in [1e-12, 1e4]
and observation times anywhere on the grid; the channel is (1, b).  The
draws are derandomized, so every run checks the same examples.
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
from volmix.predict import conditional_covariance_matrix
from volmix.simulate import MixParams

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)


def _decades(low, high):
    return st.floats(low, high).map(lambda e: 10.0 ** e)


kernels = st.one_of(
    st.just(BrownianIdentity()),
    st.floats(0.01, 0.99, exclude_min=True, exclude_max=True).map(RiemannLiouville),
    _decades(-14, 3).map(ExponentialOU),
)


@st.composite
def setups(draw):
    """A kernel's cell averages on its grid, and a channel (1, b)."""
    grid = TimeGrid(draw(_decades(-6, 6)), draw(st.integers(4, 256)))
    return cell_average_matrix(draw(kernels), grid), grid, MixParams(1.0, draw(_decades(-12, 4)))


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
