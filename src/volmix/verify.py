"""Invariant check suite behind the `verify` experiment kind.

Each check reduces to one row (name, statistic, tolerance, pass) with the
uniform convention that the check passes when statistic <= tolerance.
Exact identities carry tolerance 0 or the library's rounding tolerances.
Monte Carlo comparisons are expressed as z-scores: single comparisons get
tolerance 3, while rows that report the worst of m comparisons get the
familywise 3-sigma quantile for m draws (Sidak), which is conservative
when the comparisons correlate positively.  Either way a systematic bias
grows with the path count and blows through the threshold, while honest
sampling noise stays below it at the 3-sigma confidence.

Checks that probe a specific construction (the fractional kernel ladder,
the measurement-error study) fix their own kernels; the generic identity
and moment checks run on the kernel, grid, channel, seed, and path count
from the experiment config.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .kernels import (
    PSD_RTOL,
    BrownianIdentity,
    ExponentialOU,
    Refused,
    RiemannLiouville,
    TimeGrid,
    cell_average_matrix,
    certified_defect,
    covariance,
    covariance_matrix,
)
from .mse import MC_Z_TOL, study, z_score
from .predict import (
    conditional_covariance_matrix,
    conditional_mean_path,
    observation_weight,
    present_variance,
    rho_to_mix,
)
from .simulate import MixParams, draw_noise, half_exponents, mix, noise_pass

# Exact identities are spot-checked at arbitrary but *fixed* probe points
# (tuples, node pairs, one frozen path) so that their statistics never
# depend on the Monte Carlo seed; only z-score rows respond to it.
POINT_SEED = 1851953191

EXACT_TOL = 0.0
ROUNDING_RTOL = 1e-12

# The fixed kernels, each built once: `_check_closed_vs_direct` runs them all,
# `_check_rl_half_matches_bm` the H = 1/2 one and `_check_ladder` the H = 0.75 one.
ZOO = (BrownianIdentity(), RiemannLiouville(0.25), RiemannLiouville(0.5),
       RiemannLiouville(0.75), ExponentialOU(decay=1.0, scale=1.0))
# Simulated whatever the config: `_check_residuals` runs both, `_check_mse` the first.
MONTE_CARLO_KERNELS = (ZOO[0], ZOO[3])
# The channels `_check_residuals` observes both kernels through.
RESIDUAL_CHANNELS = (MixParams(1.0, 1.0), MixParams(0.6, 0.8))


@dataclass(frozen=True)
class CheckResult:
    name: str
    statistic: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.statistic <= self.tolerance


def _rel_diff(x: float, y: float) -> float:
    scale = max(abs(x), abs(y))
    if scale == 0.0:
        return 0.0
    return abs(x - y) / scale


def _family_z_tol(comparisons: int) -> float:
    """Familywise 3-sigma threshold for the max of several z-scores."""
    if comparisons <= 1:
        return MC_Z_TOL
    single = math.erf(MC_Z_TOL / math.sqrt(2.0))
    return NormalDist().inv_cdf(0.5 * (1.0 + single ** (1.0 / comparisons)))


# ------------------------------------------------------------------ oracles


def conditional_covariance(cell_averages: np.ndarray, params: MixParams,
                           u: float, t: float, s: float, grid: TimeGrid) -> float:
    """Conditional covariance of (X_t, X_s) given observations up to u.

    Direct two-term quadrature on rows of the cell averages: cells below
    min(t, s) carry the factor (1 - c * [cell below u])^2, and cells below
    u add c*(1-c) times the kernel product, c = a^2/(a^2+b^2).
    """
    it, i_s, iu = grid.index_of(t), grid.index_of(s), grid.index_of(u)
    c = params.signal_fraction
    prod = cell_averages[it] * cell_averages[i_s]
    m = min(it, i_s)
    damp = np.ones(grid.cells)
    damp[:iu] = (1.0 - c) ** 2
    first = float(np.dot(damp[:m], prod[:m])) * grid.delta
    second = c * (1.0 - c) * float(np.sum(prod[:iu])) * grid.delta
    return first + second


# ----------------------------------------------------------------- exact checks
#
# Checks on the configured kernel share one contiguous copy of its cell
# averages, which the matrix products use as it is instead of copying a view
# on every call.  Checks on other kernels read rows of their lag-average views.


def _check_closed_vs_direct(grid: TimeGrid) -> CheckResult:
    """Direct two-term quadrature against the weighted-factor matrix."""
    rng = np.random.default_rng(POINT_SEED)
    draws = [(MixParams(a=float(rng.uniform(-2.0, 2.0)), b=float(rng.uniform(0.1, 2.0))),
              *(int(v) for v in rng.integers(0, grid.cells + 1, size=3)))
             for _ in range(100)]
    worst = 0.0
    for k, kernel in enumerate(ZOO):  # tuple i goes to kernel i % len(ZOO)
        averages = cell_average_matrix(kernel, grid)
        for params, it, i_s, iu in draws[k::len(ZOO)]:
            t, s, u = grid.node(it), grid.node(i_s), grid.node(iu)
            direct = conditional_covariance(averages, params, u, t, s, grid)
            closed = conditional_covariance_matrix(averages[[it, i_s]], params, u, grid)
            worst = max(worst, _rel_diff(direct, closed[0, 1]))
    return CheckResult("closed_form_vs_direct_quadrature", worst, ROUNDING_RTOL)


def _check_b_zero_variance(grid: TimeGrid, averages) -> CheckResult:
    """Noise-free channel: conditional variance collapses to 0 below u."""
    iu = grid.cells // 2
    u = grid.node(iu)
    step = max(1, grid.cells // 16)
    rows = averages[step:iu + 1:step]
    variance = np.diag(covariance_matrix(rows, grid))
    seen = variance != 0.0
    worst = 0.0
    for a in (0.5, 1.0, 3.0):
        params = MixParams(a=a, b=0.0)
        value = np.diag(conditional_covariance_matrix(rows, params, u, grid))
        worst = max(worst, float(np.max(np.abs(value[seen]) / variance[seen], initial=0.0)))
    return CheckResult("b_zero_variance_collapse", worst, ROUNDING_RTOL)


def _check_b_zero_mean(grid: TimeGrid, averages) -> CheckResult:
    """Noise-free channel: conditional mean equals the plain driver prediction."""
    noise = draw_noise(grid, POINT_SEED, 0)
    iu = grid.cells // 2
    u = grid.node(iu)
    nodes = [grid.cells // 4, grid.cells // 2, 3 * grid.cells // 4, grid.cells]
    plain = averages[nodes, :iu] @ noise.driving[:iu]
    worst = 0.0
    for a in (0.5, 1.0, 3.0):
        mean = conditional_mean_path(averages, MixParams(a=a, b=0.0), a * noise.driving,
                                     u, grid)
        worst = max(worst, *(_rel_diff(x, y) for x, y in zip(mean[nodes], plain)))
    return CheckResult("b_zero_mean_matches_driver_prediction", worst, ROUNDING_RTOL)


def _check_covariance_symmetry(grid: TimeGrid, averages) -> CheckResult:
    rng = np.random.default_rng(POINT_SEED + 1)
    worst = 0.0
    for _ in range(8):
        it, i_s = (int(v) for v in rng.integers(0, grid.cells + 1, size=2))
        t, s = grid.node(it), grid.node(i_s)
        worst = max(worst, abs(covariance(averages, t, s, grid)
                               - covariance(averages, s, t, grid)))
    return CheckResult("covariance_symmetry", worst, EXACT_TOL)


def _check_covariance_psd(grid: TimeGrid, averages) -> CheckResult:
    defect = certified_defect(averages, np.ones(grid.cells), grid.delta,
                              lambda: covariance_matrix(averages, grid))
    return CheckResult("covariance_psd_defect", defect, PSD_RTOL)


def _check_prediction_psd(grid: TimeGrid, averages, params: MixParams) -> CheckResult:
    u = grid.node(grid.cells // 2)
    defect = certified_defect(averages, observation_weight(params, u, grid), grid.delta,
                              lambda: conditional_covariance_matrix(averages, params, u, grid))
    return CheckResult("conditional_covariance_psd_defect", defect, PSD_RTOL)


def _check_cross_monotone(grid: TimeGrid, averages) -> CheckResult:
    """The integral of k(t, v) k(s, v) over [0, min(u, t, s)], the covariance of the
    part of X that the increments below u drive (cell-average columns below u),
    is nondecreasing in u and caps at the covariance."""
    t = grid.node(3 * grid.cells // 4)
    s = grid.node(grid.cells)
    step = max(1, grid.cells // 16)
    values = [covariance(averages[:, :iu], t, s, grid)
              for iu in range(0, grid.cells + 1, step)]
    worst = max((prev - curr for prev, curr in zip(values, values[1:])), default=0.0)
    cap_gap = abs(values[-1] - covariance(averages, t, s, grid))
    return CheckResult("cross_integral_monotone_in_u", max(worst, cap_gap), EXACT_TOL)


def _check_information_monotone(grid: TimeGrid, averages,
                                params: MixParams) -> CheckResult:
    """More observation never increases the conditional variance."""
    row = averages[[3 * grid.cells // 4]]
    step = max(1, grid.cells // 16)
    values = [conditional_covariance_matrix(row, params, grid.node(i), grid)[0, 0]
              for i in range(0, grid.cells + 1, step)]
    worst = max((curr - prev for prev, curr in zip(values, values[1:])), default=0.0)
    return CheckResult("conditional_variance_monotone_in_u", worst, EXACT_TOL)


def _check_full_information(grid: TimeGrid, averages, params: MixParams) -> CheckResult:
    """At u = horizon the covariance shrinks by exactly 1 - c = b^2/(a^2+b^2) everywhere."""
    rows = averages[::max(1, grid.cells // 8)]
    value = conditional_covariance_matrix(rows, params, grid.horizon, grid)
    target = params.noise_fraction * covariance_matrix(rows, grid)
    worst = max(_rel_diff(x, y) for x, y in zip(value.flat, target.flat))
    return CheckResult("full_information_covariance", worst, ROUNDING_RTOL)


def _check_rl_half_matches_bm(grid: TimeGrid) -> CheckResult:
    """The H = 1/2 fractional kernel gives the Brownian min(t, s) and min(t, s, u)."""
    averages = cell_average_matrix(ZOO[2], grid)
    rng = np.random.default_rng(POINT_SEED + 2)
    worst = 0.0
    for _ in range(8):
        it, i_s, iu = (int(v) for v in rng.integers(0, grid.cells + 1, size=3))
        t, s, u = grid.node(it), grid.node(i_s), grid.node(iu)
        worst = max(worst, _rel_diff(covariance(averages, t, s, grid), min(t, s)))
        worst = max(worst, _rel_diff(covariance(averages[:, :iu], t, s, grid),
                                     min(t, s, u)))
    return CheckResult("rl_half_matches_bm", worst, ROUNDING_RTOL)


def _check_ladder() -> list[CheckResult]:
    """Relative self-covariance error of the H=0.75 kernel as cells double."""
    exact = 1.0 / (1.5 * math.gamma(1.25) ** 2)
    errors = []
    for cells in (64, 128, 256, 512):
        grid = TimeGrid(horizon=1.0, cells=cells)
        approx = covariance(cell_average_matrix(ZOO[3], grid), 1.0, 1.0, grid)
        errors.append(abs(approx - exact) / exact)
    worst = max(curr - prev for prev, curr in zip(errors, errors[1:]))
    return [CheckResult("quadrature_error_monotone", worst, EXACT_TOL),
            CheckResult("quadrature_error_at_512_cells", errors[-1], 1e-3)]


def _check_present_variance_small_b(grid: TimeGrid, averages) -> CheckResult:
    """present_variance / b^2 approaches r(u,u) at the 1/(1+b^2) rate."""
    u = grid.horizon
    base = covariance(averages, u, u, grid)
    worst = 0.0
    for b in (1e-1, 1e-2, 1e-3):
        value = present_variance(averages, MixParams(a=1.0, b=b), u, grid) / (b * b)
        target = base / (1.0 + b * b)
        worst = max(worst, _rel_diff(value, target))
    return CheckResult("present_variance_small_b_rate", worst, 1e-10)


def _check_degenerate_rejected() -> CheckResult:
    try:
        MixParams(a=0.0, b=0.0)
    except Refused:
        return CheckResult("degenerate_channel_rejected", 0.0, 0.5)
    return CheckResult("degenerate_channel_rejected", 1.0, 0.5)


def _check_rho_expansion() -> CheckResult:
    params = rho_to_mix(0.6)
    err = abs(params.a - 0.6) + abs(params.b - 0.8)
    return CheckResult("rho_expansion_three_four_five", err, 1e-15)


def _check_rho_zero_mean(grid: TimeGrid, averages) -> CheckResult:
    params = rho_to_mix(0.0)
    noise = draw_noise(grid, POINT_SEED, 1)
    mean = conditional_mean_path(averages, params, mix(noise, params), grid.horizon, grid)
    return CheckResult("rho_zero_mean_identically_zero", float(np.max(np.abs(mean))), EXACT_TOL)


# ----------------------------------------------------------- Monte Carlo checks
#
# Each check returns a feature map for the shared noise pass and a function
# that turns the moments of those features into result rows.


def _covariance_z(sample_cov: np.ndarray, target: np.ndarray, n_paths: int) -> float:
    """Largest |z| comparing a sample covariance matrix to its target."""
    diag = np.diag(target)
    spread = np.sqrt((np.outer(diag, diag) + target * target) / n_paths)
    return float(np.max(np.abs(sample_cov - target) / spread))


def _check_residuals(grid: TimeGrid):
    """Residuals (hidden value minus conditional mean given observations up
    to u) for two kernels by two channels against the conditional covariance,
    at t = s = u for the first (Brownian, (1, 1)) combination, and for
    Riemann-Liouville under (1, 1) against the observed path below u.

    The features are the 20 residual columns, then the observed path at
    the cells/2 nodes below u.  The residual columns are the lead: only
    their co-moments with every column are kept, which holds both the
    residual covariance blocks and their cross block with the path.  The
    path's standard deviations come from the sums of squares.  At 4096
    cells that keeps 20 x 2068 co-moments per block instead of 2068^2.
    Columns and targets share the scaling of `half_exponents`: z-scores keep their bits."""
    u_index = grid.cells // 2
    t_indices = [grid.cells // 4, 3 * grid.cells // 8, grid.cells // 2,
                 3 * grid.cells // 4, grid.cells]
    u = grid.node(u_index)
    m = len(t_indices)
    bm, rl = (cell_average_matrix(kernel, grid) for kernel in MONTE_CARLO_KERNELS)
    # Rows of the cell averages at t_indices, one set per kernel; combination
    # k is row set k // 2 under channel k % 2, with its conditional covariance.
    row_sets = (bm[t_indices], rl[t_indices])
    targets = [conditional_covariance_matrix(rows, params, u, grid)
               for rows in row_sets for params in RESIDUAL_CHANNELS]
    orthogonal = [2 * m + t_indices.index(i)  # the third combination's columns
                  for i in (grid.cells // 4, 3 * grid.cells // 4, grid.cells)]
    observed = len(targets) * m
    slot = t_indices.index(u_index)
    paths = 2.0 * grid.nodes[1:u_index + 1]  # the observed path's variances, 2 t on (1, 1)
    half = half_exponents(np.concatenate([*map(np.diag, targets), paths]), np.repeat(
        ["residual_covariance_max_z", "residual_orthogonality_max_z"], [observed, u_index]))
    targets = [np.ldexp(target, -np.add.outer(h, h))
               for target, h in zip(targets, np.split(half[:observed], len(targets)))]
    analytic = np.ldexp(present_variance(bm, RESIDUAL_CHANNELS[0], u, grid), -2 * half[slot])

    def features(dw, dwt):
        out = np.empty((len(dw), observed + u_index))
        k = 0
        for rows in row_sets:  # the channels share the three products of a row set
            seen = rows[:, :u_index].T
            hidden = dw @ rows.T
            driven = dw[:, :u_index] @ seen
            disturbed = dwt[:, :u_index] @ seen
            for params in RESIDUAL_CHANNELS:
                weighted = params.a * driven + params.b * disturbed
                out[:, k * m:(k + 1) * m] = hidden - params.gain * weighted
                k += 1
        path = out[:, observed:]  # observed under channel (1, 1)
        np.add(dw[:, :u_index], dwt[:, :u_index], out=path)
        np.cumsum(path, axis=1, out=path)
        return np.ldexp(out, -half, out=out)

    def finish(moments):
        n = moments.count
        cov = moments.covariance()
        sd = np.sqrt(moments.squares / (n - 1))
        z = cov[orthogonal, observed:] / (np.outer(sd[orthogonal], sd[observed:]) / math.sqrt(n))
        worst = 0.0
        for k, target in enumerate(targets):
            block = cov[k * m:(k + 1) * m, k * m:(k + 1) * m]
            worst = max(worst, _covariance_z(block, target, n))
        present_z = abs(cov[slot, slot] - analytic) / (analytic * math.sqrt(2.0 / n))
        family = len(targets) * m * (m + 1) // 2
        return [
            CheckResult("residual_orthogonality_max_z",
                        float(np.max(np.abs(z))), _family_z_tol(z.size)),
            CheckResult("residual_covariance_max_z", worst, _family_z_tol(family)),
            CheckResult("present_variance_mc_z", float(present_z), MC_Z_TOL),
        ]

    features.lead = observed
    return features, finish


def _check_unconditional_moments(grid: TimeGrid, averages, params: MixParams):
    """Moments with no conditioning: increment variance and channel
    independence at cell 0, Var/Cov of the hidden process, independence
    of its twin, and the variance of the noisy observation."""
    t_indices = [grid.cells // 4, grid.cells // 2, grid.cells]
    rows = averages[t_indices]
    target = covariance_matrix(rows, grid)
    b = params.b
    target_obs = (1.0 + b * b) * covariance(averages, grid.horizon, grid.horizon, grid)
    m = len(t_indices)
    hidden = slice(2, 2 + m)
    x_t, xt_t, xb_t = m + 1, m + 2, m + 3  # hidden, twin and observation at T
    half = half_exponents([grid.delta, grid.delta, *np.diag(target), target[-1, -1], target_obs],
                          ["noise_increment_variance_z"] * 2 + ["hidden_moments_max_z"] * m
                          + ["hidden_twin_correlation_z", "observed_variance_inflation_z"])
    target = np.ldexp(target, -np.add.outer(half[hidden], half[hidden]))
    delta, target_obs = np.ldexp([grid.delta, target_obs], -2 * half[[0, xb_t]])

    def features(dw, dwt):
        x = dw @ rows.T
        twin = dwt @ rows[-1]
        out = np.column_stack((dw[:, 0], dwt[:, 0], x, twin, x[:, -1] + b * twin))
        return np.ldexp(out, -half, out=out)

    def finish(moments):
        n = moments.count
        raw = moments.comoment[:2, :2] / n + np.outer(moments.mean[:2], moments.mean[:2])
        var_z = max(abs(raw[i, i] / delta - 1.0) * math.sqrt(n / 2.0) for i in (0, 1))
        corr = raw[0, 1] / math.sqrt(raw[0, 0] * raw[1, 1])
        cov = moments.covariance()
        moment_z = _covariance_z(cov[hidden, hidden], target, n)
        twin_z = abs(cov[x_t, xt_t] / math.sqrt(cov[x_t, x_t] * cov[xt_t, xt_t])) * math.sqrt(n)
        obs_z = abs(cov[xb_t, xb_t] - target_obs) / (target_obs * math.sqrt(2.0 / n))
        return [
            CheckResult("noise_increment_variance_z", var_z, _family_z_tol(2)),
            CheckResult("noise_channel_correlation_z", abs(corr) * math.sqrt(n), MC_Z_TOL),
            CheckResult("hidden_moments_max_z", moment_z, _family_z_tol(m * (m + 1) // 2)),
            CheckResult("hidden_twin_correlation_z", twin_z, MC_Z_TOL),
            CheckResult("observed_variance_inflation_z", obs_z, MC_Z_TOL),
        ]

    return features, finish


def _check_mse(grid: TimeGrid, b_values):
    """Both measurement-error estimators against their analytic errors."""
    features, reports = study(cell_average_matrix(MONTE_CARLO_KERNELS[0], grid),
                              [(grid.horizon, b) for b in b_values], grid)

    def finish(moments):
        return [CheckResult(f"mse_{name}_z[b={report.b:g}]",
                            z_score(*(getattr(report, f"{name}_{field}")
                                      for field in ("mc", "se", "analytic"))), MC_Z_TOL)
                for report in reports(moments) for name in ("naive", "filtered")]

    return features, finish


def run_checks(kernel, grid: TimeGrid, channel: MixParams,
               b_values, n_paths: int, seed: int) -> list[CheckResult]:
    """Run the whole suite; deterministic for fixed inputs."""
    averages = np.ascontiguousarray(cell_average_matrix(kernel, grid))
    checks = [
        _check_closed_vs_direct(grid),
        _check_b_zero_variance(grid, averages),
        _check_b_zero_mean(grid, averages),
        _check_covariance_symmetry(grid, averages),
        _check_covariance_psd(grid, averages),
        _check_prediction_psd(grid, averages, channel),
        _check_cross_monotone(grid, averages),
        _check_information_monotone(grid, averages, channel),
        _check_full_information(grid, averages, channel),
        _check_rl_half_matches_bm(grid),
        *_check_ladder(),
        _check_present_variance_small_b(grid, averages),
        _check_degenerate_rejected(),
        _check_rho_expansion(),
        _check_rho_zero_mean(grid, averages),
    ]
    monte_carlo = [
        _check_unconditional_moments(grid, averages, channel),
        _check_residuals(grid),
        _check_mse(grid, b_values),
    ]
    del averages  # the noise pass holds only the rows each feature map reads
    moments = noise_pass(grid, seed, n_paths, [features for features, _ in monte_carlo])
    for (_, finish), summary in zip(monte_carlo, moments):
        checks.extend(finish(summary))
    return checks
