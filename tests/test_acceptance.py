"""Acceptance suite: one test per criterion, one printed line per criterion.

Desk scale throughout: horizon 1, 256 cells, 200_000 Monte Carlo paths,
seed 42.  Monte Carlo bands are 3 standard errors at that scale; exact
identities use the library's rounding tolerances.  Run with `pytest -s`
to see the per-criterion lines.
"""

import math

import numpy as np
import pytest

from volmix.cli import main as cli_main
from volmix.kernels import (
    BrownianIdentity,
    ExponentialOU,
    RiemannLiouville,
    TimeGrid,
    cell_average_matrix,
    covariance,
)
from volmix.mse import variance_reduction_report
from volmix.predict import (
    conditional_covariance,
    conditional_covariance_closed,
    conditional_mean,
    present_variance,
    rho_to_mix,
)
from volmix.simulate import MixParams, draw_noise, noise_pass

GRID = TimeGrid(horizon=1.0, cells=256)
N_PATHS = 200_000
SEED = 42

U_INDEX = 128                      # observation time 0.5
SUBGRID = [64, 96, 128, 192, 256]  # five nodes straddling the observation time


def _report(number: int, label: str, ok: bool, detail: str = "") -> None:
    suffix = f"  [{detail}]" if detail else ""
    print(f"criterion {number} ({label}): {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"criterion {number} ({label}) failed{suffix}"


def _rel(x: float, y: float) -> float:
    scale = max(abs(x), abs(y))
    return 0.0 if scale == 0.0 else abs(x - y) / scale


def _residuals(kernel, params):
    """Feature map: residuals (hidden minus conditional mean given the
    observations up to u = node(U_INDEX)) at SUBGRID, followed by the
    observed mixed path at every node below u."""
    rows = cell_average_matrix(kernel, GRID)[SUBGRID]

    def features(dw, dwt):
        mixed = params.a * dw[:, :U_INDEX] + params.b * dwt[:, :U_INDEX]
        eps = dw @ rows.T - params.gain * (mixed @ rows[:, :U_INDEX].T)
        return np.hstack((eps, np.cumsum(mixed, axis=1)))

    return features


@pytest.fixture(scope="module")
def residual_runs():
    """Covariance of residuals and observed path for two kernels by two
    channels (criteria 4 to 6), all from one noise pass."""
    combos = [(kernel, params) for kernel in (BrownianIdentity(), RiemannLiouville(0.75))
              for params in (MixParams(1.0, 1.0), MixParams(0.6, 0.8))]
    moments = noise_pass(GRID, SEED, N_PATHS, [_residuals(*combo) for combo in combos])
    return {(kernel.name, params.a, params.b): (kernel, params, stats.covariance())
            for (kernel, params), stats in zip(combos, moments)}


def test_criterion_1_closed_form_consistency():
    zoo = [BrownianIdentity(), RiemannLiouville(0.25), RiemannLiouville(0.5),
           RiemannLiouville(0.75), ExponentialOU(1.0, 1.0)]
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for i in range(100):
        kernel = zoo[i % len(zoo)]
        params = MixParams(float(rng.uniform(-2.0, 2.0)),
                           float(rng.uniform(0.1, 2.0)))
        it, i_s, iu = (int(v) for v in rng.integers(0, GRID.cells + 1, size=3))
        t, s, u = GRID.node(it), GRID.node(i_s), GRID.node(iu)
        direct = conditional_covariance(kernel, params, u, t, s, GRID)
        closed = conditional_covariance_closed(kernel, params, u, t, s, GRID)
        worst = max(worst, _rel(direct, closed))
    _report(1, "closed-form vs direct quadrature", worst <= 1e-12,
            f"max rel diff {worst:.2e} over 100 tuples")


def test_criterion_2_noise_free_reduction():
    kernel = RiemannLiouville(0.75)
    u = GRID.node(U_INDEX)
    noise = draw_noise(GRID, SEED, 0)

    worst_var = 0.0
    for a in (0.5, 1.0, 3.0):
        params = MixParams(a, 0.0)
        for i in range(1, U_INDEX + 1, 8):
            t = GRID.node(i)
            value = conditional_covariance_closed(kernel, params, u, t, t, GRID)
            worst_var = max(worst_var, abs(value) / covariance(kernel, t, t, GRID))

    worst_mean = 0.0
    for i in (64, 128, 192, 256):
        t = GRID.node(i)
        kbar_t = kernel.cell_integrals(t, GRID) / GRID.delta
        plain = float(np.dot(kbar_t[:U_INDEX], noise.driving[:U_INDEX]))
        for a in (0.5, 1.0, 3.0):
            value = conditional_mean(kernel, MixParams(a, 0.0),
                                     a * noise.driving, u, t, GRID)
            worst_mean = max(worst_mean, _rel(value, plain))

    ok = worst_var <= 1e-12 and worst_mean <= 1e-12
    _report(2, "noise-free channel reduction", ok,
            f"variance residue {worst_var:.2e}, mean mismatch {worst_mean:.2e}")


def test_criterion_3_variance_reduction_study():
    rows = variance_reduction_report(BrownianIdentity(), [0.5, 1.0, 2.0], [1.0],
                                     N_PATHS, SEED, GRID)
    base = covariance(BrownianIdentity(), 1.0, 1.0, GRID)
    details = []
    ok = True
    for row, ratio in zip(rows, (0.2, 0.5, 0.8)):
        naive_ok = abs(row.naive_mc - row.b**2 * base) <= 3.0 * row.naive_se
        filtered_ok = abs(row.filtered_mc / base - ratio) <= 3.0 * row.filtered_se / base
        ok &= naive_ok and filtered_ok and row.within_tolerance
        details.append(f"b={row.b:g}: filtered {row.filtered_mc / base:.4f}~{ratio}")
    _report(3, "measurement-error variance reduction", ok, "; ".join(details))


def test_criterion_4_residual_orthogonality(residual_runs):
    _, _, cov = residual_runs[("rl", 1.0, 1.0)]
    eps = [SUBGRID.index(i) for i in (64, 192, 256)]
    m = len(SUBGRID)
    sd = np.sqrt(np.diag(cov))
    bands = 3.0 * np.outer(sd[eps], sd[m:]) / math.sqrt(N_PATHS)
    violations = int(np.sum(np.abs(cov[eps, m:]) > bands))
    worst = float(np.max(np.abs(cov[eps, m:]) / bands))
    _report(4, "residual orthogonality", violations == 0,
            f"max |cov|/band {worst:.3f} over {bands.size} node pairs")


def test_criterion_5_residual_covariance(residual_runs):
    u = GRID.node(U_INDEX)
    worst = 0.0
    ok = True
    for kernel, params, cov in residual_runs.values():
        target = np.empty((len(SUBGRID), len(SUBGRID)))
        for row, i in enumerate(SUBGRID):
            for col, j in enumerate(SUBGRID):
                target[row, col] = conditional_covariance(
                    kernel, params, u, GRID.node(i), GRID.node(j), GRID)
        diag = np.diag(target)
        spread = np.sqrt((np.outer(diag, diag) + target * target) / N_PATHS)
        z = np.abs(cov[:len(SUBGRID), :len(SUBGRID)] - target) / spread
        worst = max(worst, float(np.max(z)))
        ok &= bool(np.all(z <= 3.0))
    _report(5, "residual covariance matches law", ok,
            f"max |z| {worst:.3f} over 4 runs x 5x5 nodes")


def test_criterion_6_present_variance_limits(residual_runs):
    kernel = BrownianIdentity()
    base = covariance(kernel, 1.0, 1.0, GRID)
    worst_rate = 0.0
    for b in (1e-1, 1e-2, 1e-3):
        scaled = present_variance(kernel, MixParams(1.0, b), 1.0, GRID) / (b * b)
        worst_rate = max(worst_rate, _rel(scaled, base / (1.0 + b * b)))

    # Monte Carlo pins the b^2/(1+b^2) weight at t = s = u and rejects the
    # (b/(1+b))^2 alternative.
    _, params, cov = residual_runs[("bm", 1.0, 1.0)]
    slot = SUBGRID.index(U_INDEX)
    u = GRID.node(U_INDEX)
    mc = cov[slot, slot]
    correct = present_variance(kernel, params, u, GRID)
    wrong = (params.b / (1.0 + params.b)) ** 2 * covariance(kernel, u, u, GRID)
    spread = correct * math.sqrt(2.0 / N_PATHS)
    accepts = abs(mc - correct) <= 3.0 * spread
    rejects = abs(mc - wrong) > 3.0 * spread
    ok = worst_rate <= 1e-10 and accepts and rejects
    _report(6, "present-variance limits", ok,
            f"rate dev {worst_rate:.2e}; mc {mc:.4f} vs {correct:.4f} "
            f"(alternative {wrong:.4f} rejected)")


def test_criterion_7_quadrature_convergence():
    kernel = RiemannLiouville(0.75)
    exact = 1.0 / (1.5 * math.gamma(1.25) ** 2)
    errors = []
    for cells in (64, 128, 256, 512):
        approx = covariance(kernel, 1.0, 1.0, TimeGrid(1.0, cells))
        errors.append(abs(approx - exact) / exact)
    monotone = all(b < a for a, b in zip(errors, errors[1:]))
    ok = monotone and errors[-1] <= 1e-3
    ladder = ", ".join(f"{e:.2e}" for e in errors)
    _report(7, "quadrature convergence ladder", ok, f"errors [{ladder}]")


def test_criterion_8_degeneracy_and_parametrization():
    rejected = False
    try:
        MixParams(0.0, 0.0)
    except ValueError:
        rejected = True

    expanded = rho_to_mix(0.6)
    triple_ok = abs(expanded.a - 0.6) <= 1e-15 and abs(expanded.b - 0.8) <= 1e-15

    silent = rho_to_mix(0.0)
    noise = draw_noise(GRID, SEED, 0)
    mixed = silent.a * noise.driving + silent.b * noise.disturbing
    means = [conditional_mean(BrownianIdentity(), silent, mixed, GRID.node(128),
                              GRID.node(i), GRID) for i in (32, 128, 256)]
    mean_zero = all(value == 0.0 for value in means)

    ok = rejected and triple_ok and mean_zero
    _report(8, "degenerate channel and correlation parametrization", ok,
            f"rejected={rejected}, rho 0.6 -> ({expanded.a:g}, {expanded.b:g}), "
            f"rho 0 mean identically zero={mean_zero}")


def test_criterion_9_reproducibility(tmp_path):
    args = ["verify", "--kernel", "bm", "--cells", "16", "--paths", "500"]
    payloads = []
    for name in ("first", "second"):
        out = tmp_path / name
        status = cli_main(args + ["--seed", "42", "--out", str(out)])
        payloads.append((out / "verify.csv").read_bytes())
        assert status == 0
    identical = payloads[0] == payloads[1]

    reseeded = tmp_path / "reseeded"
    cli_main(args + ["--seed", "43", "--out", str(reseeded)])
    base_rows = payloads[0].decode().splitlines()[1:]
    new_rows = (reseeded / "verify.csv").read_text().splitlines()[1:]
    analytic_same = True
    mc_changed = False
    for base, new in zip(base_rows, new_rows):
        name, stat, tol, _ = base.split(",")
        name2, stat2, tol2, _ = new.split(",")
        assert name == name2 and tol == tol2
        if "_z" in name:
            mc_changed |= stat != stat2
        else:
            analytic_same &= stat == stat2

    ok = identical and analytic_same and mc_changed
    _report(9, "reproducibility", ok,
            f"byte-identical={identical}, analytic stable={analytic_same}, "
            f"mc responds to seed={mc_changed}")
