"""Independent checks of the CSV files one volmix CLI op writes.

The closed-form quantities are recomputed here from the README's
cell-average formulas, built in lag form (t_i - s_j) rather than by the
program's per-row loop, so a wrong quadrature cannot agree with itself.
Only `predict`'s observation path comes from the program
(`volmix.draw_noise`), because the RNG stream is allowed to change.

Checks use tolerances, never digests of stored files: a change of RNG
stream or of summation order legitimately moves the last bits.

An op's verdict separates two kinds of failure.  A Monte Carlo row
(`*_z` in verify.csv, the 3-sigma flag in mse.csv) that misses its
tolerance by less than a factor GROSS is an honest sampling miss at this
seed: the op counts as failed and the row is named, but the output is
still correct.  Anything else (a crash, a missing or malformed file, a
deterministic row that fails, a value off its closed form, a pass flag
that disagrees with its own statistic) is a defect.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np
import volmix

# Relative tolerance for closed-form identities: rounding only.
RTOL = 1e-12
# A covariance matrix may differ from the reference by this share of its
# trace.  Independent quadratures agree to about 5e-18 of the trace at
# 513 nodes; printing values with 10 significant digits instead of the
# shortest round-trip repr costs about 1e-12.
MATRIX_RTOL = 1e-15
# A sampling miss beyond GROSS times its tolerance (6 sigma for a single
# z-score) has odds below 1e-8 and is treated as a defect.
GROSS = 2.0
# Monte Carlo flag of mse-study: |mc - analytic| <= MSE_Z * se.
MSE_Z = 3.0

_DETERMINISTIC_VERIFY_ROWS = (
    "closed_form_vs_direct_quadrature",
    "b_zero_variance_collapse",
    "b_zero_mean_matches_driver_prediction",
    "covariance_symmetry",
    "covariance_psd_defect",
    "conditional_covariance_psd_defect",
    "cross_integral_monotone_in_u",
    "conditional_variance_monotone_in_u",
    "full_information_covariance",
    "rl_half_matches_bm",
    "quadrature_error_monotone",
    "quadrature_error_at_512_cells",
    "present_variance_small_b_rate",
    "degenerate_channel_rejected",
    "rho_expansion_three_four_five",
    "rho_zero_mean_identically_zero",
)
_MC_VERIFY_ROWS = (
    "noise_increment_variance_z",
    "noise_channel_correlation_z",
    "hidden_moments_max_z",
    "hidden_twin_correlation_z",
    "observed_variance_inflation_z",
    "residual_orthogonality_max_z",
    "residual_covariance_max_z",
    "present_variance_mc_z",
)


class Verdict:
    """Outcome of checking one op: failing row names and defects."""

    def __init__(self):
        self.missed_rows: list[str] = []
        self.defects: list[str] = []

    @property
    def failed(self) -> bool:
        return bool(self.missed_rows or self.defects)

    def monte_carlo_row(self, name: str, statistic: float, tolerance: float) -> None:
        if statistic > GROSS * tolerance or math.isnan(statistic):
            self.defects.append(
                f"{name}: {statistic!r} is beyond {GROSS:g} x tolerance {tolerance!r}")
        else:
            self.missed_rows.append(name)


def options(argv: list[str]) -> dict[str, str]:
    """`[kind, --flag, value, ...]` as {flag: value}; every flag takes a value."""
    return {flag.lstrip("-"): value for flag, value in zip(argv[1::2], argv[2::2])}


def _antiderivative(opts: dict[str, str]):
    """x -> integral of the kernel over lags [0, x], for the kernels the workloads use."""
    kernel = opts["kernel"]
    if kernel == "rl":
        p = float(opts["hurst"]) + 0.5
        norm = p * math.gamma(p)
        return lambda x: x ** p / norm
    if kernel == "ou" and float(opts["theta"]) > 0.0:
        theta, sigma = float(opts["theta"]), float(opts["sigma"])
        return lambda x: sigma * -np.expm1(-theta * x) / theta
    raise ValueError(f"no independent quadrature for {opts}")


def _grid(opts: dict[str, str]) -> tuple[int, float]:
    return int(opts.get("cells", 256)), float(opts.get("horizon", 1.0))


def cell_averages(opts: dict[str, str]) -> np.ndarray:
    """(cells+1, cells) cell averages of k(t_i, .) from the lag i - j alone."""
    cells, horizon = _grid(opts)
    delta = horizon / cells
    lag = np.arange(cells + 1)[:, None] - np.arange(cells)[None, :]
    upper = np.maximum(lag, 0) * delta
    lower = np.maximum(lag - 1, 0) * delta
    antiderivative = _antiderivative(opts)
    return (antiderivative(upper) - antiderivative(lower)) / delta


def _rel_diff(x: float, y: float) -> float:
    scale = max(abs(x), abs(y))
    return 0.0 if scale == 0.0 else abs(x - y) / scale


def _read_rows(path: Path, header: list[str], verdict: Verdict) -> list[dict] | None:
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            lines = list(csv.reader(handle))
    except OSError as exc:
        verdict.defects.append(f"cannot read {path.name}: {exc}")
        return None
    if not lines or lines[0] != header:
        verdict.defects.append(f"{path.name}: header {lines[:1]!r}, expected {header!r}")
        return None
    if any(len(line) != len(header) for line in lines[1:]):
        verdict.defects.append(f"{path.name}: rows of the wrong width")
        return None
    return [dict(zip(header, line)) for line in lines[1:]]


def _flag(raw: str, name: str, verdict: Verdict) -> bool | None:
    if raw not in ("true", "false"):
        verdict.defects.append(f"{name}: pass flag {raw!r}")
        return None
    return raw == "true"


def _check_verify(opts, out_dir: Path, verdict: Verdict) -> None:
    rows = _read_rows(out_dir / "verify.csv",
                      ["check_name", "statistic", "tolerance", "pass"], verdict)
    if rows is None:
        return
    b_values = [float(b) for b in opts.get("b-list", "0.5,1,2").split(",")]
    mc_rows = set(_MC_VERIFY_ROWS) | {f"mse_{est}_z[b={b:g}]" for b in b_values
                                     for est in ("naive", "filtered")}
    expected = sorted(set(_DETERMINISTIC_VERIFY_ROWS) | mc_rows)
    names = sorted(row["check_name"] for row in rows)
    if names != expected:
        verdict.defects.append(f"verify.csv rows {names}, expected {expected}")
        return
    for row in rows:
        name = row["check_name"]
        try:
            statistic, tolerance = float(row["statistic"]), float(row["tolerance"])
        except ValueError:
            verdict.defects.append(f"{name}: non-numeric statistic or tolerance")
            continue
        passed = _flag(row["pass"], name, verdict)
        if passed is None:
            continue
        if passed != (statistic <= tolerance):
            verdict.defects.append(f"{name}: pass={passed} but {statistic!r} vs {tolerance!r}")
        elif not passed and name in mc_rows:
            verdict.monte_carlo_row(name, statistic, tolerance)
        elif not passed:
            verdict.defects.append(f"{name}: {statistic!r} > {tolerance!r}")


_MSE_HEADER = ["t", "b", "naive_analytic", "naive_mc", "naive_se", "filtered_analytic",
               "filtered_mc", "filtered_se", "ratio", "pass"]


def _check_mse(opts, out_dir: Path, verdict: Verdict) -> None:
    rows = _read_rows(out_dir / "mse.csv", _MSE_HEADER, verdict)
    if rows is None:
        return
    cells, horizon = _grid(opts)
    delta = horizon / cells
    kbar = cell_averages(opts)
    b_values = [float(b) for b in opts.get("b-list", "0.5,1,2").split(",")]
    t_values = [float(opts.get("t", horizon))]
    expected = sorted((t, b) for t in t_values for b in b_values)
    try:
        values = [{key: float(row[key]) for key in _MSE_HEADER[:-1]} for row in rows]
    except ValueError:
        verdict.defects.append("mse.csv: non-numeric field")
        return
    found = sorted((v["t"], v["b"]) for v in values)
    if found != expected:
        verdict.defects.append(f"mse.csv (t, b) rows {found}, expected {expected}")
        return
    for v, row in zip(values, rows):
        name = f"mse[t={v['t']:g},b={v['b']:g}]"
        b2 = v["b"] * v["b"]
        it = round(v["t"] / delta)
        r_tt = delta * float(np.dot(kbar[it], kbar[it]))
        for key, target in (("naive_analytic", b2 * r_tt),
                            ("filtered_analytic", b2 / (1.0 + b2) * r_tt),
                            ("ratio", 1.0 / (1.0 + b2))):
            if _rel_diff(v[key], target) > RTOL:
                verdict.defects.append(f"{name}: {key} {v[key]!r}, closed form {target!r}")
        passed = _flag(row["pass"], name, verdict)
        if passed is None:
            continue
        z = [abs(v[f"{est}_mc"] - v[f"{est}_analytic"]) / v[f"{est}_se"]
             if v[f"{est}_se"] > 0.0 else math.inf for est in ("naive", "filtered")]
        within = all(abs(v[f"{est}_mc"] - v[f"{est}_analytic"]) <= MSE_Z * v[f"{est}_se"]
                     for est in ("naive", "filtered"))
        if passed != within:
            verdict.defects.append(f"{name}: pass={passed} but z-scores {z}")
        elif not passed:
            verdict.monte_carlo_row(name, max(z), MSE_Z)


def _read_matrix(path: Path, nodes: np.ndarray, verdict: Verdict) -> np.ndarray | None:
    """Square matrix from a (t, s, cov) CSV whose rows run t-major over `nodes`."""
    try:
        with open(path, encoding="utf-8") as handle:
            header = handle.readline().rstrip("\n")
            data = np.loadtxt(handle, delimiter=",", ndmin=2)
    except (OSError, ValueError) as exc:
        verdict.defects.append(f"cannot parse {path.name}: {exc}")
        return None
    m = len(nodes)
    if header != "t,s,cov" or data.shape != (m * m, 3):
        verdict.defects.append(
            f"{path.name}: header {header!r}, shape {data.shape}, expected {(m * m, 3)}")
        return None
    slack = RTOL * nodes[-1]
    if (np.max(np.abs(data[:, 0] - np.repeat(nodes, m))) > slack
            or np.max(np.abs(data[:, 1] - np.tile(nodes, m))) > slack):
        verdict.defects.append(f"{path.name}: (t, s) columns are not the grid nodes, t-major")
        return None
    return data[:, 2].reshape(m, m)


def _check_matrix(name: str, found: np.ndarray | None, reference: np.ndarray,
                  verdict: Verdict) -> None:
    if found is None:
        return
    error = float(np.max(np.abs(found - reference)))
    bound = MATRIX_RTOL * float(np.trace(reference))
    if not error <= bound:
        verdict.defects.append(f"{name}: max |cov - reference| = {error:.3e} > {bound:.3e}")


def _nodes(opts) -> np.ndarray:
    cells, horizon = _grid(opts)
    return horizon * np.arange(cells + 1) / cells


def _check_covariance(opts, out_dir: Path, verdict: Verdict) -> None:
    cells, horizon = _grid(opts)
    kbar = cell_averages(opts)
    reference = (horizon / cells) * (kbar @ kbar.T)
    found = _read_matrix(out_dir / "cov.csv", _nodes(opts), verdict)
    _check_matrix("cov.csv", found, reference, verdict)


def _check_predict(opts, out_dir: Path, verdict: Verdict) -> None:
    cells, horizon = _grid(opts)
    delta = horizon / cells
    nodes = _nodes(opts)
    kbar = cell_averages(opts)
    a = float(opts["rho"])
    b = math.sqrt(1.0 - a * a)
    gain, c = a / (a * a + b * b), a * a / (a * a + b * b)
    # Snap u to the nearest node, ties toward the smaller one (README, CLI).
    x = float(opts.get("u", horizon)) / delta
    iu = min(max(math.floor(x) + (x - math.floor(x) > 0.5), 0), cells)
    noise = volmix.draw_noise(volmix.TimeGrid(horizon=horizon, cells=cells),
                              int(opts["seed"]), 0)
    mixed = a * noise.driving + b * noise.disturbing
    observed = kbar[:, :iu]
    mean = gain * (observed @ mixed[:iu])
    scale = abs(gain) * float(np.max(np.abs(observed) @ np.abs(mixed[:iu])))
    rows = _read_rows(out_dir / "mean.csv", ["t", "mean"], verdict)
    if rows is not None:
        try:
            found = np.array([[float(row["t"]), float(row["mean"])] for row in rows])
        except ValueError:
            verdict.defects.append("mean.csv: non-numeric field")
        else:
            if (found.shape != (cells + 1, 2)
                    or np.max(np.abs(found[:, 0] - nodes)) > RTOL * horizon):
                verdict.defects.append(f"mean.csv: shape {found.shape} or t column off the grid")
            elif not np.max(np.abs(found[:, 1] - mean)) <= RTOL * scale:
                verdict.defects.append(
                    f"mean.csv: max |mean - reference| = {np.max(np.abs(found[:, 1] - mean)):.3e}"
                    f" > {RTOL * scale:.3e}")
    reference = delta * (kbar @ kbar.T - c * (observed @ observed.T))
    found = _read_matrix(out_dir / "cov.csv", nodes, verdict)
    _check_matrix("cov.csv", found, reference, verdict)


_CHECKS = {
    "verify": _check_verify,
    "mse-study": _check_mse,
    "covariance": _check_covariance,
    "predict": _check_predict,
}


def check(argv: list[str], out_dir: Path, exit_code: int) -> Verdict:
    """Check the outputs of `volmix <argv>` written to `out_dir`.

    `argv` includes `--seed`; the op's exit status must agree with its
    pass flags (0 when all pass, 1 otherwise).
    """
    verdict = Verdict()
    if exit_code not in (0, 1):
        verdict.defects.append(f"exit status {exit_code}")
        return verdict
    _CHECKS[argv[0]](options(argv), out_dir, verdict)
    if not verdict.defects and exit_code != (1 if verdict.missed_rows else 0):
        verdict.defects.append(f"exit status {exit_code} disagrees with the pass flags")
    return verdict
