"""Experiment orchestration and CSV output.

All numeric CSV fields use Python's shortest round-trip decimal
representation (up to 17 significant digits), comma delimiters, a header
row, and LF line endings, so identical experiments produce byte-identical
files.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from .config import ExperimentConfig
from .kernels import cell_average_matrix, covariance_matrix, validate_covariance_matrix
from .mse import variance_reduction_report
from .predict import prediction_law
from .simulate import draw_noise, mix
from .verify import run_checks


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path: Path, header, rows) -> None:
    """Write one CSV file; failures are reported with the offending path."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(header)
            for row in rows:
                writer.writerow([_fmt(value) for value in row])
    except OSError as exc:
        raise RuntimeError(f"cannot write {path}: {exc}") from None


def _matrix_rows(nodes: np.ndarray, matrix: np.ndarray):
    for i, t in enumerate(nodes):
        for j, s in enumerate(nodes):
            yield (float(t), float(s), float(matrix[i, j]))


def _run_predict(cfg: ExperimentConfig) -> int:
    mixed = mix(draw_noise(cfg.grid, cfg.seed, 0), cfg.channel)
    law = prediction_law(cfg.kernel, cfg.channel, mixed, cfg.u, cfg.grid)
    nodes = cfg.grid.nodes
    write_csv(cfg.out_dir / "mean.csv", ("t", "mean"),
              ((float(t), float(m)) for t, m in zip(nodes, law.mean)))
    write_csv(cfg.out_dir / "cov.csv", ("t", "s", "cov"),
              _matrix_rows(nodes, law.cov))
    return 0


def _run_covariance(cfg: ExperimentConfig) -> int:
    matrix = covariance_matrix(cell_average_matrix(cfg.kernel, cfg.grid), cfg.grid)
    validate_covariance_matrix(matrix)
    write_csv(cfg.out_dir / "cov.csv", ("t", "s", "cov"),
              _matrix_rows(cfg.grid.nodes, matrix))
    return 0


def _run_mse_study(cfg: ExperimentConfig) -> int:
    reports = variance_reduction_report(cfg.kernel, cfg.b_list, cfg.ts,
                                        cfg.n_paths, cfg.seed, cfg.grid)
    rows = [(report.t, report.b,
             report.naive_analytic, report.naive_mc, report.naive_se,
             report.filtered_analytic, report.filtered_mc,
             report.filtered_se, report.reduction_ratio,
             report.within_tolerance) for report in reports]
    write_csv(cfg.out_dir / "mse.csv",
              ("t", "b", "naive_analytic", "naive_mc", "naive_se",
               "filtered_analytic", "filtered_mc", "filtered_se", "ratio", "pass"),
              rows)
    return 0 if all(report.within_tolerance for report in reports) else 1


def _run_verify(cfg: ExperimentConfig) -> int:
    checks = run_checks(cfg.kernel, cfg.grid, cfg.channel, cfg.b_list,
                        cfg.n_paths, cfg.seed)
    write_csv(cfg.out_dir / "verify.csv",
              ("check_name", "statistic", "tolerance", "pass"),
              ((c.name, c.statistic, c.tolerance, c.passed) for c in checks))
    return 0 if all(c.passed for c in checks) else 1


_RUNNERS = {
    "predict": _run_predict,
    "covariance": _run_covariance,
    "mse-study": _run_mse_study,
    "verify": _run_verify,
}


def run_experiment(cfg: ExperimentConfig) -> int:
    """Run one experiment; returns the process exit status.

    0 means every emitted pass flag (if any) is true.  Numerical check
    failures never abort the run; they only flip flags and the status.
    """
    return _RUNNERS[cfg.kind](cfg)
