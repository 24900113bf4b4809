"""Experiment orchestration and CSV output.

All numeric CSV fields use Python's shortest round-trip decimal
representation (up to 17 significant digits), comma delimiters, a header
row, and LF line endings, so identical experiments produce byte-identical
files.  `write_csv` writes every file: the header, then text lines from
`_matrix_lines` (one per covariance row) or `_table_lines`; no field needs quoting.

`repr` of each float is nearly all the cost of a large covariance file,
and it holds the interpreter lock.  So `_matrix_lines` splits a matrix of
at least `_FORK_MIN_ENTRIES` entries into contiguous row ranges, one per
available core and at most `_MAX_WRITERS`.  Forked children format every
range but the first into unnamed temporary files while this process
formats the first; their text follows in range order.  A child calls no
BLAS and leaves only through `os._exit`, so the copy it holds of the
open file's unflushed buffer is never written; a child that fails writes
its traceback straight to file descriptor 2 first.  The bytes do not
depend on the number of ranges.

`covariance` and `predict` write nothing when their matrix fails
`kernels.check_written`, and the Monte Carlo kinds nothing when
`simulate.half_exponents` refuses an analytic scale: the `kernels.Refused`
reaches the caller unchanged.
"""

from __future__ import annotations

import dataclasses
import os
import tempfile
from functools import partial
from pathlib import Path

import numpy as np

from .config import ExperimentConfig
from .kernels import cell_average_matrix, check_written, covariance_matrix
from .mse import variance_reduction_report
from .predict import prediction_law
from .simulate import draw_noise, mix
from .verify import run_checks


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _table_lines(rows):
    return (",".join(map(_fmt, row)) + "\n" for row in rows)


_FORK_MIN_ENTRIES = 2**16  # on 2 cores a fork breaks even near 2**14 entries
_MAX_WRITERS = 4
_CHUNK = 2**16  # characters of a child's text held at once


def _row_text(t: str, times: list[str], values: list[float]) -> str:
    return "".join(f"{t},{s},{v!r}\n" for s, v in zip(times, values))


def _range_lines(times: list[str], matrix: np.ndarray, start: int, stop: int):
    """One string per row in [start, stop); only one row is held as Python floats."""
    for t, row in zip(times[start:stop], matrix[start:stop]):
        yield _row_text(t, times, row.tolist())


def _writer_count(entries: int) -> int:
    if entries < _FORK_MIN_ENTRIES or not hasattr(os, "fork") \
            or not hasattr(os, "sched_getaffinity"):
        return 1
    return min(len(os.sched_getaffinity(0)), _MAX_WRITERS)


def _fork_writer(text, times: list[str], matrix: np.ndarray, start: int, stop: int) -> int:
    """Fork a child that writes rows [start, stop) to `text`; returns its pid."""
    pid = os.fork()
    if pid:
        return pid
    status = 1
    try:
        text.writelines(_range_lines(times, matrix, start, stop))
        text.flush()
        status = 0
    except BaseException:
        import traceback  # only a failing child needs it

        os.write(2, traceback.format_exc().encode())  # `os._exit` flushes no stream
    finally:
        os._exit(status)  # never flush the parent's buffers a second time


def _matrix_lines(nodes: np.ndarray, matrix: np.ndarray):
    """The rows of `matrix` as text, in order: one string per row of the
    first range, then chunks of each forked child's text."""
    times = [repr(t) for t in nodes.tolist()]
    count = _writer_count(matrix.size)
    bounds = [len(times) * k // count for k in range(count + 1)]
    texts, pids = [], []
    try:
        for start, stop in zip(bounds[1:], bounds[2:]):
            texts.append(tempfile.TemporaryFile("w+", encoding="utf-8", newline=""))
            pids.append(_fork_writer(texts[-1], times, matrix, start, stop))
        yield from _range_lines(times, matrix, 0, bounds[1])
        for start, stop, text in zip(bounds[1:], bounds[2:], texts):
            status = os.waitstatus_to_exitcode(os.waitpid(pids[0], 0)[1])
            del pids[0]
            if status:
                raise OSError(f"the process formatting rows {start} to {stop - 1} "
                              f"exited with status {status}")
            text.seek(0)
            yield from iter(partial(text.read, _CHUNK), "")
    finally:
        for pid in pids:
            os.waitpid(pid, 0)
        for text in texts:
            text.close()


def write_csv(path: Path, header, lines) -> None:
    """Write the header, then `lines`; failures are reported with the offending path."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="", encoding="utf-8") as handle:
            handle.write(",".join(header) + "\n")
            handle.writelines(lines)
    except OSError as exc:
        raise RuntimeError(f"cannot write {path}: {exc}") from None


def _run_predict(cfg: ExperimentConfig) -> int:
    mixed = mix(draw_noise(cfg.grid, cfg.seed, 0), cfg.channel)
    law = prediction_law(cfg.kernel, cfg.channel, mixed, cfg.u, cfg.grid)
    nodes = cfg.grid.nodes
    write_csv(cfg.out_dir / "mean.csv", ("t", "mean"), _table_lines(zip(nodes, law.mean)))
    write_csv(cfg.out_dir / "cov.csv", ("t", "s", "cov"), _matrix_lines(nodes, law.cov))
    return 0


def _run_covariance(cfg: ExperimentConfig) -> int:
    grid = cfg.grid
    averages = cell_average_matrix(cfg.kernel, grid)
    matrix = covariance_matrix(averages, grid)
    check_written(averages, np.ones(grid.cells), grid.delta, matrix)
    write_csv(cfg.out_dir / "cov.csv", ("t", "s", "cov"), _matrix_lines(grid.nodes, matrix))
    return 0


def _run_mse_study(cfg: ExperimentConfig) -> int:
    reports = variance_reduction_report(cfg.kernel, cfg.b_list, cfg.ts,
                                        cfg.n_paths, cfg.seed, cfg.grid)
    write_csv(cfg.out_dir / "mse.csv",
              ("t", "b", "naive_analytic", "naive_mc", "naive_se",
               "filtered_analytic", "filtered_mc", "filtered_se", "ratio", "pass"),
              _table_lines(map(dataclasses.astuple, reports)))
    return 0 if all(report.within_tolerance for report in reports) else 1


def _run_verify(cfg: ExperimentConfig) -> int:
    checks = run_checks(cfg.kernel, cfg.grid, cfg.channel, cfg.b_list,
                        cfg.n_paths, cfg.seed)
    write_csv(cfg.out_dir / "verify.csv",
              ("check_name", "statistic", "tolerance", "pass"),
              _table_lines((c.name, c.statistic, c.tolerance, c.passed) for c in checks))
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
