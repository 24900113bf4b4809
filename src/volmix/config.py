"""Experiment configuration: one key table behind flags, config files and defaults.

A config describes one experiment run: which kernel, which grid, which
observation channel, which times, how many paths, and where the CSV
output goes.  `KEYS` lists every config key once, with its default and
help text; the CLI builds its flags from it, config files may use only
its keys, and its defaults fill every key that neither gives.  Values
given on the command line override values from the config file.
Each kind resolves only the times it reads, `predict` its `u` and
`mse-study` its `t`; they snap to the nearest grid node (ties toward the
smaller node) and every nontrivial snap is recorded in `snaps`.  The
other kinds still reject a malformed time.

Config only parses: it rejects malformed and non-finite numbers and the
CLI's ranges for cells, paths and seed.  The grid, the kernel, its cell
averages and the channel refuse the rest, and their messages become
`ConfigError`s unchanged.  A written covariance is judged by
`kernels.check_written`, and `simulate.half_exponents` keeps Monte Carlo moments in range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .kernels import (
    BrownianIdentity,
    ExponentialOU,
    RiemannLiouville,
    TabulatedKernel,
    TimeGrid,
    VolterraKernel,
    cell_average_matrix,
)
from .predict import rho_to_mix
from .simulate import MixParams

KINDS = ("predict", "covariance", "mse-study", "verify")
KERNEL_NAMES = ("bm", "rl", "ou", "tabulated")

MIN_CELLS, MAX_CELLS = 8, 4096
MIN_PATHS, MAX_PATHS = 100, 10_000_000

# Every config key in flag order: (default, help).  A key whose default is
# None is absent unless a flag or the config file gives it.
KEYS = {
    "kernel": ("bm", " | ".join(KERNEL_NAMES)),
    "hurst": (None, "Hurst index for the rl kernel, in (0,1)"),
    "theta": ("1", "decay rate for the ou kernel, >= 0"),
    "sigma": ("1", "scale for the ou kernel, > 0"),
    "tabulated": (None, "CSV file of per-cell kernel averages"),
    "a": (None, "observation weight on the driving motion, for predict and verify"),
    "b": (None, "observation weight on the disturbance, for predict and verify"),
    "rho": (None, "channel correlation for predict and verify; expands to "
                  "(rho, sqrt(1-rho^2))"),
    "horizon": ("1", "time horizon T > 0"),
    "cells": ("256", f"grid cells in [{MIN_CELLS}, {MAX_CELLS}]"),
    "u": (None, "observation time for predict; snapped to the grid"),
    "t": (None, "evaluation time for mse-study; repeatable, snapped to the grid"),
    "b_list": ("0.5,1,2", "comma-separated noise levels for mse-study and verify"),
    "paths": ("100000", f"Monte Carlo paths for mse-study and verify, in "
                        f"[{MIN_PATHS}, {MAX_PATHS}]"),
    "seed": ("42", "base RNG seed"),
    "out": ("out", "output directory for CSV files"),
}


@dataclass
class ExperimentConfig:
    """Validated, grid-snapped description of one experiment."""

    kind: str
    kernel: VolterraKernel
    grid: TimeGrid
    channel: MixParams | None
    u: float | None
    ts: list[float]
    b_list: list[float]
    n_paths: int
    seed: int
    out_dir: Path
    snaps: list[str]


class ConfigError(ValueError):
    """Raised for malformed or inconsistent experiment configuration."""


def _parse_float(raw, key: str) -> float:
    try:
        value = float(raw)
    except (TypeError, ValueError):
        raise ConfigError(f"invalid value for {key}: {raw!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"invalid value for {key}: {raw!r} is not finite")
    return value


def _parse_int(raw, key: str) -> int:
    try:
        return int(str(raw), 10)
    except (TypeError, ValueError):
        raise ConfigError(f"invalid value for {key}: {raw!r}") from None


def _split_list(raw: str) -> list[str]:
    """The non-blank entries of a comma-separated list, stripped."""
    return [part.strip() for part in raw.split(",") if part.strip()]


def read_config_file(path: str | Path) -> dict:
    """Read a flat `key = value` file; '#' starts a comment, blanks skipped."""
    values: dict = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        key = key.replace("-", "_")
        if key not in KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        if key == "t":
            values.setdefault("t", []).extend(_split_list(raw))
        else:
            values[key] = raw
    return values


def _build_kernel(values: dict, grid: TimeGrid) -> VolterraKernel:
    name = str(values["kernel"]).lower()
    if name not in KERNEL_NAMES:
        raise ConfigError(
            f"unknown kernel {name!r} (expected one of {', '.join(KERNEL_NAMES)})"
        )
    if name == "bm":
        return BrownianIdentity()
    if name == "rl":
        if "hurst" not in values:
            raise ConfigError("kernel rl requires hurst")
        return RiemannLiouville(_parse_float(values["hurst"], "hurst"))
    if name == "ou":
        return ExponentialOU(decay=_parse_float(values["theta"], "theta"),
                             scale=_parse_float(values["sigma"], "sigma"))
    # tabulated: per-cell averages stored as a CSV matrix of shape
    # (cells + 1, cells)
    if "tabulated" not in values:
        raise ConfigError("kernel tabulated requires tabulated = <csv file>")
    path = Path(str(values["tabulated"]))
    try:
        table = np.loadtxt(path, delimiter=",", ndmin=2)
    except OSError as exc:
        raise ConfigError(f"cannot read tabulated kernel file {path}: {exc}") from None
    except ValueError as exc:
        raise ConfigError(f"malformed tabulated kernel file {path}: {exc}") from None
    try:
        return TabulatedKernel(table, grid)
    except ValueError as exc:
        raise ConfigError(f"tabulated kernel file {path}: {exc}") from None


def _build_channel(values: dict, kind: str) -> MixParams | None:
    has_ab = "a" in values or "b" in values
    has_rho = "rho" in values
    if has_ab and has_rho:
        raise ConfigError("give either (a, b) or rho, not both")
    if has_rho:
        return rho_to_mix(_parse_float(values["rho"], "rho"))
    if has_ab:
        return MixParams(a=_parse_float(values.get("a", 0.0), "a"),
                         b=_parse_float(values.get("b", 0.0), "b"))
    if kind == "predict":
        raise ConfigError("predict requires a channel: give a and b, or rho")
    return MixParams(1.0, 1.0) if kind == "verify" else None


def _snap(grid: TimeGrid, requested: float, label: str, snaps: list[str]) -> float:
    index, distance = grid.snap(requested)
    snapped = grid.node(index)
    if distance > 1e-12 * grid.delta:
        snaps.append(
            f"snapped {label}={requested!r} to grid node {snapped!r} "
            f"(distance {distance:.3e})"
        )
    return snapped


def parse_config(kind: str, file: str | Path | None = None,
                 overrides: dict | None = None) -> ExperimentConfig:
    """Merge config file and overrides into a validated ExperimentConfig.

    Parameters
    ----------
    kind : one of `KINDS`.
    file : optional path to a flat key=value config file.
    overrides : mapping of config keys to raw values (CLI flags); entries
        that are None are ignored.  Overrides win over file values.
    """
    if kind not in KINDS:
        raise ConfigError(f"unknown experiment kind {kind!r} (expected one of {KINDS})")
    values = {key: default for key, (default, _) in KEYS.items() if default is not None}
    if file:
        values.update(read_config_file(file))
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        key = key.replace("-", "_")
        if key not in KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        values[key] = value

    horizon = _parse_float(values["horizon"], "horizon")
    cells = _parse_int(values["cells"], "cells")
    if not MIN_CELLS <= cells <= MAX_CELLS:
        raise ConfigError(f"cells must lie in [{MIN_CELLS}, {MAX_CELLS}]")
    n_paths = _parse_int(values["paths"], "paths")
    if not MIN_PATHS <= n_paths <= MAX_PATHS:
        raise ConfigError(f"paths must lie in [{MIN_PATHS}, {MAX_PATHS}]")
    seed = _parse_int(values["seed"], "seed")
    if not 0 <= seed < 2**64:
        raise ConfigError("seed must lie in [0, 2**64)")

    # The models refuse their own out-of-range values, K its non-finite node variances.
    try:
        grid = TimeGrid(horizon=horizon, cells=cells)
        kernel = _build_kernel(values, grid)
        cell_average_matrix(kernel, grid)
        channel = _build_channel(values, kind)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    # Every kind rejects a malformed time; only the kind that reads it snaps it.
    snaps: list[str] = []
    u = _parse_float(values["u"], "u") if "u" in values else None
    if kind == "predict":
        u = grid.horizon if u is None else _snap(grid, u, "u", snaps)
    else:
        u = None
    raw_ts = values.get("t", [])
    if isinstance(raw_ts, str):
        raw_ts = _split_list(raw_ts)
    ts = [_parse_float(raw, "t") for raw in raw_ts]
    if kind == "mse-study":
        ts = [_snap(grid, t, "t", snaps) for t in ts] or [grid.horizon]
    else:
        ts = []

    raw_bs = values["b_list"]
    if isinstance(raw_bs, str):
        raw_bs = _split_list(raw_bs)
    b_list = [_parse_float(raw, "b_list") for raw in raw_bs]
    if not b_list:
        raise ConfigError("b_list must contain at least one value")

    out_dir = Path(str(values["out"]))

    return ExperimentConfig(
        kind=kind,
        kernel=kernel,
        grid=grid,
        channel=channel,
        u=u,
        ts=ts,
        b_list=b_list,
        n_paths=n_paths,
        seed=seed,
        out_dir=out_dir,
        snaps=snaps,
    )
