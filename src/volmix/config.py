"""Experiment configuration: flat key=value files plus flag overrides.

A config describes one experiment run: which kernel, which grid, which
observation channel, which times, how many paths, and where the CSV
output goes.  Values given on the command line override values from the
config file.  Requested times snap to the nearest grid node (ties toward
the smaller node) and every nontrivial snap is reported on stderr.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
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

_DEFAULTS = {
    "horizon": 1.0,
    "cells": 256,
    "paths": 100_000,
    "seed": 42,
    "kernel": "bm",
    "theta": 1.0,
    "sigma": 1.0,
    "out": "out",
}

_KNOWN_KEYS = {
    "kernel", "hurst", "theta", "sigma", "tabulated",
    "horizon", "cells", "a", "b", "rho", "u", "t", "b_list",
    "paths", "seed", "out",
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
    snaps: list[str] = field(default_factory=list)


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


def read_config_file(path: str | Path) -> dict:
    """Read a flat `key = value` file; '#' starts a comment, blanks skipped."""
    values: dict = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        key = key.replace("-", "_")
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        if key == "t":
            values.setdefault("t", []).extend(
                part.strip() for part in raw.split(",") if part.strip()
            )
        else:
            values[key] = raw
    return values


def _build_kernel(values: dict, grid: TimeGrid) -> VolterraKernel:
    name = str(values.get("kernel", _DEFAULTS["kernel"])).lower()
    if name not in KERNEL_NAMES:
        raise ConfigError(
            f"unknown kernel {name!r} (expected one of {', '.join(KERNEL_NAMES)})"
        )
    if name == "bm":
        return BrownianIdentity()
    if name == "rl":
        if "hurst" not in values:
            raise ConfigError("kernel rl requires hurst")
        hurst = _parse_float(values["hurst"], "hurst")
        if not 0.0 < hurst < 1.0:
            raise ConfigError("hurst must lie in (0,1)")
        return RiemannLiouville(hurst)
    if name == "ou":
        theta = _parse_float(values.get("theta", _DEFAULTS["theta"]), "theta")
        sigma = _parse_float(values.get("sigma", _DEFAULTS["sigma"]), "sigma")
        if theta < 0.0:
            raise ConfigError("theta must be >= 0")
        if sigma <= 0.0:
            raise ConfigError("sigma must be > 0")
        return ExponentialOU(decay=theta, scale=sigma)
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


def _build_channel(values: dict) -> MixParams | None:
    has_ab = "a" in values or "b" in values
    has_rho = "rho" in values
    if has_ab and has_rho:
        raise ConfigError("give either (a, b) or rho, not both")
    if has_rho:
        rho = _parse_float(values["rho"], "rho")
        if not -1.0 <= rho <= 1.0:
            raise ConfigError("rho must lie in [-1, 1]")
        return rho_to_mix(rho)
    if has_ab:
        a = _parse_float(values.get("a", 0.0), "a")
        b = _parse_float(values.get("b", 0.0), "b")
        try:
            return MixParams(a=a, b=b)
        except ValueError as exc:  # a^2 + b^2 is 0, also by underflow
            raise ConfigError(str(exc)) from None
    return None


def _check_quadrature(kernel: VolterraKernel, grid: TimeGrid) -> None:
    """Reject kernels whose cell averages or node variances overflow on `grid`."""
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            averages = cell_average_matrix(kernel, grid)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        variances = grid.delta * np.einsum("ij,ij->i", averages, averages)
    if not np.all(np.isfinite(variances)):
        raise ConfigError(f"kernel {kernel.name!r} has non-finite node variances on {grid}")


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
                 overrides: dict | None = None,
                 report=None) -> ExperimentConfig:
    """Merge config file and overrides into a validated ExperimentConfig.

    Parameters
    ----------
    kind : one of `KINDS`.
    file : optional path to a flat key=value config file.
    overrides : mapping of config keys to raw values (CLI flags); entries
        that are None are ignored.  Overrides win over file values.
    report : optional callable for snap messages; defaults to printing on
        stderr.
    """
    if kind not in KINDS:
        raise ConfigError(f"unknown experiment kind {kind!r} (expected one of {KINDS})")
    values = read_config_file(file) if file else {}
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        key = key.replace("-", "_")
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        values[key] = value

    horizon = _parse_float(values.get("horizon", _DEFAULTS["horizon"]), "horizon")
    if horizon <= 0.0:
        raise ConfigError("horizon must be > 0")
    cells = _parse_int(values.get("cells", _DEFAULTS["cells"]), "cells")
    if not MIN_CELLS <= cells <= MAX_CELLS:
        raise ConfigError(f"cells must lie in [{MIN_CELLS}, {MAX_CELLS}]")
    n_paths = _parse_int(values.get("paths", _DEFAULTS["paths"]), "paths")
    if not MIN_PATHS <= n_paths <= MAX_PATHS:
        raise ConfigError(f"paths must lie in [{MIN_PATHS}, {MAX_PATHS}]")
    seed = _parse_int(values.get("seed", _DEFAULTS["seed"]), "seed")
    if not 0 <= seed < 2**64:
        raise ConfigError("seed must lie in [0, 2**64)")

    grid = TimeGrid(horizon=horizon, cells=cells)
    kernel = _build_kernel(values, grid)
    _check_quadrature(kernel, grid)
    channel = _build_channel(values)
    if kind == "predict" and channel is None:
        raise ConfigError("predict requires a channel: give a and b, or rho")

    snaps: list[str] = []
    u = None
    if "u" in values:
        u = _snap(grid, _parse_float(values["u"], "u"), "u", snaps)
    elif kind == "predict":
        u = grid.horizon

    raw_ts = values.get("t", [])
    if isinstance(raw_ts, str):
        raw_ts = [part.strip() for part in raw_ts.split(",") if part.strip()]
    ts = [_snap(grid, _parse_float(raw, "t"), "t", snaps) for raw in raw_ts]
    if not ts:
        ts = [grid.horizon]

    raw_bs = values.get("b_list", "0.5,1,2")
    if isinstance(raw_bs, str):
        raw_bs = [part.strip() for part in raw_bs.split(",") if part.strip()]
    b_list = [_parse_float(raw, "b_list") for raw in raw_bs]
    if not b_list:
        raise ConfigError("b_list must contain at least one value")
    for raw, b in zip(raw_bs, b_list):
        try:
            MixParams(1.0, b)  # the study's channel: a = 1
        except ValueError as exc:  # 1 + b^2 overflows
            raise ConfigError(f"invalid value for b_list: {raw!r}: {exc}") from None
        # The naive estimator's squared errors scale as b^2 and their
        # co-moment over the paths as b^4 * paths; past the float range its
        # standard error would be inf.
        if not math.isfinite(b * b * b * b * n_paths):
            raise ConfigError(f"invalid value for b_list: {raw!r}: "
                              "b^4 * paths overflows the Monte Carlo moments")

    out_dir = Path(str(values.get("out", _DEFAULTS["out"])))

    if report is None:
        report = lambda msg: print(msg, file=sys.stderr)
    for message in snaps:
        report(message)

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
