"""Experiment configuration: one key table behind flags, config files and defaults.

A config describes one experiment run: which kernel, which grid, which
observation channel, which times, how many paths, and where the CSV
output goes.  `KEYS` lists every config key once, with its default, its
parser, the kinds that read it and its help text.  The CLI builds every
kind's flags from it, and each kind's `--help` lists the keys it reads;
config files may use only its keys, and its defaults fill every key that
neither gives.  Values given on the command line override values from
the config file.

Every key given is parsed by its own parser, whatever the kind, so a
malformed value is refused everywhere; only the kinds that read a key
build from it.  The channel is built for `predict` and `verify` alone,
and only `predict` resolves its `u` and `mse-study` its `t`: they snap
to the nearest grid node (ties toward the smaller node) and every
nontrivial snap is recorded in `snaps`.

Config only parses: it rejects malformed and non-finite numbers, empty
lists, and the CLI's ranges for cells, paths and seed.  The grid, the
kernel, its cell averages and the channel refuse the rest; every refusal,
here or there, is a `kernels.Refused`.  A written covariance is judged by
`kernels.check_written`, and `simulate.half_exponents` keeps Monte Carlo
moments in range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .kernels import (
    BrownianIdentity,
    ExponentialOU,
    Refused,
    RiemannLiouville,
    TabulatedKernel,
    TimeGrid,
    VolterraKernel,
    cell_average_matrix,
)
from .predict import rho_to_mix
from .simulate import MixParams

KINDS = {
    "predict": "conditional mean and covariance for one simulated path",
    "covariance": "unconditional covariance matrix of the hidden process",
    "mse-study": "naive vs filtered estimation error across noise levels",
    "verify": "run the invariant suite and report pass/fail per check",
}
KERNEL_NAMES = ("bm", "rl", "ou", "tabulated")

MIN_CELLS, MAX_CELLS = 8, 4096
MIN_PATHS, MAX_PATHS = 100, 10_000_000


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


def _float(raw, key: str) -> float:
    try:
        value = float(raw)
    except (TypeError, ValueError):
        raise Refused(f"invalid value for {key}: {raw!r}") from None
    if not math.isfinite(value):
        raise Refused(f"invalid value for {key}: {raw!r} is not finite")
    return value


def _floats(raw, key: str) -> list[float]:
    """At least one comma-separated float, blanks skipped; a repeated key joins its texts."""
    text = raw if isinstance(raw, str) else ",".join(map(str, raw))
    values = [_float(part, key) for part in map(str.strip, text.split(",")) if part]
    if not values:
        raise Refused(f"{key} must contain at least one value")
    return values


def _count(low: int, high: int, span: str = ""):
    """A parser of base-10 integers in [low, high]; `span` words that range in its message."""
    def parse(raw, key: str) -> int:
        try:
            value = int(str(raw), 10)
        except (TypeError, ValueError):
            raise Refused(f"invalid value for {key}: {raw!r}") from None
        if not low <= value <= high:
            raise Refused(f"{key} must lie in {span or f'[{low}, {high}]'}")
        return value
    return parse


def _text(raw, key: str) -> str:
    return str(raw)


CHANNEL = ("predict", "verify")
MONTE_CARLO = ("mse-study", "verify")

# Every config key in flag order: (default, parser, readers, help).  A key
# whose default is None is absent unless a flag or the config file gives it.
# Every kind parses every key it is given; only its readers use it.
KEYS = {
    "kernel": ("bm", _text, KINDS, " | ".join(KERNEL_NAMES)),
    "hurst": (None, _float, KINDS, "Hurst index for the rl kernel, in (0,1)"),
    "theta": ("1", _float, KINDS, "decay rate for the ou kernel, >= 0"),
    "sigma": ("1", _float, KINDS, "scale for the ou kernel, > 0"),
    "tabulated": (None, _text, KINDS, "CSV file of per-cell kernel averages"),
    "a": (None, _float, CHANNEL, "observation weight on the driving motion"),
    "b": (None, _float, CHANNEL, "observation weight on the disturbance"),
    "rho": (None, _float, CHANNEL, "channel correlation; expands to (rho, sqrt(1-rho^2))"),
    "horizon": ("1", _float, KINDS, "time horizon T > 0"),
    "cells": ("256", _count(MIN_CELLS, MAX_CELLS), KINDS,
              f"grid cells in [{MIN_CELLS}, {MAX_CELLS}]"),
    "u": (None, _float, ("predict",), "observation time, snapped to the grid; default: horizon"),
    "t": (None, _floats, ("mse-study",),
          "evaluation times, comma-separated or repeated, snapped to the grid; default: horizon"),
    "b_list": ("0.5,1,2", _floats, MONTE_CARLO, "comma-separated noise levels"),
    "paths": ("100000", _count(MIN_PATHS, MAX_PATHS), MONTE_CARLO,
              f"Monte Carlo paths in [{MIN_PATHS}, {MAX_PATHS}]"),
    "seed": ("42", _count(0, 2**64 - 1, "[0, 2**64)"), ("predict", *MONTE_CARLO), "base RNG seed"),
    "out": ("out", _text, KINDS, "output directory for CSV files"),
}
REPEATED = ("t",)  # each flag or config file line of a repeated key adds to its values


def read_config_file(path: str | Path) -> dict:
    """Read a flat `key = value` file; '#' starts a comment, blanks skipped."""
    values: dict = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise Refused(f"cannot read config file {path}: {exc}") from None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise Refused(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        key = key.replace("-", "_")
        if key not in KEYS:
            raise Refused(f"{path}:{lineno}: unknown config key {key!r}")
        if key in REPEATED:
            values.setdefault(key, []).append(raw)
        else:
            values[key] = raw
    return values


def _build_kernel(values: dict, grid: TimeGrid) -> VolterraKernel:
    name = values["kernel"].lower()
    if name not in KERNEL_NAMES:
        raise Refused(f"unknown kernel {name!r} (expected one of {', '.join(KERNEL_NAMES)})")
    if name == "bm":
        return BrownianIdentity()
    if name == "rl":
        if "hurst" not in values:
            raise Refused("kernel rl requires hurst")
        return RiemannLiouville(values["hurst"])
    if name == "ou":
        return ExponentialOU(decay=values["theta"], scale=values["sigma"])
    # tabulated: per-cell averages stored as a CSV matrix of shape
    # (cells + 1, cells)
    if "tabulated" not in values:
        raise Refused("kernel tabulated requires tabulated = <csv file>")
    path = Path(values["tabulated"])
    try:
        table = np.loadtxt(path, delimiter=",", ndmin=2)
    except OSError as exc:
        raise Refused(f"cannot read tabulated kernel file {path}: {exc}") from None
    except ValueError as exc:
        raise Refused(f"malformed tabulated kernel file {path}: {exc}") from None
    try:
        return TabulatedKernel(table, grid)
    except Refused as exc:
        raise Refused(f"tabulated kernel file {path}: {exc}") from None


def _build_channel(values: dict, kind: str) -> MixParams:
    has_ab = "a" in values or "b" in values
    has_rho = "rho" in values
    if has_ab and has_rho:
        raise Refused("give either (a, b) or rho, not both")
    if has_rho:
        return rho_to_mix(values["rho"])
    if has_ab:
        return MixParams(a=values.get("a", 0.0), b=values.get("b", 0.0))
    if kind == "predict":
        raise Refused("predict requires a channel: give a and b, or rho")
    return MixParams(1.0, 1.0)


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
        raise Refused(f"unknown experiment kind {kind!r} (expected one of {tuple(KINDS)})")
    given = {key: default for key, (default, *_) in KEYS.items() if default is not None}
    if file:
        given.update(read_config_file(file))
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        key = key.replace("-", "_")
        if key not in KEYS:
            raise Refused(f"unknown config key {key!r}")
        given[key] = value
    values = {key: parse(given[key], key) for key, (_, parse, *_) in KEYS.items() if key in given}
    reads = {key for key, (_, _, readers, _) in KEYS.items() if kind in readers}

    # The models refuse their own out-of-range values, K its non-finite node variances.
    grid = TimeGrid(horizon=values["horizon"], cells=values["cells"])
    kernel = _build_kernel(values, grid)
    cell_average_matrix(kernel, grid)
    channel = _build_channel(values, kind) if kind in CHANNEL else None

    snaps: list[str] = []
    u = None
    if "u" in reads:
        u = _snap(grid, values["u"], "u", snaps) if "u" in values else grid.horizon
    ts = []
    if "t" in reads:
        ts = [_snap(grid, t, "t", snaps) for t in values["t"]] if "t" in values else [grid.horizon]

    return ExperimentConfig(
        kind=kind,
        kernel=kernel,
        grid=grid,
        channel=channel,
        u=u,
        ts=ts,
        b_list=values["b_list"],
        n_paths=values["paths"],
        seed=values["seed"],
        out_dir=Path(values["out"]),
        snaps=snaps,
    )
