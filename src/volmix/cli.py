"""Command-line interface: predict | covariance | mse-study | verify."""

from __future__ import annotations

import argparse
import sys

from .config import KINDS, ConfigError, parse_config
from .runner import run_experiment


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key = value config file")
    parser.add_argument("--kernel", help="bm | rl | ou | tabulated")
    parser.add_argument("--hurst", help="Hurst index for the rl kernel, in (0,1)")
    parser.add_argument("--theta", help="decay rate for the ou kernel, >= 0")
    parser.add_argument("--sigma", help="scale for the ou kernel, > 0")
    parser.add_argument("--tabulated", help="CSV file of per-cell kernel averages")
    parser.add_argument("--a", help="observation weight on the driving motion")
    parser.add_argument("--b", help="observation weight on the disturbance")
    parser.add_argument("--rho", help="channel correlation; expands to (rho, sqrt(1-rho^2))")
    parser.add_argument("--horizon", help="time horizon T > 0 (default 1)")
    parser.add_argument("--cells", help="grid cells in [8, 4096] (default 256)")
    parser.add_argument("--u", help="observation time; snapped to the grid")
    parser.add_argument("--t", action="append",
                        help="evaluation time; repeatable, snapped to the grid")
    parser.add_argument("--b-list", dest="b_list",
                        help="comma-separated noise levels for mse-study")
    parser.add_argument("--paths", help="Monte Carlo paths in [1e2, 1e7] (default 1e5)")
    parser.add_argument("--seed", help="base RNG seed (default 42)")
    parser.add_argument("--out", help="output directory for CSV files (default ./out)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="volmix",
        description="Simulate Gaussian Volterra processes observed through a "
                    "noisy Brownian channel, compute their conditional "
                    "prediction law, and verify the variance-reduction claims.",
    )
    sub = parser.add_subparsers(dest="kind", required=True)
    helps = {
        "predict": "conditional mean and covariance for one simulated path",
        "covariance": "unconditional covariance matrix of the hidden process",
        "mse-study": "naive vs filtered estimation error across noise levels",
        "verify": "run the invariant suite and report pass/fail per check",
    }
    for kind in KINDS:
        _add_common_flags(sub.add_parser(kind, help=helps[kind]))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {key: value for key, value in vars(args).items()
                 if key not in ("kind", "config")}
    try:
        cfg = parse_config(args.kind, file=args.config, overrides=overrides)
    except ConfigError as exc:
        print(f"volmix: {exc}", file=sys.stderr)
        return 2
    for message in cfg.snaps:
        print(message, file=sys.stderr)
    try:
        return run_experiment(cfg)
    except RuntimeError as exc:
        print(f"volmix: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
