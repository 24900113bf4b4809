"""Command-line interface: predict | covariance | mse-study | verify."""

from __future__ import annotations

import argparse
import sys

from .config import KEYS, KINDS, REPEATED, parse_config
from .kernels import Refused
from .runner import run_experiment


def _add_common_flags(parser: argparse.ArgumentParser, kind: str) -> None:
    parser.add_argument("--config", help="flat key = value config file")
    for key, (default, _, readers, text) in KEYS.items():
        if default is not None:
            text = f"{text} (default {default})"
        parser.add_argument("--" + key.replace("_", "-"),
                            action="append" if key in REPEATED else "store",
                            help=text if kind in readers else argparse.SUPPRESS)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="volmix",
        description="Simulate Gaussian Volterra processes observed through a "
                    "noisy Brownian channel, compute their conditional "
                    "prediction law, and verify the variance-reduction claims.",
    )
    sub = parser.add_subparsers(dest="kind", required=True)
    for kind, text in KINDS.items():
        _add_common_flags(sub.add_parser(kind, help=text), kind)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {key: value for key, value in vars(args).items()
                 if key not in ("kind", "config")}
    try:
        cfg = parse_config(args.kind, file=args.config, overrides=overrides)
        for message in cfg.snaps:
            print(message, file=sys.stderr)
        return run_experiment(cfg)
    except Refused as exc:  # an input outside the model; any other exception is a defect
        print(f"volmix {args.kind}: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:  # an output that cannot be written
        print(f"volmix {args.kind}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
