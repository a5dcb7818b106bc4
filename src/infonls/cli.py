"""Command-line entry point.

Usage: infonls <command> --config <path> [--out <dir>] [--threads N]

``--threads`` is accepted and ignored: every command runs on one thread.

Exit codes: 0 success, 2 config error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import sys

from .config import COMMANDS, parse_config
from .errors import ConfigParseError, ConfigValidationError, InfonlsError


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="infonls",
        description="Nonlinear Schrodinger experiments: sweeps, exact-state "
                    "verification, information measures.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="path to the experiment config")
    parser.add_argument("--out", default=None, help="output directory (default from config)")
    parser.add_argument("--threads", type=int, default=1, help="accepted and ignored; sweeps run on one thread")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with open(args.config) as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        cfg = parse_config(text)
        if cfg.command != args.command:
            raise ConfigValidationError(
                f"config command '{cfg.command}' does not match CLI command "
                f"'{args.command}'"
            )
    except (ConfigParseError, ConfigValidationError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    out_dir = args.out if args.out is not None else cfg.directory
    from .sweeps import run_sweep

    try:
        manifest = run_sweep(cfg, out_dir)
    except InfonlsError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    print(f"{cfg.command}: wrote {', '.join(manifest.output_files)} to {out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
