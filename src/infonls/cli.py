"""Command-line entry point.

Usage: infonls <command> --config <path> [--out <dir>] [--threads N]

``--threads`` is accepted and ignored: every command runs on one thread.

Exit codes: 0 success, 2 config error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
import time

from .config import COMMANDS, _inputs, _read
from .errors import ConfigParseError, ConfigValidationError, InfonlsError
from .sweeps import _run


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
    # the inputs are built once, here: a refusal is a config error, and the
    # run solves from them
    try:
        cfg, lines = _read(text)
        if cfg.command != args.command:
            raise ConfigValidationError(
                f"config command '{cfg.command}' does not match CLI command "
                f"'{args.command}'"
            )
        t0 = time.perf_counter()
        inputs = _inputs(cfg, lines)
    except (ConfigParseError, ConfigValidationError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    out_dir = args.out if args.out is not None else cfg.directory
    try:
        manifest = _run(cfg, inputs, out_dir, t0)
    except InfonlsError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    print(f"{cfg.command}: wrote {', '.join(manifest.output_files)} to {out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
