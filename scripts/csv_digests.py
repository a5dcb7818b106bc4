#!/usr/bin/env python3
"""Run every sample config and print the sha256 of each CSV it writes and the
input hash of each manifest.

The CSVs are deterministic, so two checkouts that print the same lines
compute the same numbers. To diff a change against its parent:

    PYTHONPATH=src python3 scripts/csv_digests.py > new.txt
    PYTHONPATH=<parent>/src python3 scripts/csv_digests.py --configs <parent>/configs > old.txt
    diff old.txt new.txt
"""

import argparse
import hashlib
import json
import tempfile
from pathlib import Path

from infonls.config import parse_config
from infonls.sweeps import run_sweep


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument(
        "--configs",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "configs",
        help="directory of *.cfg files (default: the repository's configs/)",
    )
    args = ap.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        for path in sorted(args.configs.glob("*.cfg")):
            out = Path(tmp) / path.stem
            manifest = run_sweep(parse_config(path.read_text()), out)
            for name in manifest.output_files:
                digest = hashlib.sha256((out / name).read_bytes()).hexdigest()
                print(f"{path.name} {name} sha256 {digest}")
            input_hash = json.loads((out / "manifest.json").read_text())["input_hash"]
            print(f"{path.name} manifest.json input_hash {input_hash}")


if __name__ == "__main__":
    main()
