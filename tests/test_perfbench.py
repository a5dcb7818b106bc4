"""The benchmark's own tests (``perfbench/selftest.py``) run in Tier-1, so
a package change that breaks them, such as a report field the self-test
builds, fails here and not only in the benchmark."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-4000:]
