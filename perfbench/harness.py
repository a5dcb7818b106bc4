"""Shared machinery of the benchmark: spans, correctness counts, statistics,
the machine record and peak memory.

Nothing here imports numpy or infonls at module level, so a set-up sample
pays only for what the workload itself needs.
"""

from __future__ import annotations

import contextlib
import os
import platform
import resource
import statistics
import time
from pathlib import Path

#: Environment variables that pin BLAS and OpenMP pools to one thread, so the
#: two sweep threads of a workload do not oversubscribe a two-core machine.
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def pin_blas_threads(env: dict) -> dict:
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    return env


def nproc() -> int:
    return len(os.sched_getaffinity(0))


class Checks:
    """Counts correctness checks; a failed check is recorded, never timed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{name}: {detail}" if detail else name)
        return bool(ok)

    def fail(self, name: str, detail: str) -> None:
        self.check(name, False, detail)


class Tracer:
    """In-memory spans: (name, start, end, parent index, run id).

    Spans nest by the order they are opened; the benchmark opens one around
    each call it makes into a layer, so a layer's self time is its span minus
    the spans opened inside it.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        rec = [name, time.perf_counter(), None, parent, self.run_id]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._open.pop()

    def add_closed(self, name: str, start: float, end: float) -> None:
        """Record a span measured elsewhere (e.g. inside a subprocess)."""
        parent = self._open[-1] if self._open else None
        self.spans.append([name, start, end, parent, self.run_id])

    def durations(self, name: str) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name]


class NullTracer:
    """Tracing off: one shared no-op context per call."""

    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null

    def add_closed(self, name: str, start: float, end: float) -> None:
        pass


def self_times(spans: list[list]) -> dict[str, dict]:
    """Per layer: span count, busy time and self time (busy minus children)."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    out: dict[str, dict] = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        layer = name.split(".", 1)[0]
        agg = out.setdefault(layer, {"spans": 0, "busy_s": 0.0, "self_s": 0.0})
        agg["spans"] += 1
        agg["busy_s"] += end - start
        agg["self_s"] += end - start - child_time[i]
    return out


def per_call(spans: list[list]) -> dict[str, dict]:
    """Per span name: call count, busy time and median duration."""
    by_name: dict[str, list[float]] = {}
    for name, start, end, _, _ in spans:
        by_name.setdefault(name, []).append(end - start)
    return {
        name: {"calls": len(d), "busy_s": sum(d), "median_s": statistics.median(d)}
        for name, d in by_name.items()
    }


def median(values) -> float:
    return statistics.median(values)


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3); equal to the median for fewer than two samples."""
    values = list(values)
    if len(values) < 2:
        m = values[0]
        return m, m, m
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def peak_rss_mb() -> float:
    """Peak resident set of this process or any waited-for child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def _read(path: str) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return ""


def machine_record() -> dict:
    """Read-only description of the machine and numeric stack."""
    import numpy
    import scipy

    model = ""
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = []
    cache_root = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(cache_root.glob("index*")):
        caches.append(
            f"L{_read(str(idx / 'level'))} {_read(str(idx / 'type'))} "
            f"{_read(str(idx / 'size'))}"
        )
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_build = "unknown"
    return {
        "nproc": nproc(),
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_build": blas_build,
        "blas_threads": {var: os.environ.get(var, "") for var in BLAS_THREAD_VARS},
    }
