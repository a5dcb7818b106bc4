#!/usr/bin/env python3
"""Benchmark of the infonls package, built from ``src/`` of the checkout it
sits in.

    python3 perfbench/run.py --workload evolve-exact --seed 1 --seconds 20 --trace 0

Workloads: evolve-exact, stationary-sweep, cli-cold (see README.md). Every
pass checks its outputs against the paper's closed forms; a failed check is
counted and that pass is not timed. With ``--trace 0`` the last line of
standard output is a JSON object with the end-to-end metrics; with
``--trace 1`` it holds the per-layer table, the tracing overhead, and the
spans are written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from harness import (
    Checks,
    NullTracer,
    Tracer,
    machine_record,
    median,
    nproc,
    peak_rss_mb,
    per_call,
    pin_blas_threads,
    quartiles,
    self_times,
)

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = {
    "evolve-exact": "evolve_exact",
    "stationary-sweep": "stationary_sweep",
    "cli-cold": "cli_cold",
}
#: Fresh processes timed from spawn to ready; setup_s is their median.
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 120
#: Every run times at least this many passes, whatever --seconds says.
MIN_PASSES = 2


@dataclass(frozen=True)
class Context:
    root: Path
    seed: int
    tmp: Path
    nproc: int


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="build the workload's inputs, print 'ready' and exit")
    return parser.parse_args(argv)


def import_package():
    """Import infonls from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "infonls" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        raise FileNotFoundError(f"no infonls sources (src/infonls, configs/) under {ROOT}")
    sys.path.insert(0, str(src))
    import infonls

    if Path(infonls.__file__).resolve().parent != (src / "infonls").resolve():
        raise ImportError(f"infonls imported from {infonls.__file__}, not from {src}")


def sample_setup(args, checks: Checks) -> float | None:
    """Seconds from spawning a fresh interpreter to its 'ready' line."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-only"]
    t0 = time.perf_counter()
    with subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True) as proc:
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        try:
            _, err = proc.communicate(timeout=SETUP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            _, err = proc.communicate()
    if checks.check("setup sample ready", line.strip() == "ready" and proc.returncode == 0, err[-300:]):
        return t1 - t0
    return None


def run_passes(mod, state, tracers, seconds: float, checks: Checks, min_passes: int = MIN_PASSES):
    """Passes round-robin over ``tracers`` until ``seconds`` have passed; the
    pass in flight then completes. Returns, per tracer, (seconds, pass
    output) of the passes whose checks all held; a failed or raising pass is
    counted, not timed."""
    timed = [[] for _ in tracers]
    durations = []
    deadline = time.perf_counter() + seconds
    while True:
        k = len(durations) % len(tracers)
        tr = tracers[k]
        failed_before = checks.failed
        t0 = time.perf_counter()
        try:
            with tr.span("bench.pass"):
                out = mod.run_pass(state, tr, checks)
        except Exception:  # a raising pass is a failed result, not a crash
            checks.fail("pass raised", traceback.format_exc(limit=4))
            out = None
        dt = time.perf_counter() - t0
        durations.append(dt)
        if out is not None and checks.failed == failed_before:
            timed[k].append((dt, out))
        if len(durations) >= min_passes and time.perf_counter() >= deadline:
            return timed


def summary(values) -> dict:
    q1, q2, q3 = quartiles(values)
    return {"median": q2, "q1": q1, "q3": q3, "n": len(values)}


def collect(passes, key: str) -> list:
    return [v for _, out in passes for v in out.get(key, [])]


def end_to_end(args, passes, setup_samples) -> tuple[dict, dict]:
    """Metrics for the final JSON line, and the named figures printed beside
    them (with their sample counts and quartiles)."""
    tts = [dt for dt, _ in passes]
    ops = collect(passes, "ops")
    figures = {
        "setup_s": ("s", summary(setup_samples)),
        "time_to_solution_s": ("s", summary(tts)),
        "op_p50_ms": ("ms", summary([1e3 * v for v in ops])),
        "peak_rss_mb": ("MB", summary([peak_rss_mb()])),
    }
    metrics = {name: {"value": f[1]["median"], "unit": f[0]} for name, f in figures.items()}
    if args.workload == "evolve-exact":
        figures["evolve_steps_per_s"] = ("1/s", summary(collect(passes, "evolve_steps_per_s")))
    if args.workload == "cli-cold":
        figures["cli_wall_s_p50"] = ("s", summary(ops))
        figures["cli_round_s"] = ("s", summary(tts))
    return metrics, figures


def traced_run(args, mod, state, ctx, checks):
    """Untraced and traced passes alternate; then the layer table of every
    workload is measured under spans at that workload's own sizes."""
    untraced, traced = NullTracer(), Tracer(f"{args.workload}-seed{args.seed}-passes")
    plain, spanned = run_passes(mod, state, [untraced, traced], args.seconds, checks)
    if not plain or not spanned:
        return {}, {}, traced.spans
    t_plain = median([dt for dt, _ in plain])
    t_traced = median([dt for dt, _ in spanned])
    layers = Tracer(f"{args.workload}-seed{args.seed}-layers")
    table = {}
    for name, module in WORKLOADS.items():
        other = importlib.import_module(module)
        st = state if name == args.workload else other.setup(ctx)
        table.update(other.layer_table(st, layers, checks))
    table["trace.untraced_time_to_solution_s"] = (t_plain, "s")
    table["trace.traced_time_to_solution_s"] = (t_traced, "s")
    table["trace.overhead_share"] = ((t_traced - t_plain) / t_plain, "ratio")
    metrics = {name: {"value": v, "unit": u} for name, (v, u) in table.items()}
    n_traced = len(spanned)
    self_per_pass = {
        layer: {k: v / n_traced for k, v in agg.items()}
        for layer, agg in self_times(traced.spans).items()
    }
    return metrics, self_per_pass, traced.spans + layers.spans


def print_figures(figures: dict) -> None:
    for name, (unit, s) in figures.items():
        print(f"metric {name} = {s['median']!r} {unit} "
              f"(median of {s['n']}; q1 {s['q1']:.6g}, q3 {s['q3']:.6g})")


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_blas_threads(os.environ)  # before numpy is first imported
    try:
        import_package()
    except (FileNotFoundError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    mod = importlib.import_module(WORKLOADS[args.workload])
    OUT_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    ctx = Context(root=ROOT, seed=args.seed, tmp=tmp, nproc=nproc())
    try:
        if args.setup_only:
            mod.setup(ctx)
            print("ready", flush=True)
            return 0
        return measure(args, mod, ctx)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def measure(args, mod, ctx) -> int:
    checks = Checks()
    machine = machine_record()
    print("machine " + json.dumps(machine))
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine}
    if args.trace:
        state = mod.setup(ctx)
        metrics, self_per_pass, spans = traced_run(args, mod, state, ctx, checks)
        for layer, agg in sorted(self_per_pass.items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"self {layer}: {agg['self_s']:.6f} s/pass self, {agg['busy_s']:.6f} s/pass busy, "
                  f"{agg['spans']:g} spans/pass")
        for name, m in metrics.items():
            print(f"layer {name} = {m['value']!r} {m['unit']}")
        record.update(metrics=metrics, self_time_per_pass=self_per_pass,
                      calls=per_call(spans), spans=spans)
    else:
        setup_samples = [s for s in (sample_setup(args, checks) for _ in range(SETUP_SAMPLES)) if s]
        state = mod.setup(ctx)
        if args.workload != "cli-cold":  # users of the CLI pay every cold start
            run_passes(mod, state, [NullTracer()], 0.0, checks, min_passes=1)
        (passes,) = run_passes(mod, state, [NullTracer()], args.seconds, checks)
        metrics, figures = ({}, {}) if not passes or not setup_samples else end_to_end(
            args, passes, setup_samples)
        print_figures(figures)
        record.update(metrics=metrics, figures=figures)
    failed_fraction = checks.failed / max(checks.attempted, 1)
    print(f"metric failed_fraction = {failed_fraction!r} ({checks.failed} of {checks.attempted} checks)")
    for failure in checks.failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    record.update(attempted=checks.attempted, failed=checks.failed, failures=checks.failures)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({
        "correct": checks.failed == 0 and bool(metrics),
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }))
    return 0 if metrics else 1


if __name__ == "__main__":
    sys.exit(main())
