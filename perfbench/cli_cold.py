"""cli-cold: each sample config run as a fresh ``infonls <cmd>`` process.

This is how users drive the package, and every command pays a cold import
(about 0.8 s, most of it scipy.interpolate) before work that takes under
40 ms for six of the seven configs; the evolve config keeps the RK4 kernel
in the round total. Commands run one after another (closed loop, one
client); shift-sweep gets ``--threads nproc``. The seed does not enter:
the inputs are the repository's own configs.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field

from infonls.config import parse_config

import paper
from harness import median, pin_blas_threads

TIMEOUT_S = 120
IMPORTTIME_SAMPLES = 3
PARSE_REPS = 200


@dataclass
class State:
    ctx: object
    runs: list  # (config path, config text, parsed config), in file-name order
    env: dict
    hashes: dict = field(default_factory=dict)


def setup(ctx) -> State:
    paths = sorted((ctx.root / "configs").glob("*.cfg"))
    if not paths:
        raise FileNotFoundError(f"no configs/*.cfg under {ctx.root}")
    runs = []
    for path in paths:
        text = path.read_text()
        runs.append((path, text, parse_config(text)))
    env = pin_blas_threads(dict(os.environ, PYTHONPATH=str(ctx.root / "src")))
    return State(ctx=ctx, runs=runs, env=env)


def _check_evolve(cfg, rows, checks):
    checks.check("evolve rows = n_steps + 1", len(rows) == cfg.n_steps + 1, str(len(rows)))
    drift = max(float(r["norm_drift"]) for r in rows)
    checks.check("evolve norm_drift < 1e-8", drift < 1e-8, f"{drift:.2e}")
    checks.check("evolve energies finite", all(math.isfinite(float(r["energy"])) for r in rows))


def _check_spectrum(cfg, rows, checks):
    checks.check("spectrum rows = n_states", len(rows) == cfg.n_states, str(len(rows)))
    for r in rows:
        n = int(r["state_index"])
        ref = paper.harmonic_level(n, cfg.hbar, cfg.omega)
        err = abs(float(r["energy"]) / ref - 1.0)
        checks.check(f"spectrum level {n} within 1e-5", err < 1e-5, f"{err:.2e}")


def _check_shift_sweep(cfg, rows, checks):
    n = len(cfg.eta_values) * len(cfg.L_values) * cfg.n_states
    checks.check("shift-sweep rows", len(rows) == n, str(len(rows)))
    checks.check("shift-sweep shifts finite", all(math.isfinite(float(r["delta_E"])) for r in rows))


def _check_eta_opt(cfg, rows, checks):
    star = paper.ETA_NODE_STAR if cfg.profile == "node-excited" else paper.ETA_GAUSS_STAR
    eta = float(rows[0]["eta_star"])
    checks.check("eta-opt eta* within 1e-6", abs(eta - star) < 1e-6, repr(eta))


def _check_exact_verify(cfg, rows, checks):
    r = rows[0]
    ref = paper.exact_energy(cfg.kappa, float(r["eta"]), float(r["L"]), cfg.hbar, cfg.mass)
    err = abs(float(r["energy"]) / ref - 1.0)
    checks.check("exact-verify energy matches the closed form", err < 1e-12, f"{err:.2e}")
    res = float(r["max_residual"])
    checks.check("exact-verify residual < 1e-6", res < 1e-6, f"{res:.2e}")


def _check_cotangent(cfg, rows, checks):
    res = float(rows[0]["max_residual"])
    checks.check("cotangent residual < 1e-5", res < 1e-5, f"{res:.2e}")


def _check_measures(cfg, rows, checks):
    fisher = float(next(r["value"] for r in rows if r["name"] == "fisher"))
    # Gaussian density: 2 KL(L) / L^2 equals the Fisher information at every L
    for r in rows:
        if r["name"] == "kl_shifted":
            L = float(r["L"])
            err = abs(2.0 * float(r["value"]) / L**2 - fisher) / fisher
            checks.check("measures 2 KL / L^2 = Fisher", err < 1e-6, f"L={L} err={err:.2e}")


CHECKERS = {
    "evolve": _check_evolve,
    "spectrum": _check_spectrum,
    "shift-sweep": _check_shift_sweep,
    "eta-opt": _check_eta_opt,
    "exact-verify": _check_exact_verify,
    "cotangent": _check_cotangent,
    "measures": _check_measures,
}


def check_output(st: State, cfg, data: bytes, checks) -> None:
    """Check one command's CSV, and that it repeats the run's first round."""
    digest = hashlib.sha256(data).hexdigest()
    first = st.hashes.setdefault(cfg.command, digest)
    checks.check(f"{cfg.command} CSV sha256 identical across rounds", digest == first)
    rows = list(csv.DictReader(io.StringIO(data.decode())))
    if checks.check(f"{cfg.command} CSV has rows", bool(rows)):
        CHECKERS[cfg.command](cfg, rows, checks)


def run_pass(st: State, tr, checks) -> dict:
    ops = []
    for path, _, cfg in st.runs:
        out = st.ctx.tmp / "cli" / cfg.command
        argv = [sys.executable, "-m", "infonls.cli", cfg.command, "--config", str(path), "--out", str(out)]
        if cfg.command == "shift-sweep":
            argv += ["--threads", str(st.ctx.nproc)]
        with tr.span(f"cli.{cfg.command}"):
            t0 = time.perf_counter()
            proc = subprocess.run(argv, env=st.env, cwd=st.ctx.root, capture_output=True,
                                  text=True, timeout=TIMEOUT_S)
            t1 = time.perf_counter()
            ok = checks.check(f"{cfg.command} exit code 0", proc.returncode == 0,
                              f"exit {proc.returncode}: {proc.stderr[-300:]}")
            if ok:
                manifest = json.loads((out / "manifest.json").read_text())
                # the command's own work, as its manifest times it
                tr.add_closed("sweeps.run_sweep", t1 - manifest["wall_time_s"], t1)
        ops.append(t1 - t0)
        if ok:
            check_output(st, cfg, (out / manifest["output_files"][0]).read_bytes(), checks)
    return {"ops": ops}


def _importtime(st: State) -> tuple[float, float]:
    """Cumulative import time of infonls and of scipy.interpolate, in s."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import infonls"],
                          env=st.env, cwd=st.ctx.root, capture_output=True, text=True,
                          timeout=TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"import infonls failed: {proc.stderr[-300:]}")
    cumulative = {}
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
            cumulative[parts[2].strip()] = int(parts[1]) * 1e-6
    return cumulative["infonls"], cumulative["scipy.interpolate"]


def layer_table(st: State, tr, checks) -> dict:
    samples = [_importtime(st) for _ in range(IMPORTTIME_SAMPLES)]
    for _ in range(PARSE_REPS):
        for _, text, _ in st.runs:
            with tr.span("config.parse_config"):
                parse_config(text)
    return {
        "import.infonls_s": (median(s[0] for s in samples), "s"),
        "import.scipy_interpolate_s": (median(s[1] for s in samples), "s"),
        "config.parse_config.us": (1e6 * median(tr.durations("config.parse_config")), "us"),
    }
