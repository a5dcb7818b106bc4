"""Experiment execution: runs a validated config, writes CSV tables and a
JSON manifest.

Determinism contract: identical configs produce byte-identical CSVs and the
same manifest input hash. Floats are serialized with repr (shortest
round-trip decimal); rows are emitted in a fixed order. A shift sweep runs
every (eta, L, state) point on the calling thread, in parameter order.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .config import ExperimentConfig, _validate, render_config
from .dynamics import evolve
from .errors import NonFiniteError
from .exact import (
    ExactSolutionSpec,
    build_exact_state,
    cotangent_params,
    exact_energy,
    exact_energy_bounds,
    linear_residual_cotangent,
    nonlinear_residual,
)
from .grid import Density, Grid, NonlinearParams, Wavefunction, normalize
from .measures import fisher_information, kl_divergence_shifted, shannon_entropy
from .spectra import (
    first_order_shift_numeric,
    minimize_over_eta,
    node_shift_eta_profile,
    sho_ground_shift_closed,
    solve_linear_spectrum,
)

SCHEMAS = {
    "shift_result": ("eta", "L", "state_index", "delta_E"),
    "eta_opt": ("profile", "eta_star", "value"),
    "spectrum": ("state_index", "energy"),
    "evolve": ("time", "norm_drift", "energy"),
    "exact_verify": ("kappa", "eta", "L", "energy", "lower_bound",
                     "max_residual", "excluded_fraction"),
    "cotangent": ("kappa", "eta", "L", "A", "B", "beta", "max_residual"),
    "measures": ("name", "L", "value", "quadrature_error_estimate"),
}


@dataclass(frozen=True)
class RunManifest:
    command: str
    config_echo: str
    artifact_version: str
    wall_time_s: float
    output_files: tuple[str, ...]
    input_hash: str


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        value = float(value)
        if not math.isfinite(value):
            raise NonFiniteError(f"refusing to serialize non-finite value {value}")
        return repr(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def emit_results(rows, schema_id: str, path: Path) -> Path:
    """Write rows (sequences matching the schema) as a CSV with fixed header."""
    header = SCHEMAS[schema_id]
    lines = [",".join(header)]
    for row in rows:
        if len(row) != len(header):
            raise ValueError(f"row arity {len(row)} does not match schema '{schema_id}'")
        lines.append(",".join(_fmt(v) for v in row))
    path = Path(path)
    path.write_text("\n".join(lines) + "\n")
    return path


def _initial_state(cfg: ExperimentConfig, grid: Grid) -> Wavefunction:
    x = grid.x
    if cfg.initial_kind == "plane-wave":
        vals = np.exp(1j * cfg.initial_k * x)
    else:
        vals = np.exp(-((x - cfg.initial_center) ** 2) / (4.0 * cfg.initial_sigma**2))
    return normalize(Wavefunction(grid, vals.astype(np.complex128)))


def _params(cfg: ExperimentConfig) -> NonlinearParams:
    """The one (eta, L) point of a command that validation limits to one."""
    return NonlinearParams.for_length(cfg.L_values[0], cfg.eta_values[0], cfg.constants())


def _run_evolve(cfg: ExperimentConfig) -> tuple[str, list]:
    grid = cfg.grid()
    report = evolve(_initial_state(cfg, grid), cfg.potential(grid), _params(cfg),
                    cfg.constants(), cfg.dt, cfg.n_steps, policy=cfg.policy or None)
    rows = list(zip(report.times, report.norm_drift, report.energy_trace))
    return "evolve", rows


def _run_spectrum(cfg: ExperimentConfig) -> tuple[str, list]:
    grid = cfg.grid()
    sol = solve_linear_spectrum(cfg.potential(grid), grid, cfg.constants(), cfg.n_states)
    return "spectrum", [(j, float(e)) for j, e in enumerate(sol.energies)]


def _run_shift_sweep(cfg: ExperimentConfig) -> tuple[str, list]:
    grid = cfg.grid()
    consts = cfg.constants()
    policy = cfg.policy or None
    sol = solve_linear_spectrum(cfg.potential(grid), grid, consts, cfg.n_states)
    rows = []
    for eta in cfg.eta_values:
        for L in cfg.L_values:
            params = NonlinearParams.for_length(L, eta, consts)
            for j in range(cfg.n_states):
                res = first_order_shift_numeric(sol.states[j], params, consts, policy=policy)
                rows.append((res.eta, res.L, j, res.delta_E))
    return "shift_result", rows


def _run_eta_opt(cfg: ExperimentConfig) -> tuple[str, list]:
    if cfg.profile == "node-excited":
        fn = node_shift_eta_profile
    else:
        fn = lambda eta: sho_ground_shift_closed(eta, cfg.L_over_a)
    eta_star, value = minimize_over_eta(fn)
    return "eta_opt", [(cfg.profile, eta_star, value)]


def _run_exact_verify(cfg: ExperimentConfig) -> tuple[str, list]:
    grid = cfg.grid()
    consts = cfg.constants()
    params = _params(cfg)
    psi = build_exact_state(ExactSolutionSpec(cfg.kappa, params, cfg.alpha), grid)
    e = exact_energy(cfg.kappa, params, consts)
    lower, _ = exact_energy_bounds(params, consts)
    radius = cfg.node_exclusion_radius_steps * grid.dx
    res, frac = nonlinear_residual(psi, e, params, consts, radius)
    return "exact_verify", [(cfg.kappa, params.eta, params.L, e, lower, res, frac)]


def _run_cotangent(cfg: ExperimentConfig) -> tuple[str, list]:
    grid = cfg.grid()
    consts = cfg.constants()
    params = _params(cfg)
    psi = build_exact_state(ExactSolutionSpec(cfg.kappa, params), grid)
    e = exact_energy(cfg.kappa, params, consts)
    cot = cotangent_params(cfg.kappa, params, consts)
    radius = cfg.node_exclusion_radius_steps * grid.dx
    res = linear_residual_cotangent(psi, e, cot, consts, radius)
    return "cotangent", [(cfg.kappa, params.eta, params.L, cot.A, cot.B, cot.beta, res)]


def _run_measures(cfg: ExperimentConfig) -> tuple[str, list]:
    grid = cfg.grid()
    x = grid.x
    center = 0.5 * (x[0] + x[-1])
    p = np.exp(-((x - center) ** 2) / cfg.density_sigma**2)
    dens = Density(grid, p / np.sum(p * grid.quad_weights()))
    rows = []
    for L in cfg.L_values:
        kl = kl_divergence_shifted(dens, L, policy=cfg.policy or None)
        rows.append(("kl_shifted", L, kl.value, kl.quadrature_error_estimate))
    fish = fisher_information(dens)
    rows.append(("fisher", 0.0, fish.value, fish.quadrature_error_estimate))
    sh = shannon_entropy(dens)
    rows.append(("shannon", 0.0, sh.value, sh.quadrature_error_estimate))
    return "measures", rows


_RUNS = {
    "evolve": _run_evolve,
    "spectrum": _run_spectrum,
    "shift-sweep": _run_shift_sweep,
    "eta-opt": _run_eta_opt,
    "exact-verify": _run_exact_verify,
    "cotangent": _run_cotangent,
    "measures": _run_measures,
}


def run_sweep(cfg: ExperimentConfig, out_dir: str | Path, threads: int = 1) -> RunManifest:
    """Validate cfg as ``parse_config`` does (ConfigValidationError, with no
    line numbers), execute its command on the calling thread and write one
    CSV and a manifest. ``threads`` is accepted and ignored (a thread pool
    made shift sweeps slower); it stays until ``perfbench`` stops passing it."""
    _validate(cfg, {})
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    schema, rows = _RUNS[cfg.command](cfg)
    csv_path = emit_results(rows, schema, out / f"{schema}.csv")
    echo = render_config(cfg)
    manifest = RunManifest(
        command=cfg.command,
        config_echo=echo,
        artifact_version=__version__,
        wall_time_s=time.perf_counter() - t0,
        output_files=(csv_path.name,),
        input_hash=hashlib.sha256(echo.encode()).hexdigest(),
    )
    (out / "manifest.json").write_text(json.dumps(asdict(manifest), indent=2) + "\n")
    return manifest
