"""Experiment execution: each command's inputs and solve, a CSV table and a
JSON manifest.

Each command has one inputs function in ``_COMMANDS``, the one place that
knows which keys the command reads. ``config._inputs`` calls it on a view of
the config that records each read and refuses a value on its key's line
(``built``, ``refuse``); it checks each name where it reads it,
builds every object the command builds before its solve, states included,
and returns the CSV schema and a solve that computes the rows from those
objects alone, never from the config.

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
from .config import ExperimentConfig, _inputs, render_config
from .dynamics import _check_dt, evolve, harmonic_potential, quartic_potential, zero_potential
from .errors import NonFiniteError
from .exact import (
    ExactSolutionSpec,
    _check_halfline,
    build_exact_state,
    cotangent_params,
    exact_energy,
    exact_energy_bounds,
    linear_residual_cotangent,
    nonlinear_residual,
)
from .grid import (
    Density,
    NonlinearParams,
    Wavefunction,
    _check_policy,
    _check_steps,
    _normalized,
    integrate,
)
from .measures import fisher_information, kl_divergence_shifted, shannon_entropy
from .spectra import (
    _check_eigensolver,
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


@np.errstate(divide="ignore", invalid="ignore")  # sigma = 0: refused, not warned
def _initial_state(cfg: ExperimentConfig, grid) -> Wavefunction:
    x = grid.x
    if cfg.initial_kind == "plane-wave":
        vals = np.exp(1j * cfg.initial_k * x)
    elif cfg.initial_kind == "gaussian":
        if not math.isfinite(cfg.initial_center):
            raise ValueError("center must be finite")
        vals = np.exp(-((x - cfg.initial_center) ** 2) / (4.0 * cfg.initial_sigma**2))
    else:
        raise ValueError(f"initial state '{cfg.initial_kind}' unknown; one of gaussian, plane-wave")
    return _normalized(grid, vals)


@np.errstate(divide="ignore", invalid="ignore")
def _density(cfg: ExperimentConfig, grid) -> Density:
    x = grid.x
    center = 0.5 * (x[0] + x[-1])
    p = np.exp(-((x - center) ** 2) / cfg.density_sigma**2)
    return Density(grid, p / integrate(p, grid))


def _potential(cfg, consts, grid):
    if cfg.potential_kind == "harmonic":
        return cfg.built("omega", harmonic_potential, grid, consts, cfg.omega)
    if cfg.potential_kind == "quartic":
        return cfg.built("quartic_coeff", quartic_potential, grid, cfg.quartic_coeff)
    if cfg.potential_kind != "zero":
        raise cfg.refuse("potential_kind", f"unknown potential kind '{cfg.potential_kind}'")
    return zero_potential(grid)


def _policy(cfg, grid) -> str:
    """The shift policy of a command that shifts a density: the config's,
    else the grid's default."""
    policy = cfg.policy or grid.default_policy()
    cfg.built("policy", _check_policy, policy)
    return policy


def _params(cfg, consts, grid, bounded=True) -> list:
    """NonlinearParams of each (eta, L) point in order, its shift whole grid
    steps and, where the command shifts a density, below n_points. The
    measures shift is L itself, the eta = 1 shift of scale L."""
    if cfg.command == "measures":
        points = [(1.0, L, "L_values", f"L={L}") for L in cfg.L_values]
    else:
        points = [(eta, L, "eta_values", f"eta={eta}, L={L}")
                  for eta in cfg.eta_values for L in cfg.L_values]
    out = []
    for eta, L, attr, at in points:
        params = cfg.built("L_values", NonlinearParams.for_length, L, eta, consts, at=at)
        steps = cfg.built(attr, params.shift_steps, grid, at=at)
        if bounded:
            cfg.built(attr, _check_steps, steps, grid.n_points, at=at)
        out.append(params)
    return out


def _one_params(cfg, consts, grid, bounded=True) -> NonlinearParams:
    if len(cfg.eta_values) != 1 or len(cfg.L_values) != 1:
        raise cfg.refuse("eta_values", f"{cfg.command} requires exactly one eta and one L")
    return _params(cfg, consts, grid, bounded)[0]


def _evolve(cfg, consts, grid):
    V = _potential(cfg, consts, grid)
    params = _one_params(cfg, consts, grid)
    dt, n_steps = cfg.dt, cfg.n_steps
    if not (dt > 0 and n_steps > 0):
        raise cfg.refuse("dt", "evolve requires positive dt and n_steps")
    cfg.built("dt", _check_dt, dt, grid, consts)
    policy = _policy(cfg, grid)
    attr = "initial_k" if cfg.initial_kind == "plane-wave" else "initial_sigma"
    psi0 = cfg.built(attr, _initial_state, cfg, grid)

    def solve():
        report = evolve(psi0, V, params, consts, dt, n_steps, policy=policy)
        return list(zip(report.times, report.norm_drift, report.energy_trace))
    return "evolve", solve


def _spectrum(cfg, consts, grid):
    V = _potential(cfg, consts, grid)
    n_states = cfg.n_states
    cfg.built("boundary", _check_eigensolver, grid, n_states, cfg.command)
    return "spectrum", lambda: [(j, float(e)) for j, e in enumerate(
        solve_linear_spectrum(V, grid, consts, n_states).energies)]


def _shift_sweep(cfg, consts, grid):
    V = _potential(cfg, consts, grid)
    if not cfg.eta_values or not cfg.L_values:
        raise cfg.refuse("eta_values", "shift-sweep requires eta and L lists")
    points = _params(cfg, consts, grid)
    n_states = cfg.n_states
    cfg.built("boundary", _check_eigensolver, grid, n_states, cfg.command)
    policy = _policy(cfg, grid)

    def solve():
        states = solve_linear_spectrum(V, grid, consts, n_states).states
        shifts = [(j, first_order_shift_numeric(state, params, consts, policy=policy))
                  for params in points for j, state in enumerate(states)]
        return [(res.eta, res.L, j, res.delta_E) for j, res in shifts]
    return "shift_result", solve


def _eta_opt(cfg, consts, grid):
    profile = cfg.profile
    if profile == "node-excited":
        objective = node_shift_eta_profile
    elif profile == "gaussian-ground":
        L_over_a = cfg.L_over_a
        objective = lambda eta: sho_ground_shift_closed(eta, L_over_a)  # noqa: E731
    else:
        raise cfg.refuse(
            "profile", f"unknown profile '{profile}'; one of ('node-excited', 'gaussian-ground')")
    # one evaluation, so that the profile refuses its own parameter
    cfg.built("profile", objective, 0.5)
    return "eta_opt", lambda: [(profile, *minimize_over_eta(objective))]


def _exact(cfg, consts, grid):
    """exact-verify and cotangent; the cotangent check never shifts a
    density, so its shift is not bounded."""
    params = _one_params(cfg, consts, grid, bounded=cfg.command != "cotangent")
    spec = cfg.built("alpha", ExactSolutionSpec, cfg.kappa, params, cfg.alpha)
    e = cfg.built("eta_values", exact_energy, cfg.kappa, params, consts)
    cfg.built("boundary", _check_halfline, grid, cfg.command)
    # x = 0 is a singular point of the cotangent potential on every such
    # grid, so its radius must be positive; exact-verify accepts zero
    radius = cfg.node_exclusion_radius_steps
    if cfg.command == "cotangent" and not radius > 0:
        raise cfg.refuse("node_exclusion_radius_steps",
                         f"node_exclusion_radius_steps = {radius} must be positive")
    if not radius >= 0:
        raise cfg.refuse("node_exclusion_radius_steps",
                         f"node_exclusion_radius_steps = {radius} must not be negative")
    # the cotangent potential reproduces only the single-harmonic state
    if cfg.command == "cotangent" and cfg.alpha != ExperimentConfig.alpha:
        raise cfg.refuse("alpha", "cotangent takes only the default alpha = 1:1.0")
    psi = cfg.built("n_points", build_exact_state, spec, grid)
    radius *= grid.dx
    kappa = cfg.kappa
    if cfg.command == "cotangent":
        cot = cotangent_params(kappa, params, consts)
        return "cotangent", lambda: [(kappa, params.eta, params.L, cot.A, cot.B, cot.beta,
                                      linear_residual_cotangent(psi, e, cot, consts, radius))]
    lower, _ = exact_energy_bounds(params, consts)
    return "exact_verify", lambda: [(kappa, params.eta, params.L, e, lower,
                                     *nonlinear_residual(psi, e, params, consts, radius))]


def _measures(cfg, consts, grid):
    L_values = cfg.L_values
    if not L_values:
        raise cfg.refuse("L_values", "measures requires an L list")
    _params(cfg, consts, grid)
    dens = cfg.built("density_sigma", _density, cfg, grid)
    policy = _policy(cfg, grid)

    def solve():
        values = [("kl_shifted", L, kl_divergence_shifted(dens, L, policy=policy))
                  for L in L_values]
        values += [("fisher", 0.0, fisher_information(dens)),
                   ("shannon", 0.0, shannon_entropy(dens))]
        return [(name, L, v.value, v.quadrature_error_estimate) for name, L, v in values]
    return "measures", solve


#: the inputs function of each command, the one place commands are dispatched
_COMMANDS = {
    "evolve": _evolve,
    "spectrum": _spectrum,
    "shift-sweep": _shift_sweep,
    "eta-opt": _eta_opt,
    "exact-verify": _exact,
    "cotangent": _exact,
    "measures": _measures,
}


def run_sweep(cfg: ExperimentConfig, out_dir: str | Path, threads: int = 1) -> RunManifest:
    """Build cfg's inputs as ``parse_config`` does (ConfigValidationError,
    with no line numbers; an attribute away from its default that the
    command does not read is refused), solve on the calling thread and write
    one CSV and a manifest. ``threads`` is accepted and ignored (a thread
    pool made shift sweeps slower); it stays until ``perfbench`` stops
    passing it."""
    t0 = time.perf_counter()
    return _run(cfg, _inputs(cfg, {}), out_dir, t0)


def _run(cfg: ExperimentConfig, inputs, out_dir: str | Path, t0: float) -> RunManifest:
    """Solve cfg from the (schema, solve) that ``config._inputs`` built and
    write one CSV and a manifest, whose wall time counts from ``t0``."""
    schema, solve = inputs
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = emit_results(solve(), schema, out / f"{schema}.csv")
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
