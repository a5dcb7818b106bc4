"""Real-time propagation with external potential and the nonlinear term.

Explicit RK4 on the full right side; the nonlinearity is recomputed at every
substage from the substage density. The step limit dt_max = 0.5 m dx^2 / hbar
is the usual explicit-scheme bound for the free operator; RK4's imaginary-axis
stability then covers the kinetic spectrum with margin.

The external potential is a ``grid.Potential``. Points in its singular mask
are held fixed: their right side is zeroed every substage. This is the
interior-Dirichlet treatment a singular potential (or a density node, where
the discrete quantum potential is singular) requires; initial states should
vanish there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteEvolutionError, UnstableStepError
from .grid import (
    Grid,
    NonlinearParams,
    PhysConstants,
    Potential,
    Wavefunction,
    _density_raw,
    _laplacian_raw,
)
from .nonlinearity import _field_raw


def zero_potential(grid: Grid) -> Potential:
    return Potential(grid, np.zeros(grid.n_points))


def harmonic_potential(
    grid: Grid, consts: PhysConstants, omega: float = 1.0
) -> Potential:
    x = grid.x
    return Potential(grid, 0.5 * consts.mass * omega**2 * x * x)


def quartic_potential(grid: Grid, coeff: float = 1.0) -> Potential:
    return Potential(grid, coeff * grid.x**4)


@dataclass(frozen=True)
class EvolutionReport:
    times: np.ndarray
    norm_drift: np.ndarray
    energy_trace: np.ndarray
    final_state: Wavefunction

    def __post_init__(self):
        if not (len(self.times) == len(self.norm_drift) == len(self.energy_trace)):
            raise ValueError("report arrays must have equal length")


def dt_max(grid: Grid, consts: PhysConstants) -> float:
    """Largest stable step for the explicit scheme."""
    return 0.5 * consts.mass * grid.dx**2 / consts.hbar


def _make_rhs(
    grid: Grid,
    V: Potential,
    params: NonlinearParams | None,
    consts: PhysConstants,
    policy: str | None,
):
    """Right-side closure on raw complex arrays (masked points are pinned),
    under ``policy`` or else the grid's default."""
    policy = policy or grid.default_policy()
    mask = V.singular_mask
    pinned = np.flatnonzero(mask)
    v_ext = np.where(mask, 0.0, V.values)
    kin = -consts.hbar**2 / (2.0 * consts.mass)
    minus_i_over_hbar = -1j / consts.hbar
    steps = params.shift_steps(grid) if params is not None else 0
    dx, boundary = grid.dx, grid.boundary
    wv = dx * v_ext

    def rhs(psi: np.ndarray, diagnose: bool = False):
        """The right side at psi; with ``diagnose``, also psi's squared norm
        and energy, read from the same Laplacian, density and field."""
        kin_psi = _laplacian_raw(psi, dx, boundary)
        np.multiply(kin, kin_psi, out=kin_psi)
        h_psi = v_ext * psi
        h_psi += kin_psi
        if params is not None or diagnose:
            p = _density_raw(psi)
        if params is not None:
            f = _field_raw(p, grid, params, consts, policy, steps)
            h_psi += f * psi
        out = np.multiply(minus_i_over_hbar, h_psi, out=h_psi)
        out[pinned] = 0.0
        if not diagnose:
            return out
        wp = dx * p
        e = np.sum(dx * (np.conj(psi) * kin_psi).real) + np.sum(wv * p)
        if params is not None:
            e += np.sum(wp * f)
        return out, float(np.sum(wp)), float(e)

    return rhs


def rhs_apply(
    psi: Wavefunction,
    V: Potential,
    params: NonlinearParams | None,
    consts: PhysConstants,
    policy: str | None = None,
) -> Wavefunction:
    """(1/i hbar) [ -(hbar^2/2m) psi'' + V psi + F(p) psi ]."""
    rhs = _make_rhs(psi.grid, V, params, consts, policy)
    return Wavefunction(psi.grid, rhs(psi.values))


def _rk4_raw(psi: np.ndarray, rhs, dt: float, k1: np.ndarray) -> np.ndarray:
    """One step from psi, given its first stage k1 = rhs(psi). The stage
    arguments and the combination are built in place, in the order of
    psi + (dt/6) (k1 + 2 k2 + 2 k3 + k4)."""

    def stage(h: float, k: np.ndarray) -> np.ndarray:
        arg = np.multiply(h, k)
        arg += psi
        return rhs(arg)

    k2 = stage(0.5 * dt, k1)
    k3 = stage(0.5 * dt, k2)
    k4 = stage(dt, k3)
    k2 *= 2.0
    k2 += k1
    k3 *= 2.0
    k2 += k3
    k2 += k4
    k2 *= dt / 6.0
    k2 += psi
    return k2


def _check_dt(dt: float, grid: Grid, consts: PhysConstants) -> None:
    limit = dt_max(grid, consts)
    if abs(dt) > limit * (1.0 + 1e-12):
        raise UnstableStepError(f"|dt| = {abs(dt)} exceeds dt_max = {limit}")


def rk4_step(
    psi: Wavefunction,
    V: Potential,
    params: NonlinearParams | None,
    consts: PhysConstants,
    dt: float,
    policy: str | None = None,
) -> Wavefunction:
    """One classical fourth-order step of the full equation."""
    _check_dt(dt, psi.grid, consts)
    rhs = _make_rhs(psi.grid, V, params, consts, policy)
    v = psi.values
    return Wavefunction(psi.grid, _rk4_raw(v, rhs, dt, rhs(v)))


def evolve(
    psi0: Wavefunction,
    V: Potential,
    params: NonlinearParams | None,
    consts: PhysConstants,
    dt: float,
    n_steps: int,
    policy: str | None = None,
) -> EvolutionReport:
    """Propagate n_steps and record norm drift and an energy diagnostic.

    The norm is sum dx |psi|^2, which the semi-discrete flow conserves on
    both boundaries (pinned points hold psi = 0), so only RK4 drifts. The
    energy trace is <psi|H_lin|psi> + integral p F; it is reported as a
    diagnostic, with no exact-invariance claim attached. Each entry is read
    from the first RK4 stage at that state, which the next step needs anyway.
    Aborts with NonFiniteEvolutionError (carrying the partial report) if
    amplitudes stop being finite.
    """
    _check_dt(dt, psi0.grid, consts)
    grid = psi0.grid
    rhs = _make_rhs(grid, V, params, consts, policy)
    psi = psi0.values
    # divergence is detected and reported below; keep numpy quiet about it
    with np.errstate(over="ignore", invalid="ignore"):
        k1, norm0, e0 = rhs(psi, diagnose=True)
        times, drift, etrace = [0.0], [0.0], [e0]
        for k in range(1, n_steps + 1):
            psi = _rk4_raw(psi, rhs, dt, k1)
            if not np.isfinite(psi.view(np.float64)).all():
                partial = EvolutionReport(
                    np.array(times),
                    np.array(drift),
                    np.array(etrace),
                    Wavefunction(grid, np.where(np.isfinite(psi), psi, 0.0)),
                )
                raise NonFiniteEvolutionError(
                    f"non-finite amplitudes after step {k}", report=partial
                )
            k1, norm, e = rhs(psi, diagnose=True)
            times.append(k * dt)
            drift.append(abs(norm - norm0))
            etrace.append(e)
    return EvolutionReport(
        np.array(times), np.array(drift), np.array(etrace), Wavefunction(grid, psi)
    )
