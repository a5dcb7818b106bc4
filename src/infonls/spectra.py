"""Linear eigensolver, first-order shifts of the nonlinearity, eta-minimization.

The perturbative shift of a state is the expectation of the nonlinear term in
the unperturbed density, delta_E = integral p F(p) dx. Two closed-form eta
profiles summarize the small-L behaviour: a universal square-root profile for
states with nodes, and the quartic polynomial profile of the Gaussian ground
state. Both are negative at their minimizers near eta ~ 0.79-0.80.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import make_interp_spline
from scipy.linalg import eigh_tridiagonal

from .errors import (
    ConvergenceFailureError,
    NodeDetectedError,
    NonFiniteObjectiveError,
    ParameterDomainError,
)
from .grid import (
    Density,
    Grid,
    NonlinearParams,
    PhysConstants,
    Potential,
    Wavefunction,
    _density_raw,
    _floor_raw,
    _norm_squared_raw,
    _normalized,
    _positive,
    _readonly,
    integrate,
)
from .nonlinearity import _kl_energy_raw

#: Calibration of the nodeless-shift integral, frozen by matching the
#: Gaussian ground state of the harmonic well to its closed-form profile
#: under a = sqrt(hbar / m omega) and energies in units of hbar omega.
NODELESS_CALIBRATION = 1.0 / 96.0


@dataclass(frozen=True)
class EigenSolution:
    energies: np.ndarray
    states: tuple[Wavefunction, ...]

    def __post_init__(self):
        if not np.all(np.diff(self.energies) >= 0):
            raise ValueError("energies must be ascending")


@dataclass(frozen=True)
class ShiftResult:
    eta: float
    L: float
    delta_E: float
    #: Grid points whose density is below the floor, where the bracket sees
    #: the floor in place of p; next to a node they make the shift at eta = 1
    #: depend on the floor.
    floor_points: int = 0

    def __post_init__(self):
        if not math.isfinite(self.delta_E):
            raise ValueError("delta_E must be finite")


def _check_eigensolver(grid: Grid, n_states: int, who: str = "eigensolver") -> None:
    """The tridiagonal solves the Dirichlet box, for under a quarter of its levels."""
    if grid.boundary != "dirichlet":
        raise ValueError(f"{who} requires boundary = dirichlet, not {grid.boundary!r}")
    if not 1 <= n_states < grid.n_points / 4:
        raise ValueError("n_states must be at least 1 and below n_points / 4")


def solve_linear_spectrum(
    V: Potential,
    grid: Grid,
    consts: PhysConstants,
    n_states: int,
) -> EigenSolution:
    """Lowest eigenpairs of the tridiagonal Dirichlet Hamiltonian.

    Walls sit one grid step outside the first and last points, so a hard box
    spans (n_points + 1) * dx. A periodic grid, which the tridiagonal cannot
    wrap, or a potential on another grid raises ValueError.
    """
    _check_eigensolver(grid, n_states)
    if V.grid != grid:
        raise ValueError("potential must be sampled on the eigensolver's grid")
    if V.singular_mask.any():
        raise ValueError("eigensolver requires a potential with no singular points")
    t = consts.hbar**2 / (2.0 * consts.mass * grid.dx**2)
    diag = 2.0 * t + V.values
    off = np.full(grid.n_points - 1, -t)
    try:
        energies, vecs = eigh_tridiagonal(
            diag, off, select="i", select_range=(0, n_states - 1)
        )
    except np.linalg.LinAlgError as exc:  # LAPACK non-convergence
        raise ConvergenceFailureError(f"tridiagonal eigensolve failed: {exc}") from exc
    # each column is scaled in place in vecs, which nothing else holds
    states = tuple(_normalized(grid, vecs[:, j]) for j in range(n_states))
    return EigenSolution(energies, states)


def _derived(state: Wavefunction, key: str, build):
    """build(state), computed on the first use and kept on the state."""
    cache = state._derived
    try:
        return cache[key]
    except KeyError:
        return cache.setdefault(key, build(state))


def _quintic_spline(psi: Wavefunction):
    return make_interp_spline(psi.grid.x, psi.values.real, k=5)


def resample_state(psi: Wavefunction, fine: Grid) -> Wavefunction:
    """Spline-resample a (real) eigenstate onto a finer grid and renormalize.

    Eigenvectors of the tridiagonal solve carry inverse-iteration noise of
    order eps_machine / dx^2, which nonlinear functionals amplify; solving on
    a coarse grid and resampling with a quintic spline hands downstream code
    a smooth density at the fine commensurate spacing. The spline is fitted
    once per coarse state and reused for every fine grid.
    """
    spl = _derived(psi, "quintic_spline", _quintic_spline)
    return _normalized(fine, spl(fine.x))


def characteristic_length(state: Wavefunction) -> float:
    """sqrt(2 <x^2>) of the probability density (ZeroNormError as in ``normalize``);
    equals sqrt(hbar/m omega) for the harmonic ground state centered at the origin."""
    grid = state.grid
    p = _density_raw(state.values)
    x = grid.x
    norm = _norm_squared_raw(p, grid)
    xc = integrate(x * p, grid) / norm
    return math.sqrt(2.0 * (integrate((x - xc) ** 2 * p, grid) / norm))


def _shift_state_part(state: Wavefunction) -> tuple[np.ndarray, float, float, int]:
    """The eta- and L-independent part of delta_E: the read-only density, its
    floor, sum (D sqrt p)^2 over every first difference, boundary ones
    included (periodic: the wrap; dirichlet: the zero ghosts), and the number
    of points below the floor."""
    p = _density_raw(state.values)
    s = np.sqrt(p)
    d = np.diff(s)
    if state.grid.boundary == "periodic":
        edge = float((s[0] - s[-1]) ** 2)
    else:
        edge = float(s[0] ** 2 + s[-1] ** 2)
    eps = _floor_raw(p)
    n_low = int(np.count_nonzero(p < eps))
    return _readonly(p), eps, float(np.sum(d * d)) + edge, n_low


def first_order_shift_numeric(
    state: Wavefunction,
    params: NonlinearParams,
    consts: PhysConstants,
    policy: str | None = None,
) -> ShiftResult:
    """delta_E = integral p F(p) dx with the unperturbed density, which is
    ``integrate(p * F)`` to rounding on both boundaries.

    The bracket part, (cal_E/eta^4) dx sum p bracket, comes from
    ``nonlinearity._kl_energy_raw``, which sums p times the bracket of the
    densities clamped at the floor without evaluating the bracket: one
    log1p pass over the grid plus terms at the first and last eta*L/dx
    points and at the points below the floor, which ``floor_points`` counts.
    Nodes are not excised. The quantum-potential part is accumulated in
    first-difference form, - (hbar^2/2m) sum (D sqrt p)^2 dx, which is robust
    to rough state noise; by summation by parts it equals sum p Q dx.

    The density, its floor, the difference sum and the number of sub-floor
    points depend on the state alone, so they are computed on the first call
    for a state and reused by later calls at any (eta, L, policy).
    """
    grid = state.grid
    steps = params.shift_steps(grid)
    pol = policy or grid.default_policy()
    p, eps, dsq, n_low = _derived(state, "shift_state_part", _shift_state_part)
    low = np.flatnonzero(p < eps) if n_low else np.empty(0, np.intp)
    kl = _kl_energy_raw(p, steps, params.eta, pol, eps, low)
    kl_part = kl * (params.cal_E / params.eta**4) * grid.dx
    qp_part = -(consts.hbar**2 / (2.0 * consts.mass)) * dsq / grid.dx
    return ShiftResult(eta=params.eta, L=params.L, delta_E=kl_part + qp_part,
                       floor_points=n_low)


def node_shift_eta_profile(eta: float) -> float:
    """Universal eta profile of the leading shift for states with nodes:
    sqrt(eta (1 - eta)) (1 - 4 eta). Zeros at 0, 1/4, 1; global minimum at
    (7 + sqrt(33))/16."""
    if not 0.0 <= eta <= 1.0:
        raise ParameterDomainError(f"eta = {eta} outside [0, 1]")
    return math.sqrt(eta * (1.0 - eta)) * (1.0 - 4.0 * eta)


def sho_ground_shift_closed(eta: float, L_over_a: float) -> float:
    """Closed-form dimensionless shift of the harmonic ground state:
    eta^2 (1 - eta)(1 - 3 eta)/4 * (L/a)^2, in units of hbar omega. Zeros at
    0, 1/3, 1; global minimum at (3 + sqrt(3))/6."""
    _positive("L_over_a", L_over_a)
    if not 0.0 <= eta <= 1.0:
        raise ParameterDomainError(f"eta = {eta} outside [0, 1]")
    return eta**2 * (1.0 - eta) * (1.0 - 3.0 * eta) / 4.0 * L_over_a**2


def nodeless_shift_integral(
    p: Density, eta: float, L: float, consts: PhysConstants
) -> float:
    """Shift of a strictly positive (nodeless) density from its derivative
    expansion, calibrated against the Gaussian closed form.

    Uses central stencils up to the fourth derivative; the quadrature
    (``integrate``, dx * sum) runs over the interior where the full
    five-point stencil fits.
    """
    if not 0.0 <= eta <= 1.0:
        raise ParameterDomainError(f"eta = {eta} outside [0, 1]")
    v = p.values
    if v.min() < 1e-6 * v.max():
        raise NodeDetectedError(
            "density dips below 1e-6 of its maximum; profile is not nodeless "
            "on this window"
        )
    dx = p.grid.dx
    d1 = (v[3:-1] - v[1:-3]) / (2 * dx)
    d2 = (v[3:-1] - 2 * v[2:-2] + v[1:-3]) / dx**2
    d3 = (v[4:] - 2 * v[3:-1] + 2 * v[1:-3] - v[:-4]) / (2 * dx**3)
    d4 = (v[4:] - 4 * v[3:-1] + 6 * v[2:-2] - 4 * v[1:-3] + v[:-4]) / dx**4
    pc = v[2:-2]
    integrand = (
        6.0 * (2.0 - 3.0 * eta) ** 2 * d1**4
        - 12.0 * (3.0 - 8.0 * eta + 6.0 * eta**2) * pc * d1**2 * d2
        + 4.0 * pc**2 * d1 * d3
        + pc**2 * (3.0 * d2**2 - 2.0 * pc * d4)
    ) / pc**3
    raw = integrate(integrand, p.grid)
    return (
        NODELESS_CALIBRATION
        * consts.hbar**2
        / consts.mass
        * L**2
        * eta**2
        * raw
    )


def minimize_over_eta(shift_fn) -> tuple[float, float]:
    """Golden-section minimum of a continuous profile on [1e-4, 1 - 1e-4].

    A coarse 64-point pre-scan brackets the global basin first (the
    closed-form profiles are not unimodal over the whole interval), then
    golden-section contraction localizes the minimizer to 1e-10. Every
    value of the objective, the returned one included, must be finite, or
    NonFiniteObjectiveError is raised.
    """

    def f(eta: float) -> float:
        value = float(shift_fn(eta))
        if not math.isfinite(value):
            raise NonFiniteObjectiveError(
                f"objective returned {value} at eta = {eta!r}")
        return value

    xs = np.linspace(1e-4, 1.0 - 1e-4, 64)
    fs = np.array([f(x) for x in xs])
    j = int(np.argmin(fs))
    a = xs[max(j - 1, 0)]
    b = xs[min(j + 1, xs.size - 1)]
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > 1e-10:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = f(x2)
    eta_star = float(0.5 * (a + b))
    return eta_star, f(eta_star)
