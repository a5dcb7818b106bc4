"""Exact half-line solutions, their energy, degeneracy, and the linear
cotangent-potential cross-check.

The solution family is psi = C exp(-kappa x) alpha(x) on x > 0 with alpha any
real periodic function of period eta*L vanishing at 0. Its density scales by
gamma = exp(-2 kappa eta L) under a shift of one period, which turns the
regulated bracket into a constant: the energy depends only on (kappa, eta, L),
not on alpha. On a commensurate grid the construction is discretely exact:
the central-difference kinetic term cancels the discrete quantum potential
point by point (off nodes), so residuals sit at rounding level.

Node placement matters: alpha is evaluated through integer index arithmetic
so that grid points hitting zeros of the built-in sine harmonics carry exact
zeros, which both the residual checks and pinned-node evolution rely on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import Potential
from .errors import (
    AllPointsExcludedError,
    DomainTooShortError,
    ParameterDomainError,
)
from .grid import (
    FLOOR_REL,
    Grid,
    NonlinearParams,
    PhysConstants,
    Wavefunction,
    _laplacian_raw,
    normalize,
)
from .nonlinearity import _field_raw

#: alpha descriptors are tuples of (harmonic index, amplitude) pairs in a
#: sine series over the period eta*L; sines guarantee alpha(0) = 0.
AlphaDescriptor = tuple[tuple[int, float], ...]

DEFAULT_ALPHA: AlphaDescriptor = ((1, 1.0),)


@dataclass
class ExactSolutionSpec:
    kappa: float
    params: NonlinearParams
    alpha: AlphaDescriptor = DEFAULT_ALPHA

    def __post_init__(self):
        if self.kappa <= 0:
            raise ValueError("kappa must be positive")
        self.alpha = tuple((int(h), float(a)) for h, a in self.alpha)
        if not self.alpha:
            raise ValueError("alpha descriptor must contain at least one harmonic")
        for h, _ in self.alpha:
            if h < 1:
                raise ValueError("harmonic indices must be positive integers")


def _sine_exact(harmonic: int, k_mod: np.ndarray, steps: int) -> np.ndarray:
    """sin(2 pi harmonic k/steps) with exact zeros where the angle is a
    multiple of pi (integer arithmetic decides, not float rounding)."""
    vals = np.sin(2.0 * np.pi * harmonic * k_mod / steps)
    vals[(2 * harmonic * k_mod) % steps == 0] = 0.0
    return vals


def evaluate_alpha(spec: ExactSolutionSpec, grid: Grid) -> np.ndarray:
    """alpha sampled on the grid; requires a commensurate half-line grid."""
    steps = spec.params.shift_steps(grid)
    k_mod = np.arange(grid.n_points) % steps
    out = np.zeros(grid.n_points)
    for h, a in spec.alpha:
        out += a * _sine_exact(h, k_mod, steps)
    return out


def alpha_node_indices(spec: ExactSolutionSpec, grid: Grid) -> np.ndarray:
    """Grid indices of exact zeros of the sampled alpha."""
    return np.where(evaluate_alpha(spec, grid) == 0.0)[0]


def exact_energy(kappa: float, params: NonlinearParams, consts: PhysConstants) -> float:
    """Closed-form eigenvalue of the damped-periodic family.

    E = (cal_E / eta^4) [1 - ln(1 + eta(gamma - 1)) - 1/(1 + eta(gamma - 1))]
    with gamma = exp(-2 kappa eta L). Monotone decreasing in kappa, from 0
    down to the lower bound.
    """
    if not 0.0 < params.eta < 1.0:
        raise ParameterDomainError("exact solutions require 0 < eta < 1")
    if kappa < 0:
        raise ParameterDomainError("kappa must be non-negative")
    gamma = math.exp(-2.0 * kappa * params.eta * params.L)
    d = 1.0 + params.eta * (gamma - 1.0)
    return params.cal_E / params.eta**4 * (1.0 - math.log(d) - 1.0 / d)


def exact_energy_bounds(
    params: NonlinearParams, consts: PhysConstants
) -> tuple[float, float]:
    """(lower, upper) energy bounds over kappa in (0, inf): upper is 0, the
    lower bound is the gamma -> 0 limit and diverges as eta -> 1."""
    if not 0.0 < params.eta < 1.0:
        raise ParameterDomainError("energy bounds require 0 < eta < 1")
    d = 1.0 - params.eta
    lower = params.cal_E / params.eta**4 * (1.0 - math.log(d) - 1.0 / d)
    return lower, 0.0


def build_exact_state(spec: ExactSolutionSpec, grid: Grid) -> Wavefunction:
    """Normalized psi = C exp(-kappa x) alpha(x) on a half-line grid."""
    if grid.boundary != "dirichlet" or grid.x_min != 0.0:
        raise ValueError("exact states live on a half-line grid (x_min = 0, dirichlet)")
    x_max = grid.x_min + (grid.n_points - 1) * grid.dx
    if math.exp(-2.0 * spec.kappa * x_max) > 1e-10:
        raise DomainTooShortError(
            f"exp(-2 kappa x_max) = {math.exp(-2.0 * spec.kappa * x_max):.3e} "
            "exceeds 1e-10; extend the domain"
        )
    alpha = evaluate_alpha(spec, grid)
    raw = np.exp(-spec.kappa * grid.x) * alpha
    return normalize(Wavefunction(grid, raw))


def _zero_positions(values: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Positions of zeros: exact zeros plus sign-change crossings."""
    zs = list(x[values == 0.0])
    v = values
    sign_change = (v[:-1] * v[1:]) < 0.0
    for j in np.where(sign_change)[0]:
        frac = v[j] / (v[j] - v[j + 1])
        zs.append(x[j] + frac * (x[j + 1] - x[j]))
    return np.array(sorted(zs))


def _exclusion_mask(
    psi_vals: np.ndarray, grid: Grid, radius: float, shift_steps: int
) -> np.ndarray:
    """Points where the stationary equation is not faithfully represented:
    near zeros of the profile, where shifts leave the domain, and where the
    density sits at its regularization floor (the flooring replaces the true
    equation there by convention)."""
    x = grid.x
    excl = np.zeros(grid.n_points, dtype=bool)
    zeros = _zero_positions(psi_vals.real, x)
    for z in zeros:
        excl |= np.abs(x - z) < radius
    if shift_steps > 0:
        excl[:shift_steps] = True
        excl[grid.n_points - shift_steps:] = True
    p = psi_vals.real**2 + psi_vals.imag**2
    excl |= p < 100.0 * FLOOR_REL * p.max()
    # endpoints use ghost-zero stencils, defined only if the state vanishes
    excl[0] = excl[0] or psi_vals[0] != 0.0
    excl[-1] = excl[-1] or psi_vals[-1] != 0.0
    return excl


def nonlinear_residual(
    psi: Wavefunction,
    E: float,
    params: NonlinearParams,
    consts: PhysConstants,
    node_exclusion_radius: float,
    policy: str = "floor",
) -> tuple[float, float]:
    """Stationary defect max |(-hbar^2/2m) psi'' + F(p) psi - E psi| scaled by
    |E| max|psi|, off node neighborhoods and off points whose shifts leave
    the domain. Returns (max_residual, excluded_fraction)."""
    grid = psi.grid
    steps = params.shift_steps(grid)
    v = psi.values
    p = v.real**2 + v.imag**2
    f = _field_raw(p, grid, params, consts, policy, steps)
    lap = _laplacian_raw(v, grid.dx, grid.boundary)
    defect = -(consts.hbar**2 / (2.0 * consts.mass)) * lap + f * v - E * v
    excl = _exclusion_mask(v, grid, node_exclusion_radius, steps)
    if excl.all():
        raise AllPointsExcludedError("no grid points left after exclusions")
    scale = abs(E) * float(np.abs(v).max())
    max_res = float(np.abs(defect[~excl]).max()) / scale
    return max_res, float(excl.mean())


def default_halfline_grid(kappa: float, params: NonlinearParams) -> Grid:
    """Commensurate half-line grid long enough for a kappa-damped state, with
    64 steps per shift."""
    steps_per_shift = 64
    dx = params.eta * params.L / steps_per_shift
    period = params.eta * params.L
    x_needed = math.log(1e10) / (2.0 * kappa)
    n_half_periods = math.ceil(x_needed / (period / 2.0))
    n = n_half_periods * (steps_per_shift // 2) + 1
    return Grid(x_min=0.0, dx=dx, n_points=max(n, 8), boundary="dirichlet")


def degeneracy_check(
    alpha_1: AlphaDescriptor,
    alpha_2: AlphaDescriptor,
    kappa: float,
    params: NonlinearParams,
    consts: PhysConstants,
    grid: Grid | None = None,
    residual_tol: float = 1e-6,
) -> tuple[float, float, bool]:
    """Verify two alpha profiles share the eigenvalue fixed by (kappa, eta, L).

    Builds both states, runs the stationary residual on each against the same
    closed-form energy, and reports (E_1, E_2, both_pass).
    """
    if grid is None:
        grid = default_halfline_grid(kappa, params)
    e_values = []
    passes = []
    for alpha in (alpha_1, alpha_2):
        spec = ExactSolutionSpec(kappa=kappa, params=params, alpha=alpha)
        psi = build_exact_state(spec, grid)
        e = exact_energy(kappa, params, consts)
        res, _ = nonlinear_residual(psi, e, params, consts, 3.0 * grid.dx)
        e_values.append(e)
        passes.append(res < residual_tol)
    return e_values[0], e_values[1], bool(passes[0] and passes[1])


@dataclass(frozen=True)
class CotangentPotentialParams:
    """Linear theory reproducing the single-harmonic exact state:
    V = A + B cot(beta x) with singularities exactly at the state's nodes."""

    A: float
    B: float
    beta: float

    def __post_init__(self):
        if self.beta <= 0:
            raise ValueError("beta must be positive")


def cotangent_params(
    kappa: float, params: NonlinearParams, consts: PhysConstants
) -> CotangentPotentialParams:
    """Parameters of the equivalent linear potential for alpha = single sine.

    From psi''/psi = kappa^2 - beta^2 - 2 kappa beta cot(beta x):
    A = E + (hbar^2/2m)(kappa^2 - beta^2), B = -hbar^2 kappa beta / m.
    """
    e = exact_energy(kappa, params, consts)
    beta = 2.0 * math.pi / (params.eta * params.L)
    a = e + consts.hbar**2 / (2.0 * consts.mass) * (kappa**2 - beta**2)
    b = -consts.hbar**2 * kappa * beta / consts.mass
    return CotangentPotentialParams(A=a, B=b, beta=beta)


def cotangent_potential(
    cot: CotangentPotentialParams, grid: Grid, params: NonlinearParams
) -> Potential:
    """Sampled A + B cot(beta x) with the singular set masked.

    cot is evaluated as cos/sin through the same index arithmetic as alpha,
    so the singular set coincides with the node set exactly.
    """
    if grid.x_min != 0.0:
        raise ValueError("cotangent potential uses half-line index arithmetic (x_min = 0)")
    steps = params.shift_steps(grid)
    k_mod = np.arange(grid.n_points) % steps
    sin_v = _sine_exact(1, k_mod, steps)
    cos_v = np.cos(2.0 * np.pi * k_mod / steps)
    mask = sin_v == 0.0
    vals = np.zeros(grid.n_points)
    vals[~mask] = cot.A + cot.B * cos_v[~mask] / sin_v[~mask]
    return Potential(grid, vals, singular_mask=mask)


def linear_residual_cotangent(
    psi: Wavefunction,
    E: float,
    cot: CotangentPotentialParams,
    consts: PhysConstants,
    exclusion_radius: float,
) -> float:
    """max |(-hbar^2/2m) psi'' + (A + B cot(beta x)) psi - E psi| scaled by
    |E| max|psi|, off singularity neighborhoods."""
    grid = psi.grid
    v = psi.values
    x = grid.x
    bx = cot.beta * x
    sin_v = np.sin(bx)
    # singularities: beta x at multiples of pi; locate via the period
    half_period = math.pi / cot.beta
    nearest = np.round(x / half_period) * half_period
    near_sing = np.abs(x - nearest) < exclusion_radius
    excl = near_sing.copy()
    excl[0] = excl[0] or v[0] != 0.0
    excl[-1] = excl[-1] or v[-1] != 0.0
    if excl.all():
        raise AllPointsExcludedError("no grid points left after exclusions")
    vals = np.zeros(grid.n_points)
    ok = ~near_sing
    vals[ok] = cot.A + cot.B * np.cos(bx[ok]) / sin_v[ok]
    lap = _laplacian_raw(v, grid.dx, grid.boundary)
    defect = -(consts.hbar**2 / (2.0 * consts.mass)) * lap + vals * v - E * v
    scale = abs(E) * float(np.abs(v).max())
    return float(np.abs(defect[~excl]).max()) / scale
