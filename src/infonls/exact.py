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
Index arithmetic places only these nodes. The linear theory's potential
A + B cot(beta x) places its singular set analytically instead, at the
multiples of pi/beta within a radius, so it is defined on any grid; its
residual is the stationary defect of that same potential.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AllPointsExcludedError,
    DomainTooShortError,
    ParameterDomainError,
)
from .grid import (
    Grid,
    NonlinearParams,
    PhysConstants,
    Potential,
    Wavefunction,
    _density_raw,
    _floor_raw,
    _hamiltonian_raw,
    _normalized,
    _positive,
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
        _positive("kappa", self.kappa)
        self.alpha = tuple((int(h), float(a)) for h, a in self.alpha)
        if not self.alpha:
            raise ValueError("alpha descriptor must contain at least one harmonic")
        if any(h < 1 for h, _ in self.alpha):
            raise ValueError("harmonic indices must be positive integers")
        if not all(math.isfinite(a) for _, a in self.alpha):
            raise ValueError("alpha amplitudes must be finite")
        if all(a == 0.0 for _, a in self.alpha):
            raise ValueError("alpha amplitudes must not all be zero")


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
    lower bound is the gamma -> 0 (kappa -> inf) limit and diverges as
    eta -> 1."""
    return exact_energy(math.inf, params, consts), 0.0


def _check_halfline(grid: Grid, who: str = "build_exact_state") -> None:
    if grid.boundary != "dirichlet" or grid.x_min != 0.0:
        raise ValueError(f"{who} requires a half-line grid (x_min = 0, boundary = dirichlet)")


def build_exact_state(spec: ExactSolutionSpec, grid: Grid) -> Wavefunction:
    """Normalized psi = C exp(-kappa x) alpha(x) on a half-line grid."""
    _check_halfline(grid)
    x_max = grid.x_min + (grid.n_points - 1) * grid.dx
    if math.exp(-2.0 * spec.kappa * x_max) > 1e-10:
        raise DomainTooShortError(
            f"exp(-2 kappa x_max) = {math.exp(-2.0 * spec.kappa * x_max):.3e} "
            "exceeds 1e-10; extend the domain"
        )
    raw = evaluate_alpha(spec, grid)
    raw *= np.exp(-spec.kappa * grid.x)
    return _normalized(grid, raw)


def _near_zeros(values: np.ndarray, x: np.ndarray, radius: float) -> np.ndarray:
    """Points within ``radius`` of a zero of ``values``: exact zeros plus
    linearly interpolated sign-change crossings. Rounded subtraction is
    monotone, so the nearer of the two sorted neighbours decides for all;
    infinite sentinels give every point two neighbours."""
    j = np.nonzero(values[:-1] * values[1:] < 0.0)[0]
    crossings = x[j] + values[j] / (values[j] - values[j + 1]) * (x[j + 1] - x[j])
    zeros = np.sort(np.concatenate(([-np.inf, np.inf], x[values == 0.0], crossings)))
    i = np.searchsorted(zeros, x)
    return (np.abs(x - zeros[i - 1]) < radius) | (np.abs(x - zeros[i]) < radius)


def _stationary_defect(
    psi: Wavefunction, U: np.ndarray, E: float, consts: PhysConstants, excl: np.ndarray
) -> tuple[float, float]:
    """max |(-hbar^2/2m) psi'' + U psi - E psi| scaled by |E| max|psi| off
    ``excl``, and the excluded fraction. On a dirichlet grid the endpoints
    use ghost-zero stencils, defined only if the state vanishes there, so
    they join ``excl`` (in place) otherwise; periodic stencils wrap."""
    grid = psi.grid
    v = psi.values
    if grid.boundary == "dirichlet":
        excl[[0, -1]] |= v[[0, -1]] != 0.0
    if excl.all():
        raise AllPointsExcludedError("no grid points left after exclusions")
    scale = abs(E) * float(np.abs(v).max())
    defect = _hamiltonian_raw(v, U, grid, consts)
    defect -= E * v
    return float(np.abs(defect)[~excl].max()) / scale, float(excl.mean())


def nonlinear_residual(
    psi: Wavefunction,
    E: float,
    params: NonlinearParams,
    consts: PhysConstants,
    node_exclusion_radius: float,
) -> tuple[float, float]:
    """Stationary defect max |(-hbar^2/2m) psi'' + F(p) psi - E psi| scaled by
    |E| max|psi|, off node neighborhoods, off points whose shifts leave a
    dirichlet domain (the only points where the edge policy changes F) and
    off points at the density floor (the flooring replaces the true equation
    there by convention). Returns (max_residual, excluded_fraction)."""
    grid = psi.grid
    steps = params.shift_steps(grid)
    v = psi.values
    p = _density_raw(v)
    f = _field_raw(p, grid, params, consts, grid.default_policy(), steps)
    excl = _near_zeros(v.real, grid.x, node_exclusion_radius)
    if steps > 0 and grid.boundary == "dirichlet":
        excl[:steps] = True
        excl[grid.n_points - steps:] = True
    excl |= p < 100.0 * _floor_raw(p)
    return _stationary_defect(psi, f, E, consts, excl)


def degeneracy_check(
    alpha_1: AlphaDescriptor,
    alpha_2: AlphaDescriptor,
    kappa: float,
    params: NonlinearParams,
    consts: PhysConstants,
    grid: Grid,
    residual_tol: float = 1e-6,
) -> tuple[float, float, bool]:
    """Verify two alpha profiles share the eigenvalue fixed by (kappa, eta, L).

    Builds both states, runs the stationary residual on each against the same
    closed-form energy, and reports (E_1, E_2, both_pass). E_1 and E_2 are
    that one closed-form energy, so they are always equal; the evidence of the
    degeneracy is only ``both_pass``, both residuals below ``residual_tol``.
    """
    e = exact_energy(kappa, params, consts)
    passes = []
    for alpha in (alpha_1, alpha_2):
        spec = ExactSolutionSpec(kappa=kappa, params=params, alpha=alpha)
        psi = build_exact_state(spec, grid)
        res, _ = nonlinear_residual(psi, e, params, consts, 3.0 * grid.dx)
        passes.append(res < residual_tol)
    return e, e, bool(passes[0] and passes[1])


@dataclass(frozen=True)
class CotangentPotentialParams:
    """Linear theory reproducing the single-harmonic exact state:
    V = A + B cot(beta x) with singularities exactly at the state's nodes."""

    A: float
    B: float
    beta: float

    def __post_init__(self):
        _positive("beta", self.beta)


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
    cot: CotangentPotentialParams, grid: Grid, singular_radius: float
) -> Potential:
    """Sampled A + B cot(beta x) with the singular set masked.

    The singular points, the multiples of pi/beta, are placed analytically:
    a grid point is masked when it lies within ``singular_radius`` of the
    nearest one, round(x/(pi/beta))*(pi/beta), so the mask exists on any
    grid. On a commensurate half-line grid a radius below dx/2 masks exactly
    the nodes of the single-harmonic exact state. A radius that leaves a
    singular grid point unmasked (0 or NaN where x = 0 is on the grid)
    raises ParameterDomainError.
    """
    x = grid.x
    half_period = math.pi / cot.beta
    # |x - round(x/(pi/beta))*(pi/beta)|, then beta x, in one buffer
    t = x / half_period
    np.round(t, out=t)
    t *= half_period
    np.subtract(x, t, out=t)
    mask = np.abs(t, out=t) < singular_radius
    bx = np.multiply(x, cot.beta, out=t)
    # A + B cos/sin at every point, in place, then 0 on the mask
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = np.cos(bx)
        vals *= cot.B
        vals /= np.sin(bx, out=bx)
        vals += cot.A
    vals[mask] = 0.0
    bad = ~np.isfinite(vals)
    if bad.any():
        raise ParameterDomainError(
            f"singular_radius {float(singular_radius)!r} leaves the singular "
            f"point x = {float(x[bad.nonzero()[0][0]])!r} unmasked"
        )
    return Potential(grid, vals, singular_mask=mask)


def linear_residual_cotangent(
    psi: Wavefunction,
    E: float,
    cot: CotangentPotentialParams,
    consts: PhysConstants,
    exclusion_radius: float,
) -> float:
    """Stationary defect of psi under ``cotangent_potential``:
    max |(-hbar^2/2m) psi'' + (A + B cot(beta x)) psi - E psi| scaled by
    |E| max|psi|, off the singular set masked within ``exclusion_radius``."""
    V = cotangent_potential(cot, psi.grid, exclusion_radius)
    # the potential's mask is read-only; the defect adds endpoints in place
    return _stationary_defect(psi, V.values, E, consts, V.singular_mask.copy())[0]
