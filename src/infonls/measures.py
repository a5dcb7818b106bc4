"""Information functionals: shifted relative entropy, Fisher, Shannon.

The shifted relative-entropy functional at scale L,

    I_KL[p] = integral p(x) ln[ p(x) / p(x+L) ] dx,

is the bridge object of the theory: its functional derivative is exactly the
logarithmic bracket of the nonlinearity, its L -> 0 limit is L^2/2 times the
Fisher information, and its formal large-L limit connects to the Shannon
entropy. A numeric functional-derivative oracle ties the three together.

p and p(x+L) are views of the one padded array of ``grid._padded_raw``, which
the bracket of F also reads; it is floored and logged once, in place. Every
quadrature error estimate scales the grid's one stencil by 1/dx^2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .grid import Density, Grid, _padded_raw, _second_difference_raw, integrate


@dataclass(frozen=True)
class FunctionalValue:
    value: float
    quadrature_error_estimate: float

    def __post_init__(self):
        if not (np.isfinite(self.value) and np.isfinite(self.quadrature_error_estimate)):
            raise ValueError("functional value and error estimate must be finite")


def _quad_error_estimate(integrand: np.ndarray, grid: Grid) -> float:
    # crude bound of the one quadrature rule, the trapezoid: (dx^2 / 12) * integral |f''|
    d2 = _second_difference_raw(integrand, grid.boundary, 1.0 / (grid.dx * grid.dx))
    return float(grid.dx**2 / 12.0 * integrate(np.abs(d2), grid))


def _kl_integrand(p: Density, L: float, policy: str | None) -> np.ndarray:
    """p ln(p / p(x+L)) pointwise, both log arguments floored: the padded
    array of ``grid._padded_raw`` is floored and logged once, in place, and
    p and its shift are views of it."""
    steps = p.grid.steps_for(L)
    eps = p.floor()
    padded, centre, plus, _ = _padded_raw(p.values, steps, policy or p.grid.default_policy(), eps)
    np.log(np.maximum(padded, eps, out=padded), out=padded)
    integrand = np.subtract(centre, plus)
    integrand *= p.values
    return integrand


def kl_divergence_shifted(p: Density, L: float, policy: str | None = None) -> FunctionalValue:
    """integral p ln(p / p(x+L)) dx with floored log arguments.

    L must be an integer number of grid steps.
    """
    integrand = _kl_integrand(p, L, policy)
    return FunctionalValue(integrate(integrand, p.grid), _quad_error_estimate(integrand, p.grid))


def fisher_information(p: Density) -> FunctionalValue:
    """integral (p')^2 / p dx, central-difference derivative, floored denominator."""
    v = p.values
    eps = p.floor()
    d1 = np.empty_like(v)
    d1[1:-1] = (v[2:] - v[:-2]) / (2.0 * p.grid.dx)
    if p.grid.boundary == "periodic":
        d1[0] = (v[1] - v[-1]) / (2.0 * p.grid.dx)
        d1[-1] = (v[0] - v[-2]) / (2.0 * p.grid.dx)
    else:
        d1[0] = (v[1] - 0.0) / (2.0 * p.grid.dx)
        d1[-1] = (0.0 - v[-2]) / (2.0 * p.grid.dx)
    integrand = d1 * d1 / np.maximum(v, eps)
    return FunctionalValue(integrate(integrand, p.grid), _quad_error_estimate(integrand, p.grid))


def shannon_entropy(p: Density) -> FunctionalValue:
    """-integral p ln p dx with floored log argument."""
    eps = p.floor()
    integrand = -p.values * np.log(np.maximum(p.values, eps))
    return FunctionalValue(integrate(integrand, p.grid), _quad_error_estimate(integrand, p.grid))


def kl_shifted_functional(L: float, policy: str | None = None) -> Callable[[Density], float]:
    """The shifted relative entropy at fixed L as a plain functional: the
    value of ``kl_divergence_shifted`` without its quadrature error estimate."""

    def value(p: Density) -> float:
        v = integrate(_kl_integrand(p, L, policy), p.grid)
        if not np.isfinite(v):
            raise ValueError("functional value must be finite")
        return v

    return value


def functional_derivative(
    functional: Callable[[Density], float],
    p: Density,
) -> np.ndarray:
    """Central-difference functional derivative, one value per grid point.

    dF/dp(x_k) ~ [F(p + e_k) - F(p - e_k)] / (2 eps_k dx). The bump is
    relative, eps_k = 1e-6 * p_k (floored), which balances truncation
    against rounding.
    """
    v = p.values
    bumps = 1e-6 * np.maximum(v, p.floor())
    out = np.empty(v.size)
    work = v.copy()
    for k in range(v.size):
        e = bumps[k]
        orig = work[k]
        work[k] = orig + e
        f_plus = functional(Density(p.grid, work))
        work[k] = max(orig - e, 0.0)
        f_minus = functional(Density(p.grid, work))
        work[k] = orig
        out[k] = (f_plus - f_minus) / (2.0 * e * p.grid.dx)
    return out
