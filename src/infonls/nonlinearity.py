"""Pointwise evaluation of the regularized nonlinear term F(p).

F(p) is the sum of a regulated logarithmic bracket built from densities
sampled at x and x +- eta*L, and the quantum-potential term. On constant
densities every piece cancels identically; for smooth densities the whole
field is O(L) once the energy-scale constraint cal_E * L^2 = hbar^2/4m holds.
F multiplies psi as a potential does: the public terms are ``grid.Potential``.

Every consumer of F evaluates it through ``_field_raw`` (the bracket alone
through ``_kl_bracket_raw``), and every floor is the one rule
``FLOOR_REL * max(p)`` of ``grid._floor_raw`` (1e-300 where that product
is not positive: an all-zero density, or one so small that it underflows).
The bracket sees the three densities clamped at the floor, max(p, eps), so
it is 0 wherever p and both shifts sit at or below the floor, and an all-zero
density has F = 0 like any constant one. The quantum potential floors only
its denominator: its second derivative acts on the raw sqrt(p), since
flooring it there would break the exact discrete cancellation against the
kinetic term for real states, which the half-line solutions rely on.

The bracket runs its ~20 elementwise passes block by block on grids longer
than ``_BLOCK`` points. Over a whole 131k-point grid each pass allocates a
1 MiB temporary; the allocator hands that memory back to the system after
each call and the next call faults it in again (about 2000 minor page faults
per F call, measured with getrusage), and the passes stream through memory.
A block's temporaries are reused within the call and stay in cache. The bits
are those of one pass over the whole array.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import UnregularizedEtaWarning
from .grid import (
    Density,
    Grid,
    NonlinearParams,
    PhysConstants,
    Potential,
    _floor_raw,
    _laplacian_raw,
    _shift_raw,
)


#: Points per block of the bracket, chosen by measurement (2-core Xeon,
#: 2 MiB L2 per core): blocks of 16384 to 32768 points ran F at 131073
#: points in 4.4-5.4 ms against 13-15 ms as one block, and blocks of 65536
#: in up to 7.6 ms; at 16385 and 32769 points one block was as fast as two or
#: faster. 32768 keeps both of those grids whole.
_BLOCK = 32768


def _kl_bracket_raw(
    p: np.ndarray, steps: int, eta: float, policy: str, eps: float
) -> np.ndarray:
    """The regulated bracket of p and its shifts p(x +- steps*dx), edges per
    ``policy``; dimensionless, without the cal_E/eta^4 prefactor.

    The shifts are built over the whole array and belong to the call, so
    each block clamps its slices of them in place. The bracket itself is
    elementwise, so it is evaluated block by block: a grid of up to
    ``_BLOCK`` points is one block, a longer one is cut into
    ceil(n/_BLOCK) slices of equal length (to one point), each written into
    one output array. Every point sees the same operations in the same
    order, so the bits do not depend on the blocking.
    """
    n = p.size
    if n <= _BLOCK:
        # the shifts are passed, not held: the body clamps them in place and
        # reuses their memory for the density ratios
        return _bracket_block(p, _shift_raw(p, +steps, policy, eps),
                              _shift_raw(p, -steps, policy, eps), eta, eps)
    pp = _shift_raw(p, +steps, policy, eps)
    pm = _shift_raw(p, -steps, policy, eps)
    out = np.empty(n)
    blocks = -(-n // _BLOCK)
    edges = [k * n // blocks for k in range(blocks + 1)]
    for a, b in zip(edges[:-1], edges[1:]):
        _bracket_block(p[a:b], pp[a:b], pm[a:b], eta, eps, out=out[a:b])
    return out


def _bracket_block(
    p: np.ndarray,
    pp: np.ndarray,
    pm: np.ndarray,
    eta: float,
    eps: float,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """The bracket of one block, into ``out`` (a new array if None).

    The three densities enter clamped at the floor, max(., eps): ``pp`` and
    ``pm`` in place, where they become the ratios r+- = (p+- - p)/p of the
    clamped densities. One log1p form in those ratios runs at every point; it
    keeps absolute rounding at the size of the bracket itself, which matters
    because the prefactor cal_E/eta^4 can exceed 1e9. Each factor of the
    denominator is a clamped density over the clamped p, at least about
    FLOOR_REL, so it never vanishes.
    """
    fp = np.maximum(p, eps)
    rp = np.maximum(pp, eps, out=pp)
    rp -= fp
    rp /= fp
    rm = np.maximum(pm, eps, out=pm)
    rm -= fp
    rm /= fp
    erp = eta * rp
    # num = (1-eta) rp - eta rm + (1-2eta) rp rm
    out = np.multiply(1.0 - eta, rp, out=out)
    out -= eta * rm
    t = (1.0 - 2.0 * eta) * rp
    t *= rm
    out += t
    # den = (1 + eta rp)(1 + (1-eta) rm)
    den = erp + 1.0
    t = (1.0 - eta) * rm
    t += 1.0
    den *= t
    # out = eta num / den - log1p(eta rp)
    out *= eta
    out /= den
    out -= np.log1p(erp, out=erp)
    return out


def _quantum_potential_raw(
    p: np.ndarray, dx: float, boundary: str, eps: float, consts: PhysConstants
) -> np.ndarray:
    s = np.sqrt(p)
    d2s = _laplacian_raw(s, dx, boundary)
    d2s *= consts.hbar**2 / (2.0 * consts.mass)
    d2s /= np.maximum(s, np.sqrt(eps), out=s)
    return d2s


def _field_raw(
    p: np.ndarray,
    grid: Grid,
    params: NonlinearParams,
    consts: PhysConstants,
    policy: str,
    steps: int,
) -> np.ndarray:
    """F(p) on raw arrays: the only evaluation of the full field."""
    eps = _floor_raw(p)
    kl = _kl_bracket_raw(p, steps, params.eta, policy, eps)
    kl *= params.cal_E / params.eta**4
    kl += _quantum_potential_raw(p, grid.dx, grid.boundary, eps, consts)
    return kl


def _warn_if_unregularized(params: NonlinearParams) -> None:
    if params.eta == 1.0:
        warnings.warn(
            "eta = 1 evaluates the unregularized, singular limit",
            UnregularizedEtaWarning,
            stacklevel=3,
        )


def regularized_kl_term(
    p: Density, params: NonlinearParams, policy: str | None = None
) -> Potential:
    """(cal_E/eta^4) times the regulated bracket of shifted densities."""
    _warn_if_unregularized(params)
    steps = params.shift_steps(p.grid)
    pol = policy or p.grid.default_policy()
    pref = params.cal_E / params.eta**4
    return Potential(
        p.grid, pref * _kl_bracket_raw(p.values, steps, params.eta, pol, p.floor())
    )


def quantum_potential_term(p: Density, consts: PhysConstants) -> Potential:
    """(hbar^2/2m) (d^2 sqrt(p) / dx^2) / sqrt(p), floored denominator."""
    vals = _quantum_potential_raw(
        p.values, p.grid.dx, p.grid.boundary, p.floor(), consts
    )
    return Potential(p.grid, vals)


def nonlinear_term_F(
    p: Density,
    params: NonlinearParams | None,
    consts: PhysConstants,
    policy: str | None = None,
) -> Potential:
    """Full nonlinear term: regulated bracket plus quantum potential.

    ``params=None`` selects the linear theory (the eta -> 0 convention),
    where F vanishes identically.
    """
    if params is None:
        return Potential(p.grid, np.zeros(p.grid.n_points))
    _warn_if_unregularized(params)
    steps = params.shift_steps(p.grid)
    pol = policy or p.grid.default_policy()
    return Potential(p.grid, _field_raw(p.values, p.grid, params, consts, pol, steps))
