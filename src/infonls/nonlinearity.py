"""Pointwise evaluation of the regularized nonlinear term F(p).

F(p) is the sum of a regulated logarithmic bracket built from densities
sampled at x and x +- eta*L, and the quantum-potential term. On constant
densities every piece cancels identically; for smooth densities the whole
field is O(L) once the energy-scale constraint cal_E * L^2 = hbar^2/4m holds.
F multiplies psi as a potential does: the public terms are ``grid.Potential``.

Every consumer of F evaluates it through ``_field_raw`` (the bracket alone
through ``_kl_bracket_raw``; the shift's sum of p times the bracket through
``_kl_energy_raw``, which never forms the bracket), and every floor is the
one rule ``FLOOR_REL * max(p)`` of ``grid._floor_raw`` (1e-300 where that
product is not positive: an all-zero density, or one so small that it
underflows).
The bracket sees the three densities clamped at the floor, max(p, eps), so
it is 0 wherever p and both shifts sit at or below the floor, and an all-zero
density has F = 0 like any constant one. The quantum potential floors only
its denominator: its second derivative acts on the raw sqrt(p), since
flooring it there would break the exact discrete cancellation against the
kinetic term for real states, which the half-line solutions rely on.

The bracket copies p and its two edge fills into one padded array and clamps
it once; p and both shifts are views of it, so no shifted copy of p is made.
Its 17 elementwise passes (4 for the two ratios, 13 for the log1p form) run
block by block on grids longer than ``_BLOCK`` points. Over a whole
131k-point grid each pass allocates a 1 MiB temporary; the allocator hands
that memory back to the system after each call and the next call faults it
in again (about 2000 minor page faults per F call, measured with getrusage),
and the passes stream through memory. A block's three temporaries are reused
within the call and stay in cache, and each block is written into the one
output array. The bits are those of one pass over the whole array.

The quantum potential scales the second-difference stencil once, by
hbar^2/(2m dx^2), as the Hamiltonian apply scales it by -hbar^2/(2m dx^2).
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
    _check_policy,
    _check_steps,
    _edge_fill,
    _floor_raw,
    _second_difference_raw,
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

    One array of n + 2h points holds the left fill, p and the right fill
    (``_edge_fill``'s samples, or the periodic wrap), clamped at the floor
    once; the clamped p and both clamped shifts are views of it (h = |steps|,
    the two shifts swapped for steps < 0; h = steps mod n when periodic).
    The bracket itself is elementwise, so it is evaluated block by block
    into one output array: a grid of up to ``_BLOCK`` points is one block, a
    longer one is cut into ceil(n/_BLOCK) slices of equal length (to one
    point). Every point sees the same operations in the same order, so the
    bits do not depend on the blocking.
    """
    n = p.size
    periodic = policy == "periodic"
    if periodic:
        h = steps % n
    else:
        _check_policy(policy)
        _check_steps(steps, n)
        h = abs(steps)
    padded = np.empty(n + 2 * h)
    padded[h: h + n] = p
    if periodic:
        padded[:h] = p[n - h:]
        padded[h + n:] = p[:h]
    else:
        _edge_fill(p, -h, policy, eps, padded[:h])
        _edge_fill(p, h, policy, eps, padded[h + n:])
    np.maximum(padded, eps, out=padded)
    fp, ahead, behind = padded[h: h + n], padded[2 * h:], padded[:n]
    fpp, fpm = (behind, ahead) if steps < 0 and not periodic else (ahead, behind)
    out = np.empty(n)
    blocks = -(-n // _BLOCK)
    edges = [k * n // blocks for k in range(blocks + 1)]
    for a, b in zip(edges[:-1], edges[1:]):
        _bracket_block(fp[a:b], fpp[a:b], fpm[a:b], eta, out[a:b])
    return out


def _bracket_block(
    fp: np.ndarray, fpp: np.ndarray, fpm: np.ndarray, eta: float, out: np.ndarray
) -> np.ndarray:
    """The bracket of one block of the clamped densities, into ``out``.

    The block reads fp, fp+ and fp- (clamped at the floor, max(., eps), by
    the caller) and forms the ratios r+- = (fp+- - fp)/fp in its own
    temporaries. One log1p form in those ratios runs at every point, with
    a = eta r+:

        bracket = t/den - log1p(a),
        t = ((1 - 2 eta) r- + (1 - eta)) a - eta^2 r-,
        den = (a + 1)((1 - eta) r- + 1).

    It keeps absolute rounding at the size of the bracket itself, which
    matters because the prefactor cal_E/eta^4 can exceed 1e9. Each factor
    of the denominator is a clamped density over the clamped p, at least
    about FLOOR_REL, so it never vanishes.
    """
    rp = np.subtract(fpp, fp)
    rp /= fp
    rm = np.subtract(fpm, fp)
    rm /= fp
    a = np.multiply(eta, rp, out=rp)
    np.multiply(1.0 - 2.0 * eta, rm, out=out)
    out += 1.0 - eta
    out *= a
    den = np.multiply(eta * eta, rm)
    out -= den
    np.multiply(1.0 - eta, rm, out=rm)
    rm += 1.0
    np.add(a, 1.0, out=den)
    den *= rm
    out /= den
    out -= np.log1p(a, out=a)
    return out


def _quantum_potential_raw(
    p: np.ndarray, dx: float, boundary: str, eps: float, consts: PhysConstants
) -> np.ndarray:
    s = np.sqrt(p)
    d2s = _second_difference_raw(s, boundary, consts.hbar**2 / (2.0 * consts.mass * dx * dx))
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


def _kl_energy_raw(
    p: np.ndarray, steps: int, eta: float, policy: str, eps: float, low: np.ndarray
) -> float:
    """sum_k p_k bracket_k, the bracket of ``_kl_bracket_raw(p, steps, eta,
    policy, eps)``, without evaluating the bracket; ``low`` holds the indices
    of the points of p below eps, in increasing order.

    With fp = max(p, eps) and fp+- its clamped shifts, x = eta (fp+ - fp)/fp,
    d+ = fp (1 + x) and d- = eta fp + (1 - eta) fp-, the bracket is
    A - B - log1p(x) with A = eta fp+/d+ and B = eta fp-/d-. Where j + h
    is on the grid (h = steps), p_j A_j and p_{j+h} B_{j+h} cancel unless
    one of the two points is below the floor, and sum p x telescopes to the
    fp of the first and last h points. What is left: the A terms of the
    last h points and the B terms of the first h, whose shifts are
    ``_edge_fill``'s; one pair term per pair with a sub-floor point; and
    sum p (x - log1p(x)) over the points whose +h sample is on the grid,
    which has no cancellation between points. The last h points keep
    -log1p(x) whole, since their x is built from the edge fill. A periodic
    policy pairs cyclically and has no edge terms.
    """
    n = p.size
    periodic = policy == "periodic"
    if periodic:
        h = steps % n
    else:
        _check_policy(policy)
        _check_steps(steps, n)
        if steps < 0:  # the mirror image of p, shifted the other way
            p, low, steps = p[::-1], (n - 1 - low)[::-1], -steps
        h = steps
    if h == 0:
        return 0.0
    fp = np.maximum(p, eps) if low.size else p
    m = n if periodic else n - h
    x = np.empty(m)
    np.subtract(fp[h:], fp[: n - h], out=x[: n - h])
    if periodic:
        np.subtract(fp[:h], fp[n - h:], out=x[n - h:])
    x /= fp[:m]
    x *= eta
    total = _floor_terms(p, fp, x, h, eta, low, periodic) if low.size else 0.0
    lx = np.log1p(x)
    x -= lx
    total += float(np.dot(p[:m], x))
    if not periodic:
        total += _edge_terms(p, fp, h, eta, policy, eps)
    return total


def _floor_terms(
    p: np.ndarray, fp: np.ndarray, x: np.ndarray, h: int, eta: float,
    low: np.ndarray, periodic: bool,
) -> float:
    """The terms of the sub-floor points, where p - fp is not 0: their
    (p - fp) x, which sum p x does not telescope; the eta (p - fp) of the
    edge points among them; and one pair term per pair (j, j + h) with a
    sub-floor point, eta (p_j fp_{j+h} - p_{j+h} fp_j) / d+_j, taken in the
    ratio r = fp_{j+h}/fp_j (at most 1/FLOOR_REL), as eta (p_j r - p_{j+h}) /
    (1 - eta + eta r), so that no product of two densities underflows."""
    n, m = p.size, x.size
    dl = p[low] - fp[low]
    below = low < m
    total = -float(np.dot(dl[below], x[low[below]]))
    if periodic:
        j = np.union1d(low, (low - h) % n)
    else:
        total += eta * (float(np.sum(dl[low >= m])) - float(np.sum(dl[low < h])))
        j = np.union1d(low[below], low[low >= h] - h)
    k = (j + h) % n
    r = fp[k] / fp[j]
    pair = (p[j] * r - p[k]) / ((1.0 - eta) + eta * r)
    return total + eta * float(np.sum(pair))


def _edge_terms(
    p: np.ndarray, fp: np.ndarray, h: int, eta: float, policy: str, eps: float
) -> float:
    """The terms of the last and first h points of a non-periodic shift,
    whose off-grid samples are ``_edge_fill``'s: p (A - eta - log1p(x)) over
    the last h and -p (B - eta) over the first h, the eta being what
    sum p x telescopes to. With r+- = (fp+- - fp)/fp, A - eta is
    eta (1 - eta) r+ / (1 + x) and B - eta is eta^2 r- / (1 + (1 - eta) r-),
    both 0 where the fill equals p."""
    n = p.size
    fr, fl = fp[n - h:], fp[:h]
    rp = (np.maximum(_edge_fill(p, h, policy, eps, np.empty(h)), eps) - fr) / fr
    rm = (np.maximum(_edge_fill(p, -h, policy, eps, np.empty(h)), eps) - fl) / fl
    x = eta * rp
    right = (eta * (1.0 - eta)) * rp / (1.0 + x) - np.log1p(x)
    left = (eta * eta) * rm / (1.0 + (1.0 - eta) * rm)
    return float(np.dot(p[n - h:], right)) - float(np.dot(p[:h], left))


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
