"""Uniform 1-D grid, the grid arrays, shifts and derivatives.

Everything downstream consumes these types. The grid arrays, ``Wavefunction``,
``Density`` and ``Potential`` (an external potential or the nonlinear term
F(p)), take one value per grid point through one rule, ``_grid_array``: a
copy flagged read-only to make accidental mutation loud. Each type then checks
its own invariant. Config validation relies on two properties of every
constructor guard: NaN fails it, and its message opens with the field name.

There is one density rule, ``_density_raw`` (|psi|^2 as ``re**2``, then
``+= im**2``), and one normalization rule, ``_normalized``, which
``normalize`` and the real states of ``spectra`` and ``exact`` share.
There is one quadrature rule, ``integrate``: the trapezoid over the grid's
domain, which weights every point by dx on both boundaries (the dirichlet
walls, where psi = 0, sit one step outside the end points). There is one
second-difference stencil, ``_second_difference_raw``, which takes its
factor: the Hamiltonian apply, ``_hamiltonian_raw`` (-(hbar^2/2m) psi'' +
u psi, u real), scales it once by -hbar^2/(2m dx^2) and the quantum
potential once by hbar^2/(2m dx^2), while ``laplacian`` and the measures'
error estimate scale it by 1/dx^2. There is one construction of shifted
samples, ``_padded_raw``: p between its off-grid samples (the periodic wrap,
or the one edge rule, which only it writes) in one array, of which p and
both shifts p(x +- steps*dx) are views; the shift, the bracket of F, the
shift's energy sum and the shifted relative entropy all read it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    IncommensurateShiftError,
    NonFiniteError,
    StepTooLargeError,
    ZeroNormError,
)

#: Relative density floor: floors are ``FLOOR_REL * max(p)``. The bracket of
#: F sees its three densities clamped at the floor; the quantum potential
#: floors only its denominator, so its cancellation against the kinetic term
#: stands.
FLOOR_REL = 1e-12

#: Relative tolerance for "shift distance is an integer number of steps".
COMMENSURATE_RTOL = 1e-9

_BOUNDARIES = ("periodic", "dirichlet")
_POLICIES = ("periodic", "floor", "extrap")


def _positive(name: str, value: float) -> None:
    if not 0.0 < value < np.inf:
        raise ValueError(f"{name} must be positive and finite")


def _check_policy(policy: str) -> None:
    if policy not in _POLICIES:
        raise ValueError(f"policy must be one of {_POLICIES}")


def _check_steps(steps: int, n: int) -> None:
    """The bound of a shift that does not wrap: |steps| below n_points."""
    if abs(steps) >= n:
        raise StepTooLargeError(f"shift spans {abs(steps)} steps; must be below n_points = {n}")


def _readonly(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _grid_array(grid: Grid, values, dtype, name: str = "values") -> np.ndarray:
    """The constructor rule of every grid array: a read-only copy of
    ``values`` as ``dtype``, one value per grid point."""
    v = np.array(values, dtype=dtype, copy=True)
    if v.shape != (grid.n_points,):
        raise ValueError(f"{name} length must match grid.n_points")
    return _readonly(v)


@dataclass(frozen=True)
class PhysConstants:
    """Physical constants of the linear theory (natural units by default)."""

    hbar: float = 1.0
    mass: float = 1.0

    def __post_init__(self):
        _positive("hbar", self.hbar)
        _positive("mass", self.mass)


@dataclass(frozen=True)
class Grid:
    """Uniform spatial grid, x_k = x_min + k*dx.

    ``boundary`` fixes how differential stencils treat the edges: 'periodic'
    wraps, 'dirichlet' uses zero ghost values (walls sit one step outside
    the first and last points).
    """

    x_min: float
    dx: float
    n_points: int
    boundary: str = "periodic"

    def __post_init__(self):
        if not np.isfinite(self.x_min):
            raise ValueError("x_min must be finite")
        _positive("dx", self.dx)
        if self.n_points < 8:
            raise ValueError("n_points must be at least 8")
        if self.boundary not in _BOUNDARIES:
            raise ValueError(f"boundary must be one of {_BOUNDARIES}")

    @property
    def x(self) -> np.ndarray:
        return self.x_min + np.arange(self.n_points) * self.dx

    def quad_weights(self) -> np.ndarray:
        """dx at every point; no package code calls it (``integrate`` multiplies by dx)."""
        return np.full(self.n_points, self.dx)

    def default_policy(self) -> str:
        """Shift policy implied by the boundary: wrap on the torus, floor else."""
        return "periodic" if self.boundary == "periodic" else "floor"

    def steps_for(self, distance: float) -> int:
        """Shift distance in whole grid steps, nonzero if the distance is."""
        ratio = distance / self.dx
        steps = int(round(ratio))
        off = abs(ratio - steps) > COMMENSURATE_RTOL * max(1.0, abs(steps))
        if off or (distance and not steps):
            raise IncommensurateShiftError(
                f"incommensurate shift: distance {distance} is {ratio} grid steps; "
                f"not a nonzero integer within rtol {COMMENSURATE_RTOL}"
            )
        return steps


@dataclass(frozen=True)
class NonlinearParams:
    """Knobs of the nonlinearity: length scale L, regulator eta, energy scale.

    ``cal_E`` is not free: the linear small-L limit requires
    cal_E * L**2 = hbar**2 / (4 m). Use :meth:`for_length` to construct.
    """

    L: float
    eta: float
    cal_E: float

    def __post_init__(self):
        _positive("L", self.L)
        if not 0.0 < self.eta <= 1.0:
            raise ValueError("eta must lie in (0, 1]")
        _positive("cal_E", self.cal_E)

    @classmethod
    def for_length(cls, L: float, eta: float, consts: PhysConstants) -> "NonlinearParams":
        _positive("L", L)  # before L divides
        if 4.0 * consts.mass * L * L == 0.0:
            raise ValueError(f"L = {L} is too small: 4 m L^2 underflows to 0")
        return cls(L=L, eta=eta, cal_E=consts.hbar**2 / (4.0 * consts.mass * L * L))

    def shift_steps(self, grid: Grid) -> int:
        """Grid steps in eta*L; raises IncommensurateShiftError if fractional or 0."""
        return grid.steps_for(self.eta * self.L)


@dataclass(frozen=True)
class Wavefunction:
    grid: Grid
    values: np.ndarray = field(repr=False)
    #: Values derived from this state alone, filled on first use by the code
    #: that needs them (``spectra``); the state is immutable, so they never go
    #: stale.
    _derived: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        v = _grid_array(self.grid, self.values, np.complex128)
        if not np.isfinite(v.view(np.float64)).all():
            raise NonFiniteError("wavefunction contains non-finite amplitudes")
        object.__setattr__(self, "values", v)

    def norm_squared(self) -> float:
        return integrate(_density_raw(self.values), self.grid)


@dataclass(frozen=True)
class Density:
    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = _grid_array(self.grid, self.values, np.float64)
        if not np.isfinite(v).all():
            raise NonFiniteError("density contains non-finite values")
        if (v < 0).any():
            raise ValueError("density must be non-negative")
        object.__setattr__(self, "values", v)

    def floor(self) -> float:
        """The density floor, FLOOR_REL * max(p) (see ``_floor_raw``)."""
        return _floor_raw(self.values)


@dataclass(frozen=True)
class Potential:
    """A real array that multiplies psi: an external potential or F(p).

    ``singular_mask`` (empty by default; always empty for F) flags singular
    points, whose values need not be finite: ``evolve`` pins them, the
    eigensolver refuses them and the cotangent residual excludes them."""

    grid: Grid
    values: np.ndarray = field(repr=False)
    singular_mask: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        v = _grid_array(self.grid, self.values, np.float64)
        finite = np.isfinite(v)
        if self.singular_mask is None:
            mask = _readonly(np.zeros(self.grid.n_points, bool))
        else:
            mask = _grid_array(self.grid, self.singular_mask, bool, "singular_mask")
            finite |= mask
        if not finite.all():
            raise ValueError("potential must be finite off the singular mask")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "singular_mask", mask)


def _floor_raw(p: np.ndarray) -> float:
    """The one floor rule: FLOOR_REL * max(p); 1e-300 where that is not
    positive (an all-zero density, or max(p) below about 5e-312, where the
    product underflows to 0), so that floored logarithms stay finite."""
    floor = FLOOR_REL * float(p.max())
    return floor if floor > 0 else 1e-300


def integrate(values: np.ndarray, grid: Grid) -> float:
    """The one quadrature rule: the trapezoid over the grid's domain, dx * sum."""
    return float(np.sum(values * grid.dx))


def _density_raw(v: np.ndarray) -> np.ndarray:
    """The one density rule: |v|^2 as a new array, re**2 and then, for a
    complex v, += im**2 (a real v has no imaginary part to add)."""
    p = v.real**2
    if v.dtype.kind == "c":
        p += v.imag**2
    return p


def density(psi: Wavefunction) -> Density:
    """Pointwise |psi|^2 on the same grid."""
    return Density(psi.grid, _density_raw(psi.values))


def _norm_squared_raw(p: np.ndarray, grid: Grid) -> float:
    """The squared norm integrate(p) of a density p; below 1e-300 it raises ZeroNormError."""
    n2 = integrate(p, grid)
    if n2 < 1e-300:
        raise ZeroNormError(f"squared norm {n2} too small to normalize")
    return n2


def _normalized(grid: Grid, v: np.ndarray) -> Wavefunction:
    """The one normalization rule: v over its trapezoidal norm, the root of
    sum dx |v|^2, as a Wavefunction. A complex v is divided into a new
    array. A real v, which the caller owns, is scaled in place by the real
    part of numpy's complex division by a real scalar, (re + 0.0) * (1 /
    norm), which turns -0.0 into +0.0, and converted to complex once: the
    same bits, from one complex array instead of three."""
    norm = np.sqrt(_norm_squared_raw(_density_raw(v), grid))
    if v.dtype.kind == "c":
        return Wavefunction(grid, v / norm)
    v += 0.0
    v *= 1.0 / norm
    return Wavefunction(grid, v)


def normalize(psi: Wavefunction) -> Wavefunction:
    """Rescale to unit trapezoidal norm, sum dx |psi|^2 = 1."""
    return _normalized(psi.grid, psi.values)


def _padded_raw(
    p: np.ndarray, steps: int, policy: str, eps: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The one construction of shifted samples: (padded, centre, plus, minus).

    ``padded`` holds the h samples left of the grid, p and the h samples
    right of it, n + 2h points (h = |steps| mod n); ``centre``, ``plus`` and
    ``minus`` are its views p, p(x + steps*dx) and p(x - steps*dx). The
    off-grid samples wrap under 'periodic'; otherwise the one edge rule fills
    eps ('floor') or, h steps beyond an end point y, p(y)^2 / max(p(y -+ h dx),
    eps) where y -+ h dx is on the grid and eps elsewhere ('extrap'). A
    non-periodic shift raises StepTooLargeError unless |steps| < n (h = |steps|).
    """
    n = p.size
    periodic = policy == "periodic"
    if not periodic:
        _check_policy(policy)
        _check_steps(steps, n)
    h = abs(steps) % n
    padded = np.empty(n + 2 * h)
    padded[h: h + n] = p
    if periodic:
        padded[:h] = p[n - h:]
        padded[h + n:] = p[:h]
    else:
        padded[:h] = eps
        padded[h + n:] = eps
        if policy == "extrap":
            # the outer m samples of each side, whose source is on the grid
            m = min(h, n - h)
            padded[:m] = p[:m] ** 2 / np.maximum(p[h: h + m], eps)
            padded[n + 2 * h - m:] = p[n - m:] ** 2 / np.maximum(p[n - m - h: n - h], eps)
    ahead, behind = padded[2 * h:], padded[:n]
    plus, minus = (behind, ahead) if steps < 0 else (ahead, behind)
    return padded, padded[h: h + n], plus, minus


def _shift_raw(p: np.ndarray, steps: int, policy: str, eps: float) -> np.ndarray:
    """out[k] = p[k + steps], the ``plus`` view of ``_padded_raw``: 'periodic'
    wraps, 'floor' fills with the density floor, 'extrap' continues
    geometrically (out[k] = p[k]^2 / p[k - steps], floored denominator),
    which is exact for exponentially damped profiles."""
    return _padded_raw(p, steps, policy, eps)[2]


def shift_density(p: Density, steps: int, policy: str | None = None) -> Density:
    """Nonlocal sample p(x + steps*dx) as a new Density."""
    _check_steps(steps, p.grid.n_points)
    if policy is None:
        policy = p.grid.default_policy()
    return Density(p.grid, _shift_raw(p.values, steps, policy, p.floor()))


def _second_difference_raw(v: np.ndarray, boundary: str, factor: float) -> np.ndarray:
    """The one stencil, v[k+1] - 2 v[k] + v[k-1] (zero ghost values on a
    dirichlet grid, wrapped on a periodic one), times ``factor``. The factor
    multiplies the float64 view: numpy multiplies a complex array by a real
    scalar through a slower complex loop, which also turns some -0.0 into
    +0.0."""
    out = np.empty_like(v)
    mid = out[1:-1]
    np.multiply(2.0, v[1:-1], out=mid)
    np.subtract(v[2:], mid, out=mid)
    mid += v[:-2]
    if boundary == "periodic":
        out[0] = v[1] - 2.0 * v[0] + v[-1]
        out[-1] = v[0] - 2.0 * v[-1] + v[-2]
    else:  # dirichlet: ghost values are zero
        out[0] = v[1] - 2.0 * v[0]
        out[-1] = v[-2] - 2.0 * v[-1]
    re_im = out.view(np.float64)
    re_im *= factor
    return out


def _hamiltonian_raw(v: np.ndarray, u: np.ndarray, grid: Grid, consts: PhysConstants):
    """-(hbar^2/2m) v'' + u v, u real: the stencil scaled once by
    -hbar^2/(2m dx^2), += u v."""
    dx = grid.dx
    h = _second_difference_raw(v, grid.boundary, -consts.hbar**2 / (2.0 * consts.mass * dx * dx))
    h += u * v
    return h


def laplacian(psi: Wavefunction) -> Wavefunction:
    """Second-order central difference of the wavefunction."""
    g = psi.grid
    return Wavefunction(g, _second_difference_raw(psi.values, g.boundary, 1.0 / (g.dx * g.dx)))
