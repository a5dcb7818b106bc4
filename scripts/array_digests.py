#!/usr/bin/env python3
"""Print the sha256 of every field-kernel, exact-state, measures and spectra
output over a fixed set of states, policies and shifts, one line per array.

The kernels are the shift, the regulated bracket (at the bracket's own
shifts and at every shift of the shift lines), the quantum potential, the
full field F, the KL term (the public ones as a Potential's values and
singular mask), the Laplacian, ``rhs_apply``, ``rk4_step`` (both signs of dt)
and every array of an ``evolve`` report, with and without F. The exact-state
outputs are ``nonlinear_residual``, ``linear_residual_cotangent`` and the
values and mask of its ``cotangent_potential`` at several radii and beta
scales on a commensurate half-line grid and on an off-lattice box grid,
``exact_energy_bounds`` and ``degeneracy_check``. The measures are
``kl_divergence_shifted`` (value and error estimate) and
``kl_shifted_functional`` under every policy, ``fisher_information``,
``shannon_entropy``, and ``functional_derivative`` of each on a small
periodic density. The spectra outputs are ``first_order_shift_numeric`` on
every state at several (eta, steps, policy), in an order that meets each state
first cold and then with its per-state part reused; ``characteristic_length``;
``solve_linear_spectrum`` energies of a harmonic well; ``resample_state`` of
each eigenstate onto two fine grids, so the second reuses the spline; the
shifts on the resampled states; and ``nodeless_shift_integral`` on the ground
window. The blocked outputs are the bracket, F, ``first_order_shift_numeric``
and ``nonlinear_residual`` on grids longer than one block of the bracket:
harmonic eigenstates resampled to 65537 and 131073 points, a periodic skewed
density of 40001 points and the 76801-point exact half-line state. The grid
outputs, printed last, are ``density``, ``Wavefunction.norm_squared`` and
``normalize`` of the complex harmonic packet (k0 = 3) and of a real array
that holds -0.0 entries and negative subnormals. The inputs
are deterministic, so two checkouts that print the same lines compute the same
bits. To diff a change against its parent:

    PYTHONPATH=src python3 scripts/array_digests.py > new.txt
    PYTHONPATH=<parent>/src python3 scripts/array_digests.py > old.txt
    diff old.txt new.txt
"""

import argparse
import hashlib
import itertools
import warnings
from dataclasses import astuple

import numpy as np

from infonls import (
    Density,
    ExactSolutionSpec,
    Grid,
    NonlinearParams,
    PhysConstants,
    Potential,
    Wavefunction,
    alpha_node_indices,
    build_exact_state,
    characteristic_length,
    cotangent_params,
    cotangent_potential,
    degeneracy_check,
    density,
    dt_max,
    evolve,
    exact_energy,
    exact_energy_bounds,
    first_order_shift_numeric,
    fisher_information,
    functional_derivative,
    harmonic_potential,
    kl_divergence_shifted,
    kl_shifted_functional,
    laplacian,
    linear_residual_cotangent,
    nonlinear_residual,
    nonlinear_term_F,
    nodeless_shift_integral,
    normalize,
    quantum_potential_term,
    regularized_kl_term,
    resample_state,
    rhs_apply,
    rk4_step,
    shannon_entropy,
    solve_linear_spectrum,
)
from infonls.errors import InfonlsError, NonFiniteEvolutionError
from infonls.grid import _floor_raw, _shift_raw
from infonls.nonlinearity import _field_raw, _kl_bracket_raw, _quantum_potential_raw

POLICIES = ("floor", "extrap", "periodic")
#: Regulators the bracket is evaluated at besides the state's own.
EXTRA_ETAS = (0.25, 1.0)
#: RK4 steps per evolve call.
EVOLVE_STEPS = 12
#: Exclusion radii of the exact-state residuals, in grid steps.
RADII = (0.25, 1.0, 3.0, 17.0, 1e9)
#: Multiples of the right beta (or energy) the residuals are evaluated at.
SCALES = (1.0, 2.0, 1.37)
#: Points of the periodic density the functional derivatives are taken on;
#: the oracle makes two functional calls per point.
ORACLE_POINTS = 48
#: (eta, steps) of the first-order shifts, in steps of each state's grid; the
#: first point is a state's first call, the later ones (the first repeated
#: last) reuse its per-state part.
SHIFT_POINTS = ((0.8, 16), (0.25, 3), (0.5, 1), (1.0, 7), (0.8, 16))
#: Points of the two fine grids every coarse eigenstate is resampled onto.
FINE_POINTS = (1601, 4001)
#: Grids of the blocked outputs, each longer than one block of the bracket:
#: the resampled eigenstates, the periodic density and the exact state.
BLOCKED_POINTS = (65537, 131073)
BLOCKED_PERIODIC_POINTS = 40001
BLOCKED_EXACT = (512, 150)  # steps per shift, periods: 76801 points
#: (eta, steps) of the blocked outputs, in steps of each grid.
BLOCKED_SHIFTS = ((0.8, 64), (0.45, 901))


def _gaussian(grid, sigma, center, k=0.0):
    vals = np.exp(-((grid.x - center) ** 2) / (2.0 * sigma**2)) * np.exp(1j * k * grid.x)
    return normalize(Wavefunction(grid, vals))


def states(consts):
    """(name, psi, potential, params): the fixed inputs."""
    # the half-line eigenstate of the evolve-exact benchmark, nodes pinned
    params = NonlinearParams.for_length(0.1, 0.8, consts)
    grid = Grid(x_min=0.0, dx=0.8 * 0.1 / 16, n_points=2305, boundary="dirichlet")
    spec = ExactSolutionSpec(kappa=1.0, params=params)
    pinned = np.zeros(grid.n_points, dtype=bool)
    pinned[alpha_node_indices(spec, grid)] = True
    yield "exact", build_exact_state(spec, grid), Potential(
        grid, np.zeros(grid.n_points), pinned), params
    # a moving packet in a harmonic well, Dirichlet walls
    grid = Grid(x_min=-5.0, dx=0.01, n_points=1001, boundary="dirichlet")
    yield "harmonic", _gaussian(grid, 0.7, -1.0, 3.0), harmonic_potential(
        grid, consts), NonlinearParams.for_length(0.2, 0.5, consts)
    # a periodic packet with two pinned points held at zero
    grid = Grid(x_min=-4.0, dx=0.01, n_points=800, boundary="periodic")
    vals = _gaussian(grid, 0.5, 0.3, 2.0).values.copy()
    pinned = np.zeros(grid.n_points, dtype=bool)
    pinned[[350, 470]] = True
    vals[pinned] = 0.0
    yield "pinned", Wavefunction(grid, vals), Potential(
        grid, harmonic_potential(grid, consts).values, pinned), NonlinearParams.for_length(
        0.1, 0.3, consts)
    # a smooth positive periodic state with no symmetry
    n = 512
    grid = Grid(x_min=0.0, dx=2 * np.pi / n, n_points=n, boundary="periodic")
    u = grid.x
    amp = np.sqrt(1.0 + 0.5 * np.sin(u) + 0.2 * np.cos(2 * u)) * np.exp(2j * u)
    yield "periodic", normalize(Wavefunction(grid, amp)), Potential(
        grid, np.zeros(n)), NonlinearParams.for_length(16 * grid.dx / 0.4, 0.4, consts)
    # degenerate densities: all zero, one spike over exact zeros, subnormal
    grid = Grid(x_min=0.0, dx=0.01, n_points=256, boundary="dirichlet")
    params = NonlinearParams.for_length(0.08, 0.5, consts)
    zero = np.zeros(grid.n_points, dtype=np.complex128)
    spike = zero.copy()
    spike[100] = 30.0
    spike[101] = 1e-3
    tiny = 1e-155 * np.exp(-((grid.x - 1.2) ** 2) / 0.1)
    for name, vals in (("zero", zero), ("spike", spike), ("subnormal", tiny)):
        yield name, Wavefunction(grid, vals), Potential(grid, np.zeros(grid.n_points)), params


def digest(a) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def _outcome(fn):
    """fn(), or the text of the package error it raises, as bytes to digest."""
    try:
        return fn()
    except InfonlsError as exc:
        return np.frombuffer(f"{type(exc).__name__}: {exc}".encode(), dtype=np.uint8)


def _potential(label, fn):
    """.values and .singular_mask of the Potential fn() returns, or for both
    the text of the package error it raises."""
    V = _outcome(fn)
    for part in ("values", "singular_mask"):
        yield f"{label}.{part}", getattr(V, part) if isinstance(V, Potential) else V


def dynamics(label, psi, V, params, consts, policy, dt):
    """rhs_apply, rk4_step at +-dt and the evolve report arrays."""
    yield f"{label} rhs_apply", _outcome(
        lambda: rhs_apply(psi, V, params, consts, policy).values)
    for step in (dt, -dt):
        yield f"{label} rk4_step[{step!r}]", _outcome(
            lambda: rk4_step(psi, V, params, consts, step, policy).values)
    try:
        rep, tag = evolve(psi, V, params, consts, dt, EVOLVE_STEPS, policy), "evolve"
    except NonFiniteEvolutionError as exc:
        rep, tag = exc.report, "evolve-nonfinite"
    for field in ("times", "norm_drift", "energy_trace"):
        yield f"{label} {tag}.{field}", getattr(rep, field)
    yield f"{label} {tag}.final_state", rep.final_state.values


def arrays(consts):
    """Yield (label, array) for every kernel output."""
    for name, psi, V, params in states(consts):
        grid = psi.grid
        n = grid.n_points
        p = psi.values.real**2 + psi.values.imag**2
        eps = _floor_raw(p)
        steps = params.shift_steps(grid)
        dt = dt_max(grid, consts)
        yield f"{name} laplacian", laplacian(psi).values
        yield f"{name} Q", _quantum_potential_raw(p, grid.dx, grid.boundary, eps, consts)
        yield from _potential(f"{name} quantum_potential_term",
                              lambda: quantum_potential_term(Density(grid, p), consts))
        yield from dynamics(f"{name} linear", psi, V, None, consts, grid.default_policy(), dt)
        shifts = sorted({steps, -steps, 1, -1, n - 1, 1 - n, n // 2 + 3, -(n // 2 + 3)})
        for pol in POLICIES:
            for s in shifts:
                yield f"{name} {pol} shift[{s}]", _shift_raw(p, s, pol, eps)
            for eta in (params.eta, *EXTRA_ETAS):
                for s in (steps, -steps):
                    yield (f"{name} {pol} bracket[eta={eta!r},{s}]",
                           _kl_bracket_raw(p, s, eta, pol, eps))
            # the shifts' edges and the periodic wrap at every length
            for s in shifts:
                if abs(s) != steps:
                    yield (f"{name} {pol} bracket[eta={params.eta!r},{s}]",
                           _kl_bracket_raw(p, s, params.eta, pol, eps))
            yield (f"{name} {pol} KL",
                   regularized_kl_term(Density(grid, p), params, pol).values)
            yield f"{name} {pol} F", _field_raw(p, grid, params, consts, pol, steps)
            yield from _potential(f"{name} {pol} nonlinear_term_F",
                                  lambda: nonlinear_term_F(Density(grid, p), params, consts, pol))
            yield from dynamics(f"{name} {pol}", psi, V, params, consts, pol, dt)


def exact_outputs(consts):
    """Yield (label, array) for the exact-state residuals, bounds and
    degeneracy checks."""
    profiles = (((1, 1.0),), ((1, 1.0), (2, 0.5)), ((1, 1.0), (2, -0.9)))
    for eta, L, steps, periods in ((0.8, 0.1, 64, 150), (0.8, 0.1, 37, 150),
                                   (0.3, 2.0, 501, 20), (0.8, 2.0, 500, 15)):
        params = NonlinearParams.for_length(L, eta, consts)
        grid = Grid(x_min=0.0, dx=eta * L / steps, n_points=periods * steps + 1,
                    boundary="dirichlet")
        e = exact_energy(1.0, params, consts)
        label = f"eta={eta!r} L={L!r} steps={steps}"
        yield f"{label} bounds", np.array(exact_energy_bounds(params, consts))
        for alpha in profiles:
            psi = build_exact_state(ExactSolutionSpec(kappa=1.0, params=params, alpha=alpha), grid)
            for r in RADII:
                for scale in SCALES:
                    yield (f"{label} alpha={alpha} nonlinear_residual[r={r!r},E*{scale!r}]",
                           _outcome(lambda: np.array(nonlinear_residual(
                               psi, scale * e, params, consts, r * grid.dx))))
        yield f"{label} degeneracy_check", _outcome(lambda: np.array(degeneracy_check(
            profiles[0], profiles[1], 1.0, params, consts, grid=grid)))
        psi = build_exact_state(ExactSolutionSpec(kappa=1.0, params=params), grid)
        cot = cotangent_params(1.0, params, consts)
        for scale in SCALES:
            c = type(cot)(A=cot.A, B=cot.B, beta=scale * cot.beta)
            for r in RADII:
                yield (f"{label} linear_residual_cotangent[r={r!r},beta*{scale!r}]",
                       _outcome(lambda: np.array(linear_residual_cotangent(
                           psi, e, c, consts, r * grid.dx))))
                yield from _potential(f"{label} cotangent_potential[r={r!r},beta*{scale!r}]",
                                      lambda: cotangent_potential(c, grid, r * grid.dx))
    for eta, L in ((0.1, 1e-3), (0.5, 1.0), (0.99, 0.1), (0.999999, 2.0)):
        yield f"eta={eta!r} L={L!r} bounds", np.array(exact_energy_bounds(
            NonlinearParams.for_length(L, eta, consts), consts))
    # the grid degeneracy_check once built by default: 64 steps per shift,
    # 144 half periods, long enough for kappa = 2
    grid = Grid(x_min=0.0, dx=0.8 * 0.1 / 64, n_points=144 * 32 + 1, boundary="dirichlet")
    yield "default grid degeneracy_check", np.array(degeneracy_check(
        ((1, 1.0),), ((1, 1.0), (3, 0.25)), 2.0, NonlinearParams.for_length(0.1, 0.8, consts),
        consts, grid=grid))
    # the box limit: x_min = dx, no singular point on the grid
    n = 2048
    grid = Grid(x_min=1.0 / (n + 1), dx=1.0 / (n + 1), n_points=n, boundary="dirichlet")
    k = 3 * np.pi
    psi = normalize(Wavefunction(grid, np.sin(k * grid.x).astype(complex)))
    e_d = consts.hbar**2 * 2 * (1 - np.cos(k * grid.dx)) / (2 * consts.mass * grid.dx**2)
    cot = cotangent_params(1.0, NonlinearParams.for_length(2.0, 0.8, consts), consts)
    for A, B in ((0.0, 0.0), (cot.A, cot.B)):
        for scale in SCALES:
            c = type(cot)(A=A, B=B, beta=scale * cot.beta)
            for r in (0.0, *RADII):
                yield (f"box A={A!r} linear_residual_cotangent[r={r!r},beta*{scale!r}]",
                       _outcome(lambda: np.array(linear_residual_cotangent(
                           psi, e_d, c, consts, r * grid.dx))))
                yield from _potential(f"box A={A!r} cotangent_potential[r={r!r},beta*{scale!r}]",
                                      lambda: cotangent_potential(c, grid, r * grid.dx))


def measures_outputs(consts):
    """Yield (label, array) for the information measures and the
    functional-derivative oracle."""
    for name, psi, _, params in states(consts):
        grid = psi.grid
        p = Density(grid, psi.values.real**2 + psi.values.imag**2)
        steps = params.shift_steps(grid)
        yield f"{name} fisher_information", np.array(astuple(fisher_information(p)))
        yield f"{name} shannon_entropy", np.array(astuple(shannon_entropy(p)))
        for pol in POLICIES:
            for s in sorted({steps, -steps, 1, grid.n_points // 2 + 3}):
                L = s * grid.dx
                yield (f"{name} {pol} kl_divergence_shifted[{s}]",
                       np.array(astuple(kl_divergence_shifted(p, L, pol))))
                yield (f"{name} {pol} kl_shifted_functional[{s}]",
                       np.array(kl_shifted_functional(L, pol)(p)))
    n = ORACLE_POINTS
    grid = Grid(x_min=0.0, dx=2 * np.pi / n, n_points=n, boundary="periodic")
    u = grid.x
    p = Density(grid, np.exp(np.cos(u) + 0.5 * np.sin(2 * u)))
    functionals = {"fisher_information": lambda q: fisher_information(q).value,
                   "shannon_entropy": lambda q: shannon_entropy(q).value}
    for pol in POLICIES:
        functionals[f"{pol} kl_shifted_functional[3]"] = kl_shifted_functional(3 * grid.dx, pol)
    for label, fn in functionals.items():
        yield f"oracle {label} functional_derivative", functional_derivative(fn, p)


def _shifts(label, psi, consts):
    """first_order_shift_numeric at every SHIFT_POINTS entry and policy."""
    for eta, steps in SHIFT_POINTS:
        params = NonlinearParams.for_length(steps * psi.grid.dx / eta, eta, consts)
        for pol in POLICIES:
            res = first_order_shift_numeric(psi, params, consts, pol)
            yield (f"{label} {pol} first_order_shift_numeric[eta={eta!r},{steps}]",
                   np.array([res.eta, res.L, res.delta_E]))


def spectra_outputs(consts):
    """Yield (label, array) for the first-order shifts, the eigensolve, the
    resampling and the nodeless integral."""
    for name, psi, _, _ in states(consts):
        yield from _shifts(name, psi, consts)
        yield f"{name} characteristic_length", _outcome(
            lambda: np.array(characteristic_length(psi)))
    coarse = Grid(x_min=-8.0, dx=16.0 / 401, n_points=400, boundary="dirichlet")
    sol = solve_linear_spectrum(harmonic_potential(coarse, consts), coarse, consts, 3)
    yield "harmonic solve_linear_spectrum energies", sol.energies
    for j, psi in enumerate(sol.states):
        for n in FINE_POINTS:
            fine = Grid(x_min=-6.0, dx=12.0 / (n - 1), n_points=n, boundary="dirichlet")
            label = f"harmonic state {j} resample_state[{n}]"
            fine_psi = resample_state(psi, fine)
            yield label, fine_psi.values
            yield f"{label} characteristic_length", np.array(characteristic_length(fine_psi))
            yield from _shifts(label, fine_psi, consts)
            if j == 0:
                v = fine_psi.values.real**2
                inside = np.flatnonzero(v >= 2e-6 * v.max())
                window = Grid(x_min=float(fine.x[inside[0]]), dx=fine.dx,
                              n_points=int(inside[-1] - inside[0] + 1), boundary="dirichlet")
                p = Density(window, v[inside[0]: inside[-1] + 1])
                for eta, L in ((0.3, 0.05), (0.8, 0.1), (1.0, 0.02)):
                    yield (f"{label} nodeless_shift_integral[eta={eta!r},L={L!r}]",
                           np.array(nodeless_shift_integral(p, eta, L, consts)))


def _blocked(label, psi, E, consts, policies):
    """Bracket, F, first-order shift and residual of one long state."""
    grid = psi.grid
    p = psi.values.real**2 + psi.values.imag**2
    eps = _floor_raw(p)
    for eta, steps in BLOCKED_SHIFTS:
        params = NonlinearParams.for_length(steps * grid.dx / eta, eta, consts)
        for pol in policies:
            tag = f"{label} {pol} [eta={eta!r},{steps}]"
            for s in (steps, -steps):
                yield f"{tag} bracket[{s}]", _kl_bracket_raw(p, s, eta, pol, eps)
            yield f"{tag} F", _field_raw(p, grid, params, consts, pol, steps)
            res = first_order_shift_numeric(psi, params, consts, pol)
            yield f"{tag} first_order_shift_numeric", np.array([res.eta, res.L, res.delta_E])
        yield (f"{label} [eta={eta!r},{steps}] nonlinear_residual",
               _outcome(lambda: np.array(nonlinear_residual(
                   psi, E, params, consts, 3.0 * grid.dx))))


def blocked_outputs(consts):
    """Yield (label, array) for the field on grids longer than one block."""
    coarse = Grid(x_min=-8.0, dx=16.0 / 401, n_points=400, boundary="dirichlet")
    sol = solve_linear_spectrum(harmonic_potential(coarse, consts), coarse, consts, 2)
    for j, psi in enumerate(sol.states):
        for n in BLOCKED_POINTS:
            fine = Grid(x_min=-6.0, dx=12.0 / (n - 1), n_points=n, boundary="dirichlet")
            yield from _blocked(f"blocked harmonic state {j} N={n}", resample_state(psi, fine),
                                float(sol.energies[j]), consts, ("floor", "extrap"))
    n = BLOCKED_PERIODIC_POINTS
    grid = Grid(x_min=0.0, dx=2 * np.pi / n, n_points=n, boundary="periodic")
    u = grid.x
    amp = np.sqrt(1.0 + 0.45 * np.sin(u + 0.3) + 0.2 * np.cos(2 * u + 1.1))
    yield from _blocked(f"blocked periodic N={n}", normalize(Wavefunction(grid, amp)), 1.0,
                        consts, ("periodic",))
    steps, periods = BLOCKED_EXACT
    params = NonlinearParams.for_length(0.1, 0.8, consts)
    grid = Grid(x_min=0.0, dx=0.08 / steps, n_points=periods * steps + 1, boundary="dirichlet")
    psi = build_exact_state(ExactSolutionSpec(kappa=1.0, params=params), grid)
    e = exact_energy(1.0, params, consts)
    yield from _blocked(f"blocked exact N={grid.n_points}", psi, e, consts, ("floor", "extrap"))


def grid_outputs(consts):
    """Yield (label, array) for the density and the normalization of a
    complex packet and of a real array with signed zeros."""
    grid = Grid(x_min=-5.0, dx=0.01, n_points=1001, boundary="dirichlet")
    raw = 4.0 * np.sin(3.0 * grid.x) * np.exp(-grid.x**2)
    raw[::5] = -0.0
    raw[1:4] = -5e-324
    for label, psi in (("harmonic packet", _gaussian(grid, 0.7, -1.0, 3.0)),
                       ("signed-zero real", Wavefunction(grid, raw))):
        yield f"{label} density", density(psi).values
        yield f"{label} norm_squared", np.array(psi.norm_squared())
        yield f"{label} normalize", normalize(psi).values


def main():
    argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    ).parse_args()
    consts = PhysConstants()
    count = 0
    # degenerate states overflow on purpose; the digests are the output
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        for label, a in itertools.chain(
                arrays(consts), exact_outputs(consts), measures_outputs(consts),
                spectra_outputs(consts), blocked_outputs(consts), grid_outputs(consts)):
            print(f"{label} sha256 {digest(a)}")
            count += 1
    print(f"{count} arrays")


if __name__ == "__main__":
    main()
