"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report. Tolerances are pinned here and nowhere else.
"""

import numpy as np
import pytest

from infonls import (
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
    linear_residual_cotangent,
    minimize_over_eta,
    node_shift_eta_profile,
    nodeless_shift_integral,
    nonlinear_residual,
    nonlinear_term_F,
    normalize,
    quartic_potential,
    resample_state,
    sho_ground_shift_closed,
    solve_linear_spectrum,
    zero_potential,
)
from infonls.config import parse_config
from infonls.sweeps import run_sweep
from conftest import gaussian_density, periodic_grid, plane_wave, skewed_density

pytestmark = pytest.mark.acceptance

CONSTS = PhysConstants()

ETA_NODE_MIN = (7.0 + np.sqrt(33.0)) / 16.0
ETA_GAUSS_MIN = (3.0 + np.sqrt(3.0)) / 6.0
E_ANCHOR = -0.5045725708395438  # kappa=1, eta=0.8, L=0.1, hbar=m=1


def report(number, detail):
    print(f"PASS criterion {number}: {detail}")


def excited_state_resampled(potential_builder, dx_fine, window_rel=3e-11):
    """Coarse eigensolve of state n=1, windowed where the density stays two
    decades above the floor, quintic-resampled to the fine spacing."""
    n_c = 8192
    g_c = Grid(x_min=-10.0, dx=20.0 / (n_c + 1), n_points=n_c, boundary="dirichlet")
    sol = solve_linear_spectrum(potential_builder(g_c), g_c, CONSTS, 2)
    a = characteristic_length(sol.states[0])
    p1 = np.abs(sol.states[1].values) ** 2
    ok = np.where(p1 / p1.max() >= window_rel)[0]
    half = min(-g_c.x[ok[0]], g_c.x[ok[-1]])
    n_half = int(np.ceil(half / dx_fine))
    fine = Grid(
        x_min=-n_half * dx_fine, dx=dx_fine, n_points=2 * n_half + 1, boundary="dirichlet"
    )
    return resample_state(sol.states[1], fine), a


def ground_state_resampled(dx_fine, window_rel=3e-11):
    n_c = 8192
    g_c = Grid(x_min=-10.0, dx=20.0 / (n_c + 1), n_points=n_c, boundary="dirichlet")
    sol = solve_linear_spectrum(harmonic_potential(g_c, CONSTS), g_c, CONSTS, 1)
    p0 = np.abs(sol.states[0].values) ** 2
    ok = np.where(p0 / p0.max() >= window_rel)[0]
    half = min(-g_c.x[ok[0]], g_c.x[ok[-1]])
    n_half = int(np.ceil(half / dx_fine))
    fine = Grid(
        x_min=-n_half * dx_fine, dx=dx_fine, n_points=2 * n_half + 1, boundary="dirichlet"
    )
    return resample_state(sol.states[0], fine)


def test_criterion_01_node_profile_minimum():
    eta_star, value = minimize_over_eta(node_shift_eta_profile)
    assert abs(eta_star - ETA_NODE_MIN) < 1e-6
    assert value < 0
    report(1, f"eta* = {eta_star:.8f} vs (7+sqrt33)/16 = {ETA_NODE_MIN:.8f}")


def test_criterion_02_gaussian_profile_minimum():
    eta_star, value = minimize_over_eta(lambda e: sho_ground_shift_closed(e, 0.1))
    assert abs(eta_star - ETA_GAUSS_MIN) < 1e-6
    assert value < 0
    report(2, f"eta* = {eta_star:.8f} vs (3+sqrt3)/6 = {ETA_GAUSS_MIN:.8f}")


def test_criterion_03_shift_zeros():
    for eta in (0.0, 0.25, 1.0):
        assert abs(node_shift_eta_profile(eta)) < 1e-15
    for eta in (0.0, 1.0 / 3.0, 1.0):
        assert abs(sho_ground_shift_closed(eta, 0.1)) < 1e-16
    report(3, "node profile vanishes at {0, 1/4, 1}; gaussian at {0, 1/3, 1}")


def well_length_scale(potential_builder):
    n_c = 8192
    g_c = Grid(x_min=-10.0, dx=20.0 / (n_c + 1), n_points=n_c, boundary="dirichlet")
    sol = solve_linear_spectrum(potential_builder(g_c), g_c, CONSTS, 1)
    return characteristic_length(sol.states[0])


def test_criterion_04_universal_eta_dependence():
    # dx = L/80, so eta = k/40 is 2k steps; the last three bracket the minimum
    etas = (0.1, 0.4, 0.6, 0.775, 0.8, 0.825)
    near = etas[3:]
    vertex = lambda f: near[1] + 0.025 * (f[0] - f[2]) / (2.0 * (f[0] - 2.0 * f[1] + f[2]))
    profile_vertex = vertex([node_shift_eta_profile(e) for e in near])
    worst = 0.0
    for builder, label in (
        (lambda g: harmonic_potential(g, CONSTS), "harmonic"),
        (lambda g: quartic_potential(g, coeff=1.0), "quartic"),
    ):
        a = well_length_scale(builder)
        L = 1e-3 * a
        state, _ = excited_state_resampled(builder, dx_fine=0.1 * L / 8)
        shifts = {
            eta: first_order_shift_numeric(
                state, NonlinearParams.for_length(L, eta, CONSTS), CONSTS
            ).delta_E
            for eta in etas
        }
        for e1, e2 in ((0.1, 0.4), (0.1, 0.6), (0.4, 0.6)):
            num = shifts[e1] / shifts[e2]
            ref = node_shift_eta_profile(e1) / node_shift_eta_profile(e2)
            worst = max(worst, abs(num / ref - 1.0))
        # the shift is least at eta = 0.8 of the k/40 scan, and the parabola
        # through its three points peaks where the profile's does (measured
        # 0.79601 against 0.79590; the exact minimum is 0.79654)
        f = [shifts[e] for e in near]
        assert f[1] < min(f[0], f[2])
        assert abs(vertex(f) - profile_vertex) < 1e-3
    assert worst < 0.05
    report(4, f"delta_E ratios track the universal profile; worst rel dev {worst:.4f}; "
              "least shift at eta = 0.8 of the k/40 scan")


def test_criterion_05_scaling_split():
    eta = 0.5
    slopes = {}
    for idx, Ls in ((1, (0.005, 0.01, 0.02, 0.04)), (0, (0.04, 0.08, 0.16, 0.32))):
        vals = []
        for L in Ls:
            dx_fine = eta * L / 40
            if idx == 1:
                state, _ = excited_state_resampled(
                    lambda g: harmonic_potential(g, CONSTS), dx_fine
                )
            else:
                state = ground_state_resampled(dx_fine)
            d = first_order_shift_numeric(
                state, NonlinearParams.for_length(L, eta, CONSTS), CONSTS
            ).delta_E
            vals.append(abs(d))
        slopes[idx] = float(np.polyfit(np.log(Ls), np.log(vals), 1)[0])
    assert abs(slopes[1] - 1.0) <= 0.1
    assert abs(slopes[0] - 2.0) <= 0.1
    report(5, f"log-log |delta_E| vs L slopes: excited {slopes[1]:.3f}, ground {slopes[0]:.3f}")


def test_criterion_06_nodeless_integral_matches_closed_form():
    dx = 0.005
    n_half = int(round(3.5 / dx))
    g = Grid(x_min=-n_half * dx, dx=dx, n_points=2 * n_half + 1, boundary="dirichlet")
    p = gaussian_density(g, sigma=1.0, center=0.0)
    vals = {e: nodeless_shift_integral(p, e, 0.1, CONSTS) for e in (0.2, 0.5, 0.8)}
    shape = lambda e: e**2 * (1 - e) * (1 - 3 * e)
    worst = 0.0
    for e1, e2 in ((0.2, 0.5), (0.2, 0.8), (0.5, 0.8)):
        worst = max(worst, abs((vals[e1] / vals[e2]) / (shape(e1) / shape(e2)) - 1.0))
    assert worst < 0.01
    report(6, f"calibrated integral tracks eta^2(1-eta)(1-3eta); worst ratio dev {worst:.5f}")


def test_criterion_07_linear_limit():
    sigma = 1.0
    g = periodic_grid(width=10 * sigma, n=2000)
    p = gaussian_density(g, sigma=sigma)
    window = np.abs(g.x) <= 4 * sigma
    Ls = (0.64, 0.32, 0.16, 0.08, 0.04)
    max_f = []
    for L in Ls:
        f = nonlinear_term_F(p, NonlinearParams.for_length(L, 0.5, CONSTS), CONSTS)
        max_f.append(np.abs(f.values[window]).max())
    slope = float(np.polyfit(np.log(Ls), np.log(max_f), 1)[0])
    assert slope >= 0.9
    report(7, f"max|F| falls with slope {slope:.3f} over four L-halvings")


def test_criterion_08_norm_conservation():
    drifts = {}
    # plane wave: shift at the grid scale keeps the neutrally-stable density
    # modes k = 2 pi j / (eta L) outside the resolved band
    g = periodic_grid(width=10.0, n=1000)
    psi, _ = plane_wave(g, mode=4)
    params = NonlinearParams.for_length(0.02, 0.5, CONSTS)
    rep = evolve(psi, zero_potential(g), params, CONSTS, 0.5 * dt_max(g, CONSTS), 10_000)
    drifts["plane"] = rep.norm_drift.max()
    # gaussian
    psi_g = normalize(
        Wavefunction(g, np.exp(-((g.x) ** 2) / 2.0).astype(np.complex128))
    )
    params_g = NonlinearParams.for_length(0.1, 0.5, CONSTS)
    rep_g = evolve(psi_g, zero_potential(g), params_g, CONSTS, 0.5 * dt_max(g, CONSTS), 10_000)
    drifts["gauss"] = rep_g.norm_drift.max()
    assert drifts["plane"] < 1e-8
    assert drifts["gauss"] < 1e-8
    report(8, f"1e4-step norm drift: plane {drifts['plane']:.2e}, gaussian {drifts['gauss']:.2e}")


def exact_setup(steps, periods, kappa=1.0, eta=0.8, L=0.1):
    params = NonlinearParams.for_length(L, eta, CONSTS)
    dx = eta * L / steps
    g = Grid(x_min=0.0, dx=dx, n_points=periods * steps + 1, boundary="dirichlet")
    spec = ExactSolutionSpec(kappa=kappa, params=params)
    return params, g, spec


def test_criterion_09_exact_solution_residual():
    params, g, spec = exact_setup(steps=128, periods=144)
    assert g.n_points >= 16384
    psi = build_exact_state(spec, g)
    e = exact_energy(1.0, params, CONSTS)
    assert abs(e - E_ANCHOR) < 1e-8
    res, frac = nonlinear_residual(psi, e, params, CONSTS, 3 * g.dx)
    assert res < 1e-6
    report(9, f"E = {e:.9f} (anchor {E_ANCHOR:.9f}); residual {res:.2e} "
              f"off 3dx nodes (excluded fraction {frac:.3f})")


def test_criterion_10_degeneracy():
    params, g, _ = exact_setup(steps=64, periods=150)
    e1, e2, both = degeneracy_check(
        ((1, 1.0),), ((1, 1.0), (2, 0.5)), 1.0, params, CONSTS, grid=g, residual_tol=1e-6
    )
    assert both
    assert abs(e1 - e2) < 1e-10
    report(10, f"two period-commensurate profiles pass residual < 1e-6 with E1 - E2 = {e1 - e2:.1e}")


def test_criterion_11_energy_bounds():
    params = NonlinearParams.for_length(0.1, 0.8, CONSTS)
    lower, upper = exact_energy_bounds(params, CONSTS)
    for kappa in (0.01, 0.1, 1.0, 10.0):
        e = exact_energy(kappa, params, CONSTS)
        assert lower < e < upper == 0.0
    lowers = [
        exact_energy_bounds(NonlinearParams.for_length(0.1, eta, CONSTS), CONSTS)[0]
        for eta in (0.9, 0.99, 0.999)
    ]
    assert lowers[0] > lowers[1] > lowers[2]
    report(11, f"E(kappa) inside ({lower:.2f}, 0); lower bound falls to {lowers[-1]:.2e} as eta -> 1")


def test_criterion_12_eigenstate_phase_evolution():
    params, g, spec = exact_setup(steps=16, periods=144)
    psi0 = build_exact_state(spec, g)
    e = exact_energy(1.0, params, CONSTS)
    # pin the nodes: the discrete quantum potential is singular there
    mask = np.zeros(g.n_points, dtype=bool)
    mask[alpha_node_indices(spec, g)] = True
    V = Potential(g, np.zeros(g.n_points), singular_mask=mask)
    dt = dt_max(g, CONSTS)
    n_steps = int(round(1.0 / dt))
    rep = evolve(psi0, V, params, CONSTS, dt, n_steps, policy="extrap")
    T = n_steps * dt
    ref = psi0.values * np.exp(-1j * e * T / CONSTS.hbar)
    err = np.abs(rep.final_state.values - ref)
    steps = params.shift_steps(g)
    excl = np.zeros(g.n_points, dtype=bool)
    for j in np.where(mask)[0]:
        excl[max(0, j - 3): j + 4] = True
    excl[:steps] = True
    excl[-steps:] = True
    max_err = err[~excl].max() / np.abs(psi0.values).max()
    assert max_err < 1e-5
    report(12, f"T = {T:.6f} evolution matches exp(-iET) psi0 to {max_err:.2e} off nodes")


def test_criterion_13_functional_derivative_oracle():
    g = periodic_grid(width=2 * np.pi, n=384, x_min=0.0)
    p = skewed_density(g)
    steps = 48
    L = steps * g.dx
    cal_E = CONSTS.hbar**2 / (4 * CONSTS.mass * L**2)
    deriv = functional_derivative(lambda d: cal_E * kl_shifted_functional(L)(d), p)
    v = p.values
    bracket = cal_E * (np.log(v / np.roll(v, -steps)) + 1.0 - np.roll(v, steps) / v)
    rel = np.abs(deriv - bracket).max() / np.abs(bracket).max()
    assert rel < 1e-4
    # limit law on a skewed (no accidental symmetry) density
    g2 = periodic_grid(width=8 * np.pi, n=4096, x_min=0.0)
    p2 = skewed_density(g2)
    fisher = fisher_information(p2).value
    errs = []
    for st in (64, 32, 16):
        Lv = st * g2.dx
        errs.append(abs(2 * kl_divergence_shifted(p2, Lv).value / Lv**2 - fisher) / fisher)
    assert errs[1] <= 0.65 * errs[0]
    assert errs[2] <= 0.65 * errs[1]
    report(13, f"derivative matches the log bracket to {rel:.2e}; "
               f"2 I/L^2 -> Fisher errors {errs[0]:.2e} -> {errs[1]:.2e} -> {errs[2]:.2e}")


def test_criterion_14_cotangent_cross_check():
    eta, L, kappa = 0.8, 2.0, 1.0
    params = NonlinearParams.for_length(L, eta, CONSTS)
    steps = 5000
    dx = eta * L / steps
    g = Grid(x_min=0.0, dx=dx, n_points=int(round(12.0 / dx)) + 1, boundary="dirichlet")
    spec = ExactSolutionSpec(kappa=kappa, params=params)
    psi = build_exact_state(spec, g)
    e = exact_energy(kappa, params, CONSTS)
    cot = cotangent_params(kappa, params, CONSTS)
    res = linear_residual_cotangent(psi, e, cot, CONSTS, 3 * g.dx)
    assert res < 1e-5
    V = cotangent_potential(cot, g, 0.25 * g.dx)
    nodes = alpha_node_indices(spec, g)
    assert np.array_equal(np.where(V.singular_mask)[0], nodes)
    report(14, f"linear residual {res:.2e} with (A, B, beta) = "
               f"({cot.A:.4f}, {cot.B:.4f}, {cot.beta:.4f}); singular set == node set")


def test_criterion_15_determinism(tmp_path):
    text = """
[run]
format_version = 1
command = shift-sweep

[grid]
x_min = -6.0
dx = 0.0015
n_points = 8001
boundary = dirichlet

[nonlinearity]
eta = 0.2, 0.4, 0.6
L = 0.06, 0.12

[potential]
kind = harmonic

[spectrum]
n_states = 2
"""
    cfg = parse_config(text)
    m1 = run_sweep(cfg, tmp_path / "a")
    m2 = run_sweep(cfg, tmp_path / "b", threads=4)
    b1 = (tmp_path / "a" / "shift_result.csv").read_bytes()
    b2 = (tmp_path / "b" / "shift_result.csv").read_bytes()
    assert b1 == b2
    assert m1.input_hash == m2.input_hash
    report(15, f"repeated sweep: {len(b1)} CSV bytes identical, hash {m1.input_hash[:12]}...")
