import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal

from infonls import spectra
from infonls import (
    Density,
    Grid,
    NonlinearParams,
    PhysConstants,
    Wavefunction,
    characteristic_length,
    density,
    first_order_shift_numeric,
    harmonic_potential,
    minimize_over_eta,
    node_shift_eta_profile,
    nodeless_shift_integral,
    nonlinear_term_F,
    normalize,
    quartic_potential,
    resample_state,
    rhs_apply,
    sho_ground_shift_closed,
    solve_linear_spectrum,
    zero_potential,
)
from infonls.errors import (
    NodeDetectedError,
    NonFiniteObjectiveError,
    ParameterDomainError,
    ZeroNormError,
)
from infonls.config import parse_config
from infonls.grid import _floor_raw, integrate
from conftest import gaussian_density, periodic_grid, traced_peak

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

ETA_NODE_MIN = (7 + np.sqrt(33)) / 16
ETA_GAUSS_MIN = (3 + np.sqrt(3)) / 6


def count_interior_sign_changes(values, tol_rel=1e-8):
    v = values.real
    big = np.abs(v) > tol_rel * np.abs(v).max()
    signs = np.sign(v[big])
    return int(np.sum(signs[1:] * signs[:-1] < 0))


class TestLinearSpectrum:
    def test_sho_levels(self, consts):
        n = 8192
        g = Grid(x_min=-12.0, dx=24.0 / (n + 1), n_points=n, boundary="dirichlet")
        sol = solve_linear_spectrum(harmonic_potential(g, consts), g, consts, 11)
        for j in range(11):
            assert sol.energies[j] == pytest.approx(j + 0.5, abs=1e-4)

    def test_box_levels(self, consts):
        n = 2048
        W = 3.0
        g = Grid(x_min=0.0, dx=W / (n + 1), n_points=n, boundary="dirichlet")
        sol = solve_linear_spectrum(zero_potential(g), g, consts, 6)
        for j in range(6):
            exact = np.pi**2 * (j + 1) ** 2 / (2.0 * W**2)
            assert sol.energies[j] == pytest.approx(exact, rel=1e-3)

    def test_ground_state_nodeless(self, consts):
        n = 2048
        g = Grid(x_min=-10.0, dx=20.0 / (n + 1), n_points=n, boundary="dirichlet")
        sol = solve_linear_spectrum(harmonic_potential(g, consts), g, consts, 4)
        assert count_interior_sign_changes(sol.states[0].values) == 0

    def test_node_counts(self, consts):
        n = 2048
        g = Grid(x_min=-10.0, dx=20.0 / (n + 1), n_points=n, boundary="dirichlet")
        sol = solve_linear_spectrum(harmonic_potential(g, consts), g, consts, 5)
        for j, state in enumerate(sol.states):
            assert count_interior_sign_changes(state.values) == j

    def test_orthogonality(self, consts):
        n = 2048
        g = Grid(x_min=-10.0, dx=20.0 / (n + 1), n_points=n, boundary="dirichlet")
        sol = solve_linear_spectrum(harmonic_potential(g, consts), g, consts, 5)
        for i in range(5):
            for j in range(i + 1, 5):
                overlap = integrate(
                    (np.conj(sol.states[i].values) * sol.states[j].values).real, g
                )
                assert abs(overlap) < 1e-8

    @pytest.mark.parametrize("well", ["harmonic", "quartic"])
    @pytest.mark.parametrize("n", [400, 1000, 4096])
    def test_eigenpairs_satisfy_the_apply(self, consts, well, n):
        # the eigensolver's tridiagonal and the right side's H are one
        # operator: i hbar rhs_apply(psi) = E psi for the 8 lowest eigenpairs,
        # to rounding in units of H's norm bound 4t + max|V| (measured at
        # most 1.4e-14 of it, on the 4096-point harmonic well)
        g = Grid(x_min=-8.0, dx=16.0 / (n + 1), n_points=n, boundary="dirichlet")
        V = harmonic_potential(g, consts) if well == "harmonic" else quartic_potential(g)
        sol = solve_linear_spectrum(V, g, consts, 8)
        t = consts.hbar**2 / (2.0 * consts.mass * g.dx**2)
        scale = 4.0 * t + np.abs(V.values).max()
        for e, psi in zip(sol.energies, sol.states):
            h_psi = 1j * consts.hbar * rhs_apply(psi, V, None, consts).values
            defect = np.abs(h_psi - e * psi.values).max()
            assert defect <= 1e-12 * scale * np.abs(psi.values).max()

    def test_zero_states_rejected(self, consts):
        g = Grid(x_min=-5.0, dx=10.0 / 65, n_points=64, boundary="dirichlet")
        with pytest.raises(ValueError, match="at least 1"):
            solve_linear_spectrum(harmonic_potential(g, consts), g, consts, 0)

    def test_periodic_ring_rejected(self, consts):
        # the tridiagonal is the Dirichlet box: on a ring of width 3 it would
        # return 0.5478, 2.1911, 4.9300, 8.7644 for the ring's 0, 2.193,
        # 2.193, 8.773
        n = 2048
        g = Grid(x_min=0.0, dx=3.0 / n, n_points=n, boundary="periodic")
        with pytest.raises(ValueError, match="dirichlet"):
            solve_linear_spectrum(zero_potential(g), g, consts, 4)

    def test_potential_on_another_grid_rejected(self, consts):
        g = Grid(x_min=-5.0, dx=10.0 / 65, n_points=64, boundary="dirichlet")
        shifted = Grid(x_min=-4.0, dx=g.dx, n_points=64, boundary="dirichlet")
        with pytest.raises(ValueError, match="grid"):
            solve_linear_spectrum(harmonic_potential(shifted, consts), g, consts, 2)


class TestClosedFormProfiles:
    def test_node_profile_zeros_machine(self):
        assert node_shift_eta_profile(0.0) == 0.0
        assert abs(node_shift_eta_profile(0.25)) < 1e-15
        assert abs(node_shift_eta_profile(1.0)) < 1e-15

    def test_node_profile_half(self):
        assert node_shift_eta_profile(0.5) == pytest.approx(-0.5, abs=1e-15)

    def test_node_profile_argmin(self):
        eta_star, value = minimize_over_eta(node_shift_eta_profile)
        assert eta_star == pytest.approx(ETA_NODE_MIN, abs=1e-6)
        assert value < 0

    def test_node_profile_domain(self):
        with pytest.raises(ParameterDomainError):
            node_shift_eta_profile(1.2)

    def test_gaussian_profile_zeros(self):
        assert sho_ground_shift_closed(0.0, 0.1) == 0.0
        assert abs(sho_ground_shift_closed(1.0 / 3.0, 0.1)) < 1e-16
        assert abs(sho_ground_shift_closed(1.0, 0.1)) < 1e-16

    def test_gaussian_profile_value(self):
        assert sho_ground_shift_closed(0.5, 0.1) == pytest.approx(-1.5625e-4, rel=1e-12)

    def test_gaussian_profile_argmin(self):
        eta_star, value = minimize_over_eta(lambda e: sho_ground_shift_closed(e, 0.1))
        assert eta_star == pytest.approx(ETA_GAUSS_MIN, abs=1e-6)
        assert value < 0

    def test_minimize_quadratic_sanity(self):
        eta_star, _ = minimize_over_eta(lambda e: (e - 0.3) ** 2)
        assert eta_star == pytest.approx(0.3, abs=1e-8)

    def test_minimize_nonfinite_objective(self):
        with pytest.raises(NonFiniteObjectiveError):
            minimize_over_eta(lambda e: float("nan"))

    def test_minimize_nonfinite_last_value(self):
        # NaN only within 1e-11 of the minimizer: the contraction ends on it,
        # and the value returned at eta_star is NaN too
        with pytest.raises(NonFiniteObjectiveError):
            minimize_over_eta(lambda e: float("nan") if abs(e - 0.5) < 1e-11 else (e - 0.5) ** 2)


def sho_excited_resampled(consts, dx_fine, window_rel=3e-11):
    """Coarse SHO solve, quintic resample of state n=1 onto the fine spacing.

    The window keeps min(p) two decades above the density floor so that the
    floor-crossing zone never enters the shift integrand.
    """
    n_c = 8192
    g_c = Grid(x_min=-10.0, dx=20.0 / (n_c + 1), n_points=n_c, boundary="dirichlet")
    sol = solve_linear_spectrum(harmonic_potential(g_c, consts), g_c, consts, 2)
    p1 = np.abs(sol.states[1].values) ** 2
    ok = np.where(p1 / p1.max() >= window_rel)[0]
    half = min(-g_c.x[ok[0]], g_c.x[ok[-1]])
    n_half = int(np.ceil(half / dx_fine))
    fine = Grid(
        x_min=-n_half * dx_fine,
        dx=dx_fine,
        n_points=2 * n_half + 1,
        boundary="dirichlet",
    )
    return resample_state(sol.states[1], fine)


class TestFirstOrderShift:
    def test_constant_density_zero(self, consts):
        g = periodic_grid(width=4.0, n=256)
        psi = normalize(Wavefunction(g, np.ones(256, dtype=complex)))
        params = NonlinearParams.for_length(g.dx / 0.5, 0.5, consts)
        res = first_order_shift_numeric(psi, params, consts)
        assert res.delta_E == pytest.approx(0.0, abs=1e-12)

    def test_sho_excited_sign_flip(self, consts):
        # positive shift at small eta, negative at larger eta
        L = 1e-3
        state = sho_excited_resampled(consts, dx_fine=0.1 * L / 8)
        d_small = first_order_shift_numeric(
            state, NonlinearParams.for_length(L, 0.1, consts), consts
        ).delta_E
        d_large = first_order_shift_numeric(
            state, NonlinearParams.for_length(L, 0.6, consts), consts
        ).delta_E
        assert d_small > 0
        assert d_large < 0

    def test_sho_excited_eta_ratios(self, consts):
        L = 1e-3
        state = sho_excited_resampled(consts, dx_fine=0.1 * L / 8)
        shifts = {
            eta: first_order_shift_numeric(
                state, NonlinearParams.for_length(L, eta, consts), consts
            ).delta_E
            for eta in (0.1, 0.4, 0.6)
        }
        for e1, e2 in ((0.1, 0.4), (0.1, 0.6), (0.4, 0.6)):
            num = shifts[e1] / shifts[e2]
            ref = node_shift_eta_profile(e1) / node_shift_eta_profile(e2)
            assert num == pytest.approx(ref, rel=0.05)

    def test_allocation_budget(self, consts):
        # a node state at 131073 points, its node below the floor: the clamped
        # density, the ratios and their log1p, 3.03 real arrays of N against
        # 4.0 when the bracket was evaluated
        n = 131073
        g = Grid(x_min=-5.0, dx=10.0 / (n - 1), n_points=n, boundary="dirichlet")
        psi = normalize(Wavefunction(g, (g.x * np.exp(-g.x**2 / 2)).astype(complex)))
        params = NonlinearParams.for_length(800 * g.dx / 0.6, 0.6, consts)
        assert first_order_shift_numeric(psi, params, consts).floor_points == 1
        peak = traced_peak(lambda: first_order_shift_numeric(psi, params, consts))
        assert peak < 3.5 * 8 * n


class TestFloorPoints:
    """ShiftResult.floor_points counts the points whose density is below the
    floor, where the bracket sees the floor in place of p."""

    @staticmethod
    def _floor_points(psi, eta, steps, consts):
        params = NonlinearParams.for_length(steps * psi.grid.dx / eta, eta, consts)
        return first_order_shift_numeric(psi, params, consts).floor_points

    @pytest.mark.parametrize("n", (601, 2401))
    @pytest.mark.parametrize("node", (False, True))
    def test_gaussian_and_node(self, consts, node, n):
        # the dirichlet states of TestShiftQuadrature; the node state has a
        # grid point, an exact zero, at x = 0
        g = Grid(x_min=-3.0, dx=6.0 / (n - 1), n_points=n, boundary="dirichlet")
        vals = np.exp(-g.x**2 / 2) * (g.x if node else 1.0)
        psi = normalize(Wavefunction(g, vals.astype(complex)))
        count = self._floor_points(psi, 0.6, 5, consts)
        assert count >= 1 if node else count == 0

    @pytest.mark.parametrize("n", (1601, 4001))
    def test_resampled_node_at_eta_one(self, consts, n):
        # harmonic state 1 of scripts/array_digests.py at eta = 1 and 7 steps,
        # whose shift depends on the floor next to its node
        coarse = Grid(x_min=-8.0, dx=16.0 / 401, n_points=400, boundary="dirichlet")
        psi = solve_linear_spectrum(harmonic_potential(coarse, consts), coarse, consts, 2).states[1]
        fine = Grid(x_min=-6.0, dx=12.0 / (n - 1), n_points=n, boundary="dirichlet")
        assert self._floor_points(resample_state(psi, fine), 1.0, 7, consts) > 0


def longdouble_shift(psi, params, consts, eps):
    """delta_E in np.longdouble with no floor: the literal bracket of the raw
    density and its shifts, whose off-grid samples are the 'floor' policy's
    fill eps, and the first-difference quantum-potential sum."""
    ld = np.longdouble
    re, im = psi.values.real.astype(ld), psi.values.imag.astype(ld)
    p = re * re + im * im
    assert (p > 0).all()
    steps = params.shift_steps(psi.grid)
    fill = np.full(steps, ld(eps))
    pp = np.concatenate([p[steps:], fill])
    pm = np.concatenate([fill, p[:-steps]])
    e = ld(params.eta)
    d_plus = (1 - e) * p + e * pp
    d_minus = (1 - e) * pm + e * p
    bracket = np.log(p) - np.log(d_plus) + 1 - (1 - e) * p / d_plus - e * pm / d_minus
    dx = ld(psi.grid.dx)
    kl = np.sum(p * bracket) * ld(params.cal_E) / e**4 * dx
    s = np.sqrt(p)
    dsq = np.sum(np.diff(s) ** 2) + s[0] ** 2 + s[-1] ** 2
    return kl - ld(consts.hbar) ** 2 / (2 * ld(consts.mass)) * dsq / dx


class TestShiftAccuracy:
    def test_shift_sweep_config_matches_longdouble(self, consts):
        # both harmonic states of configs/shift_sweep.cfg at all six (eta, L):
        # the deep tails sit below the floor, where the bracket sees clamped
        # densities, yet delta_E keeps the unfloored value to 1e-6
        cfg = parse_config((CONFIG_DIR / "shift_sweep.cfg").read_text())
        g = Grid(x_min=cfg.x_min, dx=cfg.dx, n_points=cfg.n_points, boundary=cfg.boundary)
        V = harmonic_potential(g, consts, cfg.omega)
        states = solve_linear_spectrum(V, g, consts, cfg.n_states).states
        assert len(states) == 2
        for psi in states:
            eps = _floor_raw(density(psi).values)
            for eta in cfg.eta_values:
                for L in cfg.L_values:
                    params = NonlinearParams.for_length(L, eta, consts)
                    got = first_order_shift_numeric(psi, params, consts).delta_E
                    ref = longdouble_shift(psi, params, consts, eps)
                    assert abs(float(got / ref) - 1.0) < 1e-6, (eta, L)


class TestShiftQuadrature:
    """delta_E sums p Q in first-difference form, which is integrate(p Q) by
    summation by parts on both boundaries, so integrate(p F) is delta_E."""

    def _gap(self, psi, params, consts):
        p = density(psi)
        pF = p.values * nonlinear_term_F(p, params, consts).values
        gap = integrate(pF, psi.grid) - first_order_shift_numeric(psi, params, consts).delta_E
        return gap, integrate(np.abs(pF), psi.grid)

    @pytest.mark.parametrize("n", (601, 2401))
    @pytest.mark.parametrize("node", (False, True))
    @pytest.mark.parametrize("boundary", ("dirichlet", "periodic"))
    def test_gap_is_rounding(self, consts, boundary, node, n):
        # the window ends in the tails, so halving the two end weights would
        # move integrate(p F) by 3.4e-3 to 0.25 on the dirichlet grids
        g = Grid(x_min=-3.0, dx=6.0 / (n - 1), n_points=n, boundary=boundary)
        vals = np.exp(-g.x**2 / 2) * (g.x if node else 1.0)
        psi = normalize(Wavefunction(g, vals.astype(complex)))
        params = NonlinearParams.for_length(5 * g.dx / 0.6, 0.6, consts)
        gap, scale = self._gap(psi, params, consts)
        assert abs(gap) <= 1e-12 * scale

    @pytest.mark.parametrize("n", (256, 1024))
    def test_periodic_gap_is_rounding(self, consts, n):
        g = Grid(x_min=0.0, dx=2 * np.pi / n, n_points=n, boundary="periodic")
        amp = np.sqrt(1.0 + 0.5 * np.sin(g.x) + 0.2 * np.cos(2 * g.x)) * np.exp(1j * g.x)
        psi = normalize(Wavefunction(g, amp))
        params = NonlinearParams.for_length(6 * g.dx / 0.4, 0.4, consts)
        gap, scale = self._gap(psi, params, consts)
        assert abs(gap) <= 1e-12 * scale


class TestParityOddShift:
    """The odd half (delta_E[p] - delta_E[Rp]) / 2, with Rp(x) = p(-x), of an
    asymmetric periodic density is eta (3 - 4 eta)/48 * L * integral p'^3/p^2
    (hbar = m = 1), a term the nodeless law omits."""

    N = 4096
    STEPS = 16  # eta L in grid steps

    @pytest.fixture(scope="class")
    def case(self):
        consts = PhysConstants()
        g = Grid(x_min=0.0, dx=2 * np.pi / self.N, n_points=self.N, boundary="periodic")
        a = np.exp(np.cos(g.x) + 0.5 * np.sin(2 * g.x))
        z = integrate(a, g)
        p, dp = a / z, a * (np.cos(2 * g.x) - np.sin(g.x)) / z  # dp from the closed form
        rp = np.roll(p[::-1], 1)
        states = [normalize(Wavefunction(g, np.sqrt(q))) for q in (p, rp)]
        return consts, g, states, integrate(dp**3 / p**2, g)

    def _odd_half(self, case, eta):
        consts, g, (psi, rpsi), _ = case
        params = NonlinearParams.for_length(self.STEPS * g.dx / eta, eta, consts)
        shift = lambda s: first_order_shift_numeric(s, params, consts).delta_E
        return 0.5 * (shift(psi) - shift(rpsi)), params.L

    @pytest.mark.parametrize("eta", (0.25, 0.5, 0.6, 0.9))
    def test_odd_half_matches_profile(self, case, eta):
        odd, L = self._odd_half(case, eta)
        # measured: within 3.4e-4 relative
        assert odd == pytest.approx(eta * (3 - 4 * eta) / 48 * L * case[3], rel=2e-3)

    def test_odd_half_vanishes_at_three_quarters(self, case):
        # measured: 1.5e-8 against 3.2e-4 at eta = 0.5
        odd, _ = self._odd_half(case, 0.75)
        assert abs(odd) < 1e-3 * abs(self._odd_half(case, 0.5)[0])


def _reuse_states():
    g = Grid(x_min=-4.0, dx=8.0 / 511, n_points=512, boundary="dirichlet")
    node = normalize(Wavefunction(g, (g.x * np.exp(-g.x**2 / 2)).astype(complex)))
    g = Grid(x_min=0.0, dx=2 * np.pi / 384, n_points=384, boundary="periodic")
    amp = np.sqrt(1.0 + 0.5 * np.sin(g.x) + 0.2 * np.cos(2 * g.x)) * np.exp(2j * g.x)
    return {"node": node, "periodic": normalize(Wavefunction(g, amp))}


_REUSE_CONSTS = PhysConstants()
_REUSE_STATES = _reuse_states()
_REUSE_POINTS = [
    (eta, steps, pol)
    for eta in (0.3, 0.8, 1.0)
    for steps in (1, 4, 9)
    for pol in ("floor", "extrap", "periodic")
]


def _shift_hex(psi, eta, steps, pol, consts):
    params = NonlinearParams.for_length(steps * psi.grid.dx / eta, eta, consts)
    return first_order_shift_numeric(psi, params, consts, pol).delta_E.hex()


class TestPerStateReuse:
    """What a state's first call computes and later calls reuse changes no
    result bit."""

    @settings(max_examples=20, deadline=None)
    @given(name=st.sampled_from(sorted(_REUSE_STATES)), order=st.permutations(_REUSE_POINTS))
    def test_warm_shift_equals_fresh_state(self, name, order):
        warm = _REUSE_STATES[name]  # shared by every example, so warm after the first
        for eta, steps, pol in order:
            fresh = Wavefunction(warm.grid, warm.values)
            assert (_shift_hex(warm, eta, steps, pol, _REUSE_CONSTS)
                    == _shift_hex(fresh, eta, steps, pol, _REUSE_CONSTS))

    def test_resample_second_grid_equals_cold(self, consts):
        coarse = Grid(x_min=-8.0, dx=16.0 / 401, n_points=400, boundary="dirichlet")
        psi = solve_linear_spectrum(harmonic_potential(coarse, consts), coarse, consts, 2).states[1]
        a = Grid(x_min=-6.0, dx=12.0 / 1600, n_points=1601, boundary="dirichlet")
        b = Grid(x_min=-5.0, dx=10.0 / 4000, n_points=4001, boundary="dirichlet")
        first = resample_state(psi, a)
        warm = resample_state(psi, b)
        cold = resample_state(Wavefunction(coarse, psi.values), b)
        assert warm.values.tobytes() == cold.values.tobytes()
        assert resample_state(psi, a).values.tobytes() == first.values.tobytes()

    def test_cached_density_read_only(self, consts):
        psi = Wavefunction(_REUSE_STATES["node"].grid, _REUSE_STATES["node"].values)
        _shift_hex(psi, 0.8, 4, "floor", consts)
        cached = [v for part in psi._derived.values() for v in part
                  if isinstance(v, np.ndarray)]
        assert len(cached) == 1
        np.testing.assert_array_equal(cached[0], psi.values.real**2 + psi.values.imag**2)
        with pytest.raises(ValueError, match="read-only"):
            cached[0][0] = 1.0

    def test_concurrent_first_use(self, consts):
        warm = _REUSE_STATES["periodic"]
        expected = [_shift_hex(Wavefunction(warm.grid, warm.values), *pt, consts)
                     for pt in _REUSE_POINTS]
        shared = Wavefunction(warm.grid, warm.values)
        results = {}

        def work(i):
            results[i] = [_shift_hex(shared, *pt, consts) for pt in _REUSE_POINTS]

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(old)
        assert results == {i: expected for i in range(6)}


class TestRealStatesBuiltOnce:
    """Eigenstates and resampled states are normalized as real arrays and
    converted to complex once, with the bits that normalize gives on the
    complex array."""

    coarse = Grid(x_min=-8.0, dx=16.0 / 401, n_points=400, boundary="dirichlet")

    @pytest.mark.parametrize("order", ["F", "C"])  # C: every column is strided
    def test_eigenstates_equal_normalize(self, consts, monkeypatch, order):
        returned = []

        def eigh(*args, **kwargs):
            energies, vecs = eigh_tridiagonal(*args, **kwargs)
            vecs = np.asarray(vecs, order=order)
            returned.append(vecs.copy())
            return energies, vecs

        monkeypatch.setattr(spectra, "eigh_tridiagonal", eigh)
        V = harmonic_potential(self.coarse, consts)
        states = solve_linear_spectrum(V, self.coarse, consts, 3).states
        for j, psi in enumerate(states):
            expected = normalize(Wavefunction(self.coarse, returned[0][:, j]))
            assert psi.values.tobytes() == expected.values.tobytes()

    def test_resampled_state_equals_normalize(self, consts):
        V = harmonic_potential(self.coarse, consts)
        psi = solve_linear_spectrum(V, self.coarse, consts, 2).states[1]
        fine = Grid(x_min=-6.0, dx=12.0 / 4000, n_points=4001, boundary="dirichlet")
        expected = normalize(Wavefunction(fine, spectra._quintic_spline(psi)(fine.x)))
        assert resample_state(psi, fine).values.tobytes() == expected.values.tobytes()

    def test_resample_allocation_budget(self, consts):
        # onto 131073 points: 3.3 real arrays, against 6.3 when the samples
        # were converted to complex before they were normalized
        V = harmonic_potential(self.coarse, consts)
        psi = solve_linear_spectrum(V, self.coarse, consts, 1).states[0]
        fine = Grid(x_min=-6.0, dx=12.0 / 131072, n_points=131073, boundary="dirichlet")
        peak = traced_peak(lambda: resample_state(psi, fine))
        assert peak < 4.5 * 8 * fine.n_points


class TestNodelessIntegral:
    def _gaussian_on_window(self, consts, a=1.0, half=3.5, dx=0.005):
        n_half = int(round(half / dx))
        g = Grid(x_min=-n_half * dx, dx=dx, n_points=2 * n_half + 1, boundary="dirichlet")
        return gaussian_density(g, sigma=a, center=0.0)

    def test_uniform_density_zero(self, consts):
        g = periodic_grid(width=4.0, n=256)
        p = Density(g, np.full(256, 0.25))
        assert nodeless_shift_integral(p, 0.5, 0.1, consts) == 0.0

    def test_gaussian_matches_closed_form(self, consts):
        # calibrated integral reproduces the closed-form profile absolutely
        p = self._gaussian_on_window(consts)
        for eta in (0.2, 0.5, 0.8):
            val = nodeless_shift_integral(p, eta, 0.1, consts)
            closed = sho_ground_shift_closed(eta, 0.1)  # hbar*omega = 1 here
            assert val == pytest.approx(closed, rel=5e-3)

    def test_eta_shape_ratios(self, consts):
        p = self._gaussian_on_window(consts)
        vals = {e: nodeless_shift_integral(p, e, 0.1, consts) for e in (0.2, 0.5, 0.8)}
        shape = lambda e: e**2 * (1 - e) * (1 - 3 * e)
        for e1, e2 in ((0.2, 0.5), (0.2, 0.8), (0.5, 0.8)):
            assert vals[e1] / vals[e2] == pytest.approx(shape(e1) / shape(e2), rel=0.01)

    def test_L_squared_scaling_exact(self, consts):
        p = self._gaussian_on_window(consts)
        v1 = nodeless_shift_integral(p, 0.5, 0.1, consts)
        v2 = nodeless_shift_integral(p, 0.5, 0.2, consts)
        assert v2 == pytest.approx(4.0 * v1, rel=1e-12)

    def test_node_detected(self, consts):
        g = periodic_grid(width=12.0, n=1024)
        p = gaussian_density(g, sigma=1.0)  # tails below 1e-6 of the peak
        with pytest.raises(NodeDetectedError):
            nodeless_shift_integral(p, 0.5, 0.1, consts)


class TestCharacteristicLength:
    def test_sho_ground(self, consts):
        n = 4096
        g = Grid(x_min=-10.0, dx=20.0 / (n + 1), n_points=n, boundary="dirichlet")
        sol = solve_linear_spectrum(harmonic_potential(g, consts), g, consts, 1)
        assert characteristic_length(sol.states[0]) == pytest.approx(1.0, rel=1e-4)

    @pytest.mark.parametrize("amplitude", [0.0, 1e-156])
    def test_zero_state_refused(self, amplitude):
        # by normalize's rule, a squared norm below 1e-300; the division
        # used to return nan for an all-zero state
        g = Grid(x_min=0.0, dx=0.01, n_points=256, boundary="dirichlet")
        psi = Wavefunction(g, np.full(g.n_points, amplitude, dtype=complex))
        with pytest.raises(ZeroNormError, match="squared norm"):
            characteristic_length(psi)
        with pytest.raises(ZeroNormError, match="squared norm"):
            normalize(psi)
