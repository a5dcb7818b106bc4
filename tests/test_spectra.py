import numpy as np
import pytest

from infonls import (
    Density,
    Grid,
    NonlinearParams,
    Wavefunction,
    characteristic_length,
    first_order_shift_numeric,
    harmonic_potential,
    minimize_over_eta,
    node_shift_eta_profile,
    nodeless_shift_integral,
    normalize,
    resample_state,
    sho_ground_shift_closed,
    solve_linear_spectrum,
    zero_potential,
)
from infonls.errors import (
    NodeDetectedError,
    NonFiniteObjectiveError,
    ParameterDomainError,
)
from infonls.grid import integrate
from conftest import gaussian_density, periodic_grid

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

    def test_zero_states_rejected(self, consts):
        g = Grid(x_min=-5.0, dx=10.0 / 65, n_points=64, boundary="dirichlet")
        with pytest.raises(ValueError, match="at least 1"):
            solve_linear_spectrum(harmonic_potential(g, consts), g, consts, 0)


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
        assert res.method == "numeric_expectation"

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
