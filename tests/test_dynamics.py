import warnings

import numpy as np
import pytest

from infonls import (
    Grid,
    NonlinearParams,
    Potential,
    Wavefunction,
    density,
    dt_max,
    evolve,
    harmonic_potential,
    integrate,
    laplacian,
    nonlinear_term_F,
    normalize,
    rhs_apply,
    rk4_step,
    zero_potential,
)
from infonls.dynamics import _make_rhs, _rk4_raw
from infonls.errors import NonFiniteEvolutionError, UnstableStepError
from conftest import gaussian_state, periodic_grid, plane_wave


def discrete_kinetic_energy(k, dx, consts):
    """Dispersion of the central-difference kinetic operator."""
    return consts.hbar**2 * 2.0 * (1.0 - np.cos(k * dx)) / (dx**2 * 2.0 * consts.mass)


def make_params(L, eta, consts):
    return NonlinearParams.for_length(L, eta, consts)


class TestRhsApply:
    def test_plane_wave_phase_rotation(self, consts):
        g = periodic_grid(width=10.0, n=1000)
        psi, k = plane_wave(g, mode=4)
        params = make_params(0.02, 0.5, consts)  # single-step shift
        out = rhs_apply(psi, zero_potential(g), params, consts)
        e_d = discrete_kinetic_energy(k, g.dx, consts)
        expected = e_d / (1j * consts.hbar) * psi.values
        # exact against the discrete dispersion; close to hbar^2 k^2/2m
        assert np.abs(out.values - expected).max() < 1e-10
        assert e_d == pytest.approx(consts.hbar**2 * k**2 / (2 * consts.mass), rel=1e-4)

    def test_constant_state_constant_potential(self, consts):
        g = periodic_grid(width=10.0, n=1000)
        psi = normalize(Wavefunction(g, np.ones(1000, dtype=complex)))
        v0 = 2.5
        V = Potential(g, np.full(1000, v0))
        params = make_params(0.02, 0.5, consts)
        out = rhs_apply(psi, V, params, consts)
        expected = v0 / (1j * consts.hbar) * psi.values
        assert np.abs(out.values - expected).max() < 1e-10

    def test_masked_points_pinned(self, consts):
        g = periodic_grid(width=10.0, n=1000)
        psi, _ = plane_wave(g, mode=2)
        mask = np.zeros(1000, dtype=bool)
        mask[::100] = True
        V = Potential(g, np.zeros(1000), singular_mask=mask)
        out = rhs_apply(psi, V, None, consts)
        assert np.all(out.values[mask] == 0.0)


    def test_underflowing_density_stays_finite(self, consts):
        # amplitude 1e-160 floors at 1e-300, not at an underflowed 0
        g = periodic_grid(width=10.0, n=1000)
        psi = Wavefunction(g, 1e-160 * np.exp(-g.x**2).astype(complex))
        out = rhs_apply(psi, zero_potential(g), make_params(0.1, 0.5, consts), consts)
        assert np.isfinite(out.values.view(np.float64)).all()


class TestRk4Step:
    def test_zero_dt_identity(self, consts):
        g = periodic_grid(width=10.0, n=500)
        psi = gaussian_state(g)
        out = rk4_step(psi, zero_potential(g), None, consts, 0.0)
        assert np.array_equal(out.values, psi.values)

    def test_dt_above_limit_raises(self, consts):
        g = periodic_grid(width=10.0, n=500)
        psi = gaussian_state(g)
        with pytest.raises(UnstableStepError):
            rk4_step(psi, zero_potential(g), None, consts, 1.01 * dt_max(g, consts))

    def test_one_step_phase_error_order(self, consts):
        # local error vs analytic phase of the discrete eigenvalue is O(dt^5);
        # a high mode makes E*dt large enough to resolve above rounding
        g = periodic_grid(width=10.0, n=200)
        psi, k = plane_wave(g, mode=40)
        e_d = discrete_kinetic_energy(k, g.dx, consts)
        errs = []
        for dt in (dt_max(g, consts), dt_max(g, consts) / 2):
            out = rk4_step(psi, zero_potential(g), None, consts, dt)
            exact = psi.values * np.exp(-1j * e_d * dt / consts.hbar)
            errs.append(np.abs(out.values - exact).max())
        assert errs[0] / errs[1] == pytest.approx(32.0, rel=0.1)

    def test_global_order_fourth(self, consts):
        # halving dt cuts the endpoint error by ~16x over a fixed horizon
        g = periodic_grid(width=10.0, n=200)
        psi, k = plane_wave(g, mode=40)
        e_d = discrete_kinetic_energy(k, g.dx, consts)
        V = zero_potential(g)
        horizon = 64 * dt_max(g, consts)
        errs = []
        for split in (64, 128):
            dt = horizon / split
            state = psi
            for _ in range(split):
                state = rk4_step(state, V, None, consts, dt)
            exact = psi.values * np.exp(-1j * e_d * horizon / consts.hbar)
            errs.append(np.abs(state.values - exact).max())
        assert errs[0] / errs[1] == pytest.approx(16.0, rel=0.15)

    @pytest.mark.parametrize("nonlinear", [False, True])
    def test_in_place_stages_match_expression(self, consts, nonlinear):
        # the stages and the combination are built in place; the reference
        # is the out-of-place complex expression. The packet's underflowed
        # tail times a phase carries -0.0 parts, whose signs the complex
        # products decide, so 20 chained steps are compared on the bits
        g = periodic_grid(width=10.0, n=1000)
        x = g.x
        psi = np.exp(-((x / 0.15) ** 2)) * np.exp(3j * x)
        assert (np.signbit(psi.view(np.float64)) & (psi.view(np.float64) == 0.0)).any()
        params = make_params(0.2, 0.5, consts) if nonlinear else None
        rhs = _make_rhs(g, harmonic_potential(g, consts), params, consts, "periodic")

        def reference(v, dt):
            k1 = rhs(v)
            k2 = rhs(v + (0.5 * dt) * k1)
            k3 = rhs(v + (0.5 * dt) * k2)
            k4 = rhs(v + dt * k3)
            return v + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

        for dt in (dt_max(g, consts), -dt_max(g, consts)):
            ref = out = psi
            for _ in range(20):
                ref = reference(ref, dt)
                out = _rk4_raw(out, rhs, dt, rhs(out))
            assert np.array_equal(out.view(np.int64), ref.view(np.int64))
        # the step reads psi and k1 without writing them
        k1 = rhs(psi)
        before = psi.copy(), k1.copy()
        _rk4_raw(psi, rhs, dt_max(g, consts), k1)
        assert np.array_equal(psi.view(np.int64), before[0].view(np.int64))
        assert np.array_equal(k1.view(np.int64), before[1].view(np.int64))


class TestEvolve:
    def test_plane_wave_norm_conserved(self, consts):
        g = periodic_grid(width=10.0, n=1000)
        psi, _ = plane_wave(g, mode=4)
        params = make_params(0.02, 0.5, consts)
        report = evolve(
            psi, zero_potential(g), params, consts, 0.5 * dt_max(g, consts), 2000
        )
        assert report.norm_drift.max() < 1e-10
        assert len(report.times) == 2001

    @pytest.mark.parametrize("L", [None, 0.02])
    def test_wall_packet_norm_conserved(self, consts, L):
        # a packet running into a dirichlet wall, |psi|^2 at 1.7e-4 of its peak
        # on the end points: the flow conserves sum dx |psi|^2, so only RK4
        # drifts (measured 1.1e-9 linear, 8.7e-11 with F; a norm that halved
        # the end weights would drift by 5.5e-7)
        g = Grid(x_min=-5.0, dx=0.01, n_points=1001, boundary="dirichlet")
        vals = np.exp(-((g.x - 2.5) ** 2) / (4 * 0.6**2) + 3j * g.x)
        psi = normalize(Wavefunction(g, vals))
        params = None if L is None else make_params(L, 0.5, consts)
        report = evolve(psi, zero_potential(g), params, consts, 0.5 * dt_max(g, consts), 500)
        assert report.norm_drift.max() < 1e-8

    def test_energy_trace_constant_for_eigenflow(self, consts):
        g = periodic_grid(width=10.0, n=500)
        psi, k = plane_wave(g, mode=3)
        params = make_params(0.04, 0.5, consts)
        report = evolve(
            psi, zero_potential(g), params, consts, 0.5 * dt_max(g, consts), 200
        )
        e_d = discrete_kinetic_energy(k, g.dx, consts)
        assert np.abs(report.energy_trace - e_d).max() < 1e-8

    def test_energy_trace_reads_each_chained_state(self, consts):
        # a fast nonlinear packet in a well, with two pinned points; RK4 damps
        # its energy by ~3e-8 per step, so an off-by-one in the trace shows
        g = periodic_grid(width=10.0, n=400)
        mask = np.zeros(g.n_points, dtype=bool)
        mask[[10, 390]] = True
        psi = gaussian_state(g, sigma=0.7, k=40.0)
        psi = Wavefunction(g, np.where(mask, 0.0, psi.values))
        V = Potential(g, harmonic_potential(g, consts).values, singular_mask=mask)
        params = make_params(4 * g.dx / 0.5, 0.5, consts)
        dt = 0.5 * dt_max(g, consts)
        n_steps = 4
        report = evolve(psi, V, params, consts, dt, n_steps)
        kin = -(consts.hbar**2) / (2.0 * consts.mass)
        rtol = 1e-14
        state = psi
        for k in range(n_steps + 1):
            if k:
                state = rk4_step(state, V, params, consts, dt)
            p = density(state)
            f = nonlinear_term_F(p, params, consts).values
            h = (np.conj(state.values) * kin * laplacian(state).values).real
            e = integrate(h + V.values * p.values + p.values * f, g)
            assert abs(report.energy_trace[k] - e) <= rtol * abs(e)
        assert np.array_equal(report.final_state.values, state.values)
        steps = np.abs(np.diff(report.energy_trace))
        assert steps.min() > 100 * rtol * np.abs(report.energy_trace).max()

    def test_time_reversal(self, consts):
        g = periodic_grid(width=10.0, n=400)
        psi = gaussian_state(g, sigma=1.0)
        params = make_params(g.dx / 0.5, 0.5, consts)
        V = zero_potential(g)
        dt = 0.5 * dt_max(g, consts)
        fwd = rk4_step(psi, V, params, consts, dt)
        back = rk4_step(fwd, V, params, consts, -dt)
        # one-step local error estimated by step-halving (Richardson)
        half = rk4_step(
            rk4_step(psi, V, params, consts, dt / 2), V, params, consts, dt / 2
        )
        one = rk4_step(psi, V, params, consts, dt)
        local = np.abs(one.values - half.values).max() * (16.0 / 15.0)
        reversal = np.abs(back.values - psi.values).max()
        assert reversal <= 10.0 * local + 1e-14

    @staticmethod
    def _abort(params, consts):
        """The report and message of an evolve whose amplitudes overflow:
        with V = 1e6 each RK4 step multiplies psi by about 2e11. A numpy
        warning is an error here, whatever the suite's filters."""
        g = periodic_grid(width=10.0, n=128)
        dt = 0.5 * dt_max(g, consts)
        V = Potential(g, np.full(128, 1e6))
        with warnings.catch_warnings(), pytest.raises(NonFiniteEvolutionError) as exc_info:
            warnings.simplefilter("error")
            evolve(gaussian_state(g), V, params, consts, dt, 50)
        return exc_info.value.report, str(exc_info.value), dt

    @staticmethod
    def _assert_steps_before(report, message, step, dt):
        assert message == f"non-finite amplitudes after step {step}"
        assert np.array_equal(report.times, dt * np.arange(step))
        assert len(report.norm_drift) == len(report.energy_trace) == step
        assert np.isfinite(report.final_state.values).all()

    def test_nonfinite_aborts_with_partial_report(self, consts):
        # psi reaches 4e304 after step 26 and overflows in step 27; the
        # energy and the norm overflow earlier, and the report keeps them
        report, message, dt = self._abort(None, consts)
        self._assert_steps_before(report, message, 27, dt)
        assert np.abs(report.final_state.values).max() > 1e304
        assert np.isinf(report.energy_trace[-1]) and np.isinf(report.norm_drift[-1])

    def test_nonfinite_abort_with_field(self, consts):
        # with F on, |psi|^2 overflows before psi does: the bracket and Q run
        # on infinite densities under evolve's errstate, raise no numpy
        # warning, and turn psi non-finite in step 14
        params = make_params(4 * 10.0 / 128 / 0.5, 0.5, consts)
        report, message, dt = self._abort(params, consts)
        self._assert_steps_before(report, message, 14, dt)
        assert np.isfinite(report.energy_trace).all()

    def test_linear_limit_endpoint_difference(self, consts):
        # F on vs off: endpoint difference shrinks ~linearly with L
        g = periodic_grid(width=16.0, n=800)
        psi = gaussian_state(g, sigma=1.0)
        V = zero_potential(g)
        dt = 0.5 * dt_max(g, consts)
        n_steps = 400
        lin = psi
        for _ in range(n_steps):
            lin = rk4_step(lin, V, None, consts, dt)
        diffs = []
        for steps_shift in (8, 4, 2):
            L = steps_shift * g.dx / 0.5
            params = make_params(L, 0.5, consts)
            state = psi
            for _ in range(n_steps):
                state = rk4_step(state, V, params, consts, dt)
            diffs.append(np.abs(state.values - lin.values).max())
        assert diffs[1] < 0.7 * diffs[0]
        assert diffs[2] < 0.7 * diffs[1]


@pytest.mark.slow
class TestCoherentState:
    def test_quarter_period_zero_crossing(self, consts):
        # displaced ground state in a harmonic well crosses the origin at
        # T/4 when the period is 2 pi / omega; nonlinearity at the smallest
        # commensurate L
        g = periodic_grid(width=16.0, n=800, x_min=-8.0)
        omega = 1.0
        V = harmonic_potential(g, consts, omega=omega)
        x0 = 1.0
        psi = gaussian_state(g, sigma=1.0 / np.sqrt(2.0), center=x0)
        params = make_params(g.dx / 0.5, 0.5, consts)
        dt = 0.5 * dt_max(g, consts)
        quarter = np.pi / 2 / omega
        n_steps = int(round(quarter / dt))
        report = evolve(psi, V, params, consts, dt, n_steps)
        p = np.abs(report.final_state.values) ** 2
        com = float(np.sum(g.x * p) / np.sum(p))
        assert abs(com) < 0.02 * x0
        assert report.norm_drift.max() < 1e-10
