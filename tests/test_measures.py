import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infonls import (
    Density,
    Grid,
    PhysConstants,
    fisher_information,
    functional_derivative,
    kl_divergence_shifted,
    kl_shifted_functional,
    quantum_potential_term,
    shannon_entropy,
)
from infonls.errors import IncommensurateShiftError
from infonls.grid import integrate
from conftest import gaussian_density, periodic_grid, skewed_density


class TestKLShifted:
    def test_constant_density_zero(self):
        g = periodic_grid(width=4.0, n=400)
        p = Density(g, np.full(400, 0.25))
        assert kl_divergence_shifted(p, 0.1).value == pytest.approx(0.0, abs=1e-14)

    def test_gaussian_small_L_law(self):
        # high-resolution check of the quadratic small-L law I_KL ~ L^2/(2 sigma_wf^2)
        g = periodic_grid(width=20.0, n=8000)
        sigma_wf = 1.0  # width of the wavefunction; density width is sigma_wf
        p = gaussian_density(g, sigma=np.sqrt(2.0) * sigma_wf)
        L = 0.01
        val = kl_divergence_shifted(p, L).value
        assert val == pytest.approx(L**2 / (2 * sigma_wf**2), rel=0.02)

    def test_quadratic_law_under_halving(self):
        g = periodic_grid(width=20.0, n=8000)
        p = gaussian_density(g, sigma=np.sqrt(2.0))
        v1 = kl_divergence_shifted(p, 0.02).value
        v2 = kl_divergence_shifted(p, 0.01).value
        assert v1 / v2 == pytest.approx(4.0, rel=0.01)

    def test_incommensurate_raises(self):
        g = periodic_grid(width=4.0, n=400)
        p = Density(g, np.full(400, 0.25))
        with pytest.raises(IncommensurateShiftError):
            kl_divergence_shifted(p, 0.0173)

    @given(seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=30, deadline=None)
    def test_gibbs_nonnegativity(self, seed):
        rng = np.random.default_rng(seed)
        g = periodic_grid(width=2 * np.pi, n=256, x_min=0.0)
        # smooth strictly positive periodic density from a few Fourier modes
        u = g.x
        p = np.ones(256)
        for mode in (1, 2, 3):
            p += rng.uniform(-0.2, 0.2) * np.sin(mode * u) + rng.uniform(-0.2, 0.2) * np.cos(mode * u)
        p = np.maximum(p, 0.05)
        dens = Density(g, p / integrate(p, g))
        steps = rng.integers(1, 128)
        val = kl_divergence_shifted(dens, steps * g.dx).value
        assert val >= -1e-10


class TestFisher:
    def test_constant_zero(self):
        g = periodic_grid(width=4.0, n=512)
        p = Density(g, np.full(512, 0.25))
        assert fisher_information(p).value == pytest.approx(0.0, abs=1e-14)

    def test_gaussian_closed_form(self):
        # I_F = 2/sigma^2 for p ~ exp(-x^2/sigma^2)
        sigma = 1.3
        for g in (periodic_grid(width=24.0, n=2048),
                  Grid(x_min=-12.0, dx=24.0 / 2048, n_points=2049, boundary="dirichlet")):
            p = gaussian_density(g, sigma=sigma)
            assert fisher_information(p).value == pytest.approx(2.0 / sigma**2, rel=0.01)

    def test_translation_invariance(self):
        # translated copy on the torus: identical samples, rolled
        g = periodic_grid(width=24.0, n=2048)
        p = gaussian_density(g, sigma=1.0)
        rolled = Density(g, np.roll(p.values, 512))
        v1 = fisher_information(p).value
        v2 = fisher_information(rolled).value
        assert abs(v1 - v2) < 1e-10


class TestShannon:
    def test_uniform_width_one(self):
        g = Grid(x_min=0.0, dx=1.0 / 512, n_points=512, boundary="periodic")
        p = Density(g, np.ones(512))
        assert shannon_entropy(p).value == pytest.approx(0.0, abs=1e-12)

    def test_uniform_width_W(self):
        W = 7.0
        g = Grid(x_min=0.0, dx=W / 1024, n_points=1024, boundary="periodic")
        p = Density(g, np.full(1024, 1.0 / W))
        assert shannon_entropy(p).value == pytest.approx(np.log(W), abs=1e-6)

    def test_gaussian_closed_form(self):
        # wavefunction-width sigma_wf = 1: S = ln(2 pi e)/2
        g = periodic_grid(width=30.0, n=4096)
        p = gaussian_density(g, sigma=np.sqrt(2.0))
        assert shannon_entropy(p).value == pytest.approx(
            0.5 * np.log(2 * np.pi * np.e), rel=0.01
        )


class TestFunctionalDerivative:
    def test_quadratic_functional(self):
        # strictly positive density: relative bumps resolve every point
        g = periodic_grid(width=2 * np.pi, n=192, x_min=0.0)
        p = skewed_density(g)
        quad = lambda dens: integrate(dens.values**2, g)
        deriv = functional_derivative(quad, p)
        assert np.allclose(deriv, 2.0 * p.values, rtol=1e-6)

    def test_kl_matches_log_bracket(self):
        # the derivative of cal_E * I_KL is the unregularized bracket
        consts = PhysConstants()
        g = periodic_grid(width=2 * np.pi, n=384, x_min=0.0)
        p = skewed_density(g)
        steps = 48
        L = steps * g.dx
        cal_E = consts.hbar**2 / (4 * consts.mass * L**2)
        func = lambda dens: cal_E * kl_shifted_functional(L)(dens)
        deriv = functional_derivative(func, p)
        v = p.values
        bracket = cal_E * (
            np.log(v / np.roll(v, -steps)) + 1.0 - np.roll(v, steps) / v
        )
        assert np.abs(deriv - bracket).max() <= 1e-4 * np.abs(bracket).max()

    def test_fisher_matches_quantum_potential(self):
        # (hbar^2/8m) dI_F/dp = -(hbar^2/2m)(sqrt p)''/sqrt p
        consts = PhysConstants()
        g = periodic_grid(width=2 * np.pi, n=384, x_min=0.0)
        p = skewed_density(g)
        func = lambda dens: consts.hbar**2 / (8 * consts.mass) * fisher_information(dens).value
        deriv = functional_derivative(func, p)
        qp = quantum_potential_term(p, consts).values
        assert np.abs(deriv + qp).max() <= 1e-3 * np.abs(qp).max()

    def test_directional_prediction(self):
        # integral (dF/dp) q dx predicts F(p + eps q) - F(p) to O(eps^2)
        g = periodic_grid(width=2 * np.pi, n=256, x_min=0.0)
        p = skewed_density(g)
        L = 32 * g.dx
        func = kl_shifted_functional(L)
        deriv = functional_derivative(func, p)
        q = np.sin(3 * g.x)  # zero-mean perturbation
        errs = []
        for eps in (1e-3, 5e-4):
            pred = integrate(deriv * eps * q, g)
            actual = func(Density(g, p.values + eps * q)) - func(p)
            errs.append(abs(actual - pred))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.25)


class TestKLFunctional:
    @pytest.mark.parametrize("steps", [13, -7])
    @pytest.mark.parametrize("policy", ["periodic", "floor", "extrap"])
    @pytest.mark.parametrize("density_maker", ["gaussian", "skewed"])
    def test_value_equals_divergence(self, density_maker, policy, steps):
        # the functional skips only the error estimate: same bits as .value
        g = periodic_grid(width=2 * np.pi, n=256, x_min=0.0)
        if density_maker == "gaussian":
            p = gaussian_density(g, sigma=0.6)
        else:
            p = skewed_density(g)
        L = steps * g.dx
        value = kl_shifted_functional(L, policy)(p)
        ref = kl_divergence_shifted(p, L, policy).value
        assert np.float64(value).view(np.int64) == np.float64(ref).view(np.int64)

    def test_non_finite_value_raises(self):
        g = periodic_grid(width=2 * np.pi, n=64, x_min=0.0)
        vals = np.full(64, 1e300)
        vals[10] = 1e308  # p ln(p / p(x+L)) overflows there
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
            kl_shifted_functional(g.dx)(Density(g, vals))

    def test_oracle_calls_functional_twice_per_point(self):
        g = periodic_grid(width=2 * np.pi, n=48, x_min=0.0)
        fn = kl_shifted_functional(3 * g.dx)
        calls = []

        def counted(dens):
            calls.append(None)
            return fn(dens)

        functional_derivative(counted, skewed_density(g))
        assert len(calls) == 2 * g.n_points


class TestLimitLaw:
    @pytest.mark.parametrize("density_maker", ["gaussian", "skewed"])
    def test_kl_to_fisher_linear_convergence(self, density_maker):
        g = periodic_grid(width=2 * np.pi * 4, n=4096, x_min=0.0)
        if density_maker == "gaussian":
            p = gaussian_density(g, sigma=1.0)
        else:
            p = skewed_density(g)
        fisher = fisher_information(p).value
        errs = []
        for steps in (64, 32, 16):
            L = steps * g.dx
            kl = kl_divergence_shifted(p, L).value
            errs.append(abs(2 * kl / L**2 - fisher) / fisher)
        # at-least-linear: each halving of L at least roughly halves the error,
        # down to the quadrature noise floor (the symmetric gaussian case sits
        # on that floor already: its shifted divergence is exactly quadratic)
        floor = 5e-9
        assert errs[1] <= 0.65 * errs[0] + floor
        assert errs[2] <= 0.65 * errs[1] + floor
