import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infonls import (
    Density,
    Grid,
    NonlinearParams,
    Wavefunction,
    density,
    evolve,
    first_order_shift_numeric,
    kl_divergence_shifted,
    laplacian,
    nonlinear_term_F,
    normalize,
    shift_density,
    zero_potential,
)
from infonls.errors import (
    IncommensurateShiftError,
    StepTooLargeError,
    ZeroNormError,
)
from infonls.grid import Potential, _laplacian_raw, _normalized, _shift_raw
from conftest import gaussian_state, periodic_grid, plane_wave


class TestGridConstruction:
    def test_points_reproducible(self):
        g = Grid(x_min=-3.0, dx=0.25, n_points=64)
        assert np.array_equal(g.x, -3.0 + np.arange(64) * 0.25)

    def test_invalid_dx(self):
        with pytest.raises(ValueError):
            Grid(x_min=0.0, dx=-0.1, n_points=64)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            Grid(x_min=0.0, dx=0.1, n_points=7)

    def test_bad_boundary(self):
        with pytest.raises(ValueError):
            Grid(x_min=0.0, dx=0.1, n_points=64, boundary="absorbing")

    @pytest.mark.parametrize("dx", [np.nan, np.inf])
    def test_non_finite_dx(self, dx):
        with pytest.raises(ValueError, match="^dx must be positive"):
            Grid(x_min=0.0, dx=dx, n_points=64)

    @pytest.mark.parametrize("x_min", [np.nan, np.inf, -np.inf])
    def test_non_finite_x_min(self, x_min):
        with pytest.raises(ValueError, match="^x_min must be finite"):
            Grid(x_min=x_min, dx=0.1, n_points=64)


class TestNonlinearParams:
    def test_constraint_holds(self, consts):
        params = NonlinearParams.for_length(0.37, 0.6, consts)
        assert params.cal_E * params.L**2 == pytest.approx(
            consts.hbar**2 / (4 * consts.mass), rel=1e-12
        )

    def test_eta_range(self, consts):
        with pytest.raises(ValueError):
            NonlinearParams.for_length(0.1, 0.0, consts)
        with pytest.raises(ValueError):
            NonlinearParams.for_length(0.1, 1.5, consts)

    @pytest.mark.parametrize("L", [np.nan, 0.0, -0.1, np.inf])
    def test_length_refused_before_it_divides(self, consts, L):
        # for_length checks L before it divides, so L = 0 is no ZeroDivisionError
        with pytest.raises(ValueError, match="^L must be positive"):
            NonlinearParams.for_length(L, 0.5, consts)
        with pytest.raises(ValueError, match="^L must be positive"):
            NonlinearParams(L=L, eta=0.5, cal_E=1.0)

    def test_length_whose_square_underflows(self, consts):
        # 4 m L^2 rounds to 0 although L itself is positive
        with pytest.raises(ValueError, match="^L = 1e-170 is too small"):
            NonlinearParams.for_length(1e-170, 0.5, consts)

    def test_commensurate_steps(self, consts):
        g = Grid(x_min=0.0, dx=0.01, n_points=100, boundary="dirichlet")
        params = NonlinearParams.for_length(0.1, 0.5, consts)
        assert params.shift_steps(g) == 5

    def test_incommensurate_rejected(self, consts):
        g = Grid(x_min=0.0, dx=0.013, n_points=100, boundary="dirichlet")
        params = NonlinearParams.for_length(0.1, 0.5, consts)
        with pytest.raises(IncommensurateShiftError):
            params.shift_steps(g)


class TestDensity:
    def test_constant_state(self):
        g = periodic_grid(n=128)
        psi = Wavefunction(g, np.ones(128, dtype=complex))
        assert np.array_equal(density(psi).values, np.ones(128))

    def test_pure_phase(self):
        g = periodic_grid(n=128)
        psi, _ = plane_wave(g, mode=3)
        p = density(psi).values
        assert np.allclose(p, p[0], rtol=1e-13)

    def test_complex_unit_modulus(self):
        g = periodic_grid(n=128)
        psi = Wavefunction(g, np.full(128, (1 + 1j) / np.sqrt(2)))
        assert np.allclose(density(psi).values, 1.0, atol=1e-15)

    def test_negative_rejected(self):
        g = periodic_grid(n=128)
        with pytest.raises(ValueError):
            Density(g, np.full(128, -1.0))


class TestNormalize:
    def test_unit_norm(self):
        g = periodic_grid(n=256)
        psi = gaussian_state(g)
        assert psi.norm_squared() == pytest.approx(1.0, abs=1e-12)

    def test_idempotent(self):
        g = periodic_grid(n=256)
        psi = gaussian_state(g)
        again = normalize(psi)
        assert np.allclose(again.values, psi.values, atol=1e-12)

    def test_scale_invariant(self):
        g = periodic_grid(n=256)
        psi = gaussian_state(g)
        scaled = normalize(Wavefunction(g, 7.0 * psi.values))
        assert np.allclose(scaled.values, psi.values, atol=1e-12)

    def test_zero_norm_raises(self):
        g = periodic_grid(n=128)
        with pytest.raises(ZeroNormError):
            normalize(Wavefunction(g, np.zeros(128, dtype=complex)))

    def test_real_values_match_complex_division(self):
        # a real array is scaled as numpy divides a complex array by a real
        # scalar, (re + 0.0) * (1 / norm): -0.0 turns into +0.0, while a
        # negative subnormal whose product underflows stays -0.0
        g = periodic_grid(n=256)
        raw = 30.0 * np.exp(-g.x**2)
        raw[::7] = -0.0
        raw[1:6] = -5e-324 * np.arange(1, 6)
        expected = normalize(Wavefunction(g, raw)).values
        got = _normalized(g, raw.copy()).values
        assert got.tobytes() == expected.tobytes()
        assert not np.signbit(got.real[::7]).any() and not np.signbit(got.imag).any()
        assert np.signbit(got.real[1:6]).all() and (got.real[1:6] == 0.0).all()


class TestGridArrays:
    """One constructor rule for Wavefunction, Density and Potential: a
    read-only copy in the type's dtype, one value per grid point; then each
    type's own invariant and error."""

    @pytest.mark.parametrize("make", [
        lambda g, v: Wavefunction(g, v),
        lambda g, v: Density(g, v),
        lambda g, v: Potential(g, v),
        lambda g, v: Potential(g, np.zeros(g.n_points), singular_mask=v > 0),
    ])
    def test_length_checked(self, make):
        g = periodic_grid(n=16)
        with pytest.raises(ValueError, match="length must match grid.n_points"):
            make(g, np.ones(15))

    def test_read_only_copies(self):
        g = periodic_grid(n=16)
        src = np.ones(16)
        mask = src < 0
        V = Potential(g, src, mask)
        arrays = (Wavefunction(g, src).values, Density(g, src).values, V.values,
                  V.singular_mask, Potential(g, src).singular_mask)
        src[:] = 2.0
        mask[:] = True
        for a, dtype in zip(arrays, (np.complex128, np.float64, np.float64, bool, bool)):
            assert a.dtype == dtype and not a.flags.writeable
            assert np.all(a == (1.0 if dtype != bool else False))

    def test_potential_finite_off_mask(self):
        g = periodic_grid(n=16)
        v = np.zeros(16)
        v[[3, 7]] = (np.inf, np.nan)
        mask = np.zeros(16, dtype=bool)
        mask[3] = True
        with pytest.raises(ValueError, match="finite off the singular mask"):
            Potential(g, v, mask)
        mask[7] = True
        assert Potential(g, v, mask).singular_mask.sum() == 2


class TestShiftDensity:
    def _small(self, vals, boundary="periodic"):
        g = Grid(x_min=0.0, dx=1.0, n_points=len(vals), boundary=boundary)
        return Density(g, np.asarray(vals, dtype=float))

    def test_zero_steps_identity(self):
        p = self._small([1, 2, 3, 4, 5, 6, 7, 8])
        assert np.array_equal(shift_density(p, 0).values, p.values)

    def test_periodic_wrap(self):
        p = self._small([1, 2, 3, 4, 5, 6, 7, 8])
        assert np.array_equal(
            shift_density(p, 1, "periodic").values, [2, 3, 4, 5, 6, 7, 8, 1]
        )

    def test_floor_fill(self):
        p = self._small([1, 2, 3, 4, 5, 6, 7, 8])
        out = shift_density(p, 1, "floor").values
        assert np.array_equal(out[:-1], [2, 3, 4, 5, 6, 7, 8])
        assert out[-1] == pytest.approx(1e-12 * 8)

    def test_extrap_fill_geometric(self):
        vals = np.exp(-0.3 * np.arange(16))
        p = self._small(vals, boundary="dirichlet")
        out = shift_density(p, 2, "extrap").values
        assert np.allclose(out[:-2], vals[2:], rtol=1e-14)
        assert out[-1] == pytest.approx(vals[-1] ** 2 / vals[-3], rel=1e-12)

    @pytest.mark.parametrize("steps", [3, -3, 9, -9, 13, -13, 15, -15])
    @pytest.mark.parametrize("policy", ["extrap", "floor"])
    def test_edge_fill_matches_pointwise_loop(self, policy, steps):
        # |steps| > n/2 leaves edge points whose extrapolation source
        # k - steps is also off the grid: those take the floor
        vals = np.exp(-0.3 * np.arange(16)) * (1.0 + 0.5 * np.sin(np.arange(16)))
        vals[[2, 7, 13]] = 0.0  # zero sources exercise the floored denominator
        p = self._small(vals, boundary="dirichlet")
        eps = p.floor()
        n = vals.size
        expected = np.empty(n)
        for k in range(n):
            if 0 <= k + steps < n:
                expected[k] = vals[k + steps]
            elif policy == "extrap" and 0 <= k - steps < n:
                expected[k] = vals[k] ** 2 / max(vals[k - steps], eps)
            else:
                expected[k] = eps
        assert np.array_equal(shift_density(p, steps, policy).values, expected)

    def test_step_too_large(self):
        p = self._small([1, 2, 3, 4, 5, 6, 7, 8])
        with pytest.raises(StepTooLargeError):
            shift_density(p, 8)

    @pytest.mark.parametrize("policy", ["floor", "extrap"])
    @pytest.mark.parametrize("steps", [8, -8, 10, -10])
    def test_raw_step_too_large(self, policy, steps):
        # the non-periodic raw shift has the bound of shift_density; a shift
        # of n steps or more has no point left whose source is on the grid
        p = np.linspace(1.0, 2.0, 8)
        with pytest.raises(StepTooLargeError):
            _shift_raw(p, steps, policy, 1e-12)

    @pytest.mark.parametrize("policy", ["floor", "extrap"])
    @pytest.mark.parametrize("steps", [10, 12])
    def test_consumers_step_too_large(self, consts, policy, steps):
        # eta*L of n and n + 2 steps on a 10-point dirichlet grid
        g = Grid(x_min=0.0, dx=0.1, n_points=10, boundary="dirichlet")
        psi = normalize(Wavefunction(g, np.linspace(1.0, 2.0, 10)))
        p = density(psi)
        params = NonlinearParams.for_length(steps * g.dx / 0.5, 0.5, consts)
        calls = (
            lambda: nonlinear_term_F(p, params, consts, policy),
            lambda: first_order_shift_numeric(psi, params, consts, policy),
            lambda: kl_divergence_shifted(p, steps * g.dx, policy),
            lambda: evolve(psi, zero_potential(g), params, consts, 1e-4, 1, policy),
        )
        for call in calls:
            with pytest.raises(StepTooLargeError):
                call()

    @given(
        steps=st.integers(min_value=-31, max_value=31),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=40, deadline=None)
    def test_periodic_roundtrip_exact(self, steps, seed):
        rng = np.random.default_rng(seed)
        g = Grid(x_min=0.0, dx=0.5, n_points=32, boundary="periodic")
        p = Density(g, rng.uniform(0.1, 2.0, size=32))
        out = shift_density(shift_density(p, steps, "periodic"), -steps, "periodic")
        assert np.array_equal(out.values, p.values)


class TestPeriodicShift:
    """The periodic shift is built from two slice copies; np.roll is the
    reference it must match bit for bit."""

    @given(
        n=st.integers(min_value=8, max_value=64),
        data=st.data(),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_roll(self, n, data, seed):
        # |steps| up to 3n - 1 wraps more than once
        steps = data.draw(
            st.integers(min_value=1 - 3 * n, max_value=3 * n - 1).filter(bool)
        )
        rng = np.random.default_rng(seed)
        p = rng.uniform(0.0, 2.0, size=n)
        p[rng.integers(0, n, size=2)] = 0.0
        out = _shift_raw(p, steps, "periodic", 1e-12)
        assert np.array_equal(out.view(np.int64), np.roll(p, -steps).view(np.int64))

    def test_zero_steps_copy(self):
        p = np.linspace(0.0, 1.0, 16)
        out = _shift_raw(p, 0, "periodic", 1e-12)
        assert np.array_equal(out, p)
        assert not np.shares_memory(out, p)


class TestLaplacian:
    def test_constant_periodic(self):
        g = periodic_grid(n=128)
        psi = Wavefunction(g, np.ones(128, dtype=complex))
        assert np.allclose(laplacian(psi).values, 0.0, atol=1e-12)

    def test_quadratic_exact_interior(self):
        g = Grid(x_min=-2.0, dx=0.125, n_points=33, boundary="dirichlet")
        psi = Wavefunction(g, (g.x**2).astype(complex))
        lap = laplacian(psi).values
        assert np.allclose(lap[1:-1].real, 2.0, atol=1e-10)

    def test_sine_richardson_halving(self):
        # error vs -k^2 sin should fall by ~4x when dx halves
        errs = []
        for n in (128, 256):
            g = periodic_grid(width=2 * np.pi, n=n, x_min=0.0)
            k = 3.0
            psi = Wavefunction(g, np.sin(k * g.x).astype(complex))
            lap = laplacian(psi).values.real
            errs.append(np.abs(lap + k**2 * np.sin(k * g.x)).max())
        ratio = errs[0] / errs[1]
        assert 4 * 0.9 < ratio < 4 * 1.1

    @given(
        a=st.floats(-3, 3, allow_nan=False),
        b=st.floats(-3, 3, allow_nan=False),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=25, deadline=None)
    def test_linearity(self, a, b, seed):
        rng = np.random.default_rng(seed)
        g = periodic_grid(n=64)
        v1 = rng.normal(size=64) + 1j * rng.normal(size=64)
        v2 = rng.normal(size=64) + 1j * rng.normal(size=64)
        lhs = laplacian(Wavefunction(g, a * v1 + b * v2)).values
        rhs = a * laplacian(Wavefunction(g, v1)).values + b * laplacian(
            Wavefunction(g, v2)
        ).values
        assert np.allclose(lhs, rhs, atol=1e-9)

    @pytest.mark.parametrize("boundary", ["periodic", "dirichlet"])
    @pytest.mark.parametrize("dx", [0.01, 0.1 / 3, 2 * np.pi / 512, 0.8 * 0.1 / 16])
    def test_complex_scales_real_stencil(self, boundary, dx):
        # the complex path multiplies the stencil by 1/dx^2, the real path
        # (which Q and the residuals use) divides by dx^2: the two agree to
        # 1 ulp on each part
        rng = np.random.default_rng(7)
        g = Grid(x_min=0.0, dx=dx, n_points=257, boundary=boundary)
        psi = Wavefunction(g, rng.normal(size=257) + 1j * rng.normal(size=257))
        lap = laplacian(psi).values
        for part, ref in ((lap.real, psi.values.real), (lap.imag, psi.values.imag)):
            real = _laplacian_raw(np.ascontiguousarray(ref), dx, boundary)
            np.testing.assert_array_max_ulp(part, real, maxulp=1)
