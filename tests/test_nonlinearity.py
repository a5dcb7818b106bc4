import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infonls import (
    Density,
    ExactSolutionSpec,
    Grid,
    NonlinearParams,
    PhysConstants,
    Wavefunction,
    build_exact_state,
    density,
    dt_max,
    evolve,
    first_order_shift_numeric,
    nonlinear_term_F,
    normalize,
    quantum_potential_term,
    regularized_kl_term,
    rhs_apply,
    rk4_step,
    zero_potential,
)
from infonls import nonlinearity
from infonls.errors import UnregularizedEtaWarning
from infonls.grid import Potential, _floor_raw, _shift_raw, integrate
from infonls.nonlinearity import _field_raw, _kl_bracket_raw, _kl_energy_raw
from conftest import gaussian_density, periodic_grid, skewed_density, traced_peak


def make_params(L, eta):
    return NonlinearParams.for_length(L, eta, PhysConstants())


def reference_bracket(p, steps, eta, policy, eps):
    """The bracket's one formula over the whole array: the log1p form in the
    ratios of the three densities clamped at the floor."""
    fp = np.maximum(p, eps)
    rp = (np.maximum(_shift_raw(p, +steps, policy, eps), eps) - fp) / fp
    rm = (np.maximum(_shift_raw(p, -steps, policy, eps), eps) - fp) / fp
    a = eta * rp
    t = ((1.0 - 2.0 * eta) * rm + (1.0 - eta)) * a - (eta * eta) * rm
    den = (a + 1.0) * ((1.0 - eta) * rm + 1.0)
    return t / den - np.log1p(a)


def longdouble_bracket(p, steps, eta, policy, eps):
    """Accuracy oracle: the bracket of the clamped densities in np.longdouble,
    in its literal form ln p - ln d+ + 1 - (1-eta) p/d+ - eta p-/d-, with
    d+ = (1-eta) p + eta p+ and d- = (1-eta) p- + eta p."""
    ld = np.longdouble
    fp, pp, pm = (np.maximum(q, eps).astype(ld) for q in
                  (p, _shift_raw(p, +steps, policy, eps), _shift_raw(p, -steps, policy, eps)))
    e = ld(eta)
    d_plus = (1 - e) * fp + e * pp
    d_minus = (1 - e) * pm + e * fp
    return np.log(fp) - np.log(d_plus) + 1 - (1 - e) * fp / d_plus - e * pm / d_minus


def longdouble_log1p_bracket(p, steps, eta, policy, eps):
    """Accuracy oracle for small eta: the bracket of the clamped densities in
    np.longdouble, in the log1p form eta num/den - log1p(eta r+) with
    r+- = (p+- - p)/p, num = (1-eta) r+ - eta r- + (1-2eta) r+ r- and
    den = (1 + eta r+)(1 + (1-eta) r-). The bracket is O(eta^2) while its
    two terms are O(eta), so this form loses about 1/eta of its digits
    where the literal form loses 1/eta^2: at eta = 1e-4 the two differ by
    8e-7 of max|bracket| on _oracle_states."""
    ld = np.longdouble
    fp, pp, pm = (np.maximum(q, eps).astype(ld) for q in
                  (p, _shift_raw(p, +steps, policy, eps), _shift_raw(p, -steps, policy, eps)))
    e = ld(eta)
    rp = (pp - fp) / fp
    rm = (pm - fp) / fp
    num = (1 - e) * rp - e * rm + (1 - 2 * e) * rp * rm
    den = (1 + e * rp) * (1 + (1 - e) * rm)
    return e * num / den - np.log1p(e * rp)


def assert_same_bits(a, b):
    assert a.dtype == b.dtype == np.float64
    assert np.array_equal(a.view(np.int64), b.view(np.int64))


def block_edges(n, block):
    """Interior edges of the bracket's blocks of a grid of n points."""
    blocks = -(-n // block)
    return [k * n // blocks for k in range(1, blocks)]


# densities with exact zeros, values at the floor and at 100x the floor, deep
# tails and spikes of up to 1e6 over them
_values = st.one_of(
    st.just(0.0),
    st.floats(min_value=-16.0, max_value=6.0).map(lambda e: 10.0**e),
)


@st.composite
def degenerate_densities(draw):
    p = np.array(draw(st.lists(_values, min_size=8, max_size=48)))
    eps = _floor_raw(p)
    n = p.size
    at_floor = draw(st.lists(st.integers(0, n - 1), max_size=4))
    at_threshold = draw(st.lists(st.integers(0, n - 1), max_size=4))
    p[at_floor] = eps
    p[at_threshold] = 100.0 * eps
    return p


# constant levels: ordinary, all zero, and subnormal (FLOOR_REL * p
# underflows, so the floor is 1e-300, above the density)
CONSTANT_LEVELS = (0.25, 0.0, 1e-320)


class TestRegularizedKLTerm:
    def test_constant_density_zero(self):
        g = periodic_grid(width=4.0, n=128)
        for level in CONSTANT_LEVELS:
            p = Density(g, np.full(128, level))
            field = regularized_kl_term(p, make_params(0.25, 0.5))
            assert np.all(field.values == 0.0), level

    def test_floored_tail_is_zero(self):
        # a narrow Gaussian whose tails sit below the floor: there p and both
        # shifts clamp to the floor and the KL term vanishes. Its largest
        # value, -514, is at the edge of the tail, where p is just above the
        # floor and one shift is clamped; the bare prefactor is 2500
        g = Grid(x_min=-4.0, dx=0.01, n_points=800, boundary="periodic")
        p = np.exp(-g.x**2 / 0.1)
        params = make_params(0.04, 0.5)
        kl = regularized_kl_term(Density(g, p), params).values
        eps = _floor_raw(p)
        steps = params.shift_steps(g)
        tail = (p <= eps) & (np.roll(p, steps) <= eps) & (np.roll(p, -steps) <= eps)
        assert tail[0] and np.all(kl[tail] == 0.0)
        assert np.abs(kl).max() < 0.25 * params.cal_E / params.eta**4

    def test_gamma_scaled_density_gives_constant_energy(self, consts):
        # density with p(x + eta L) = gamma p(x): the field is the constant
        # closed-form energy (checked off floored points)
        kappa, eta, L = 1.0, 0.8, 0.1
        steps = 64
        dx = eta * L / steps
        n = 120 * steps + 1
        g = Grid(x_min=0.0, dx=dx, n_points=n, boundary="dirichlet")
        k = np.arange(n)
        alpha = np.sin(2 * np.pi * (k % steps) / steps)
        alpha[(2 * (k % steps)) % steps == 0] = 0.0
        p = np.exp(-2 * kappa * g.x) * alpha**2
        dens = Density(g, p / integrate(p, g))
        params = make_params(L, eta)
        field = regularized_kl_term(dens, params, policy="extrap")
        gamma = np.exp(-2 * kappa * eta * L)
        d = 1 + eta * (gamma - 1)
        expected = params.cal_E / eta**4 * (1 - np.log(d) - 1 / d)
        ok = dens.values > 1e-4 * dens.values.max()
        assert np.abs(field.values[ok] - expected).max() < 1e-8 * abs(expected)

    @given(scale=st.floats(min_value=1e-3, max_value=1e3))
    @settings(max_examples=25, deadline=None)
    def test_scale_invariance(self, scale):
        # the bracket depends on density ratios only; the floor scales along
        g = periodic_grid(width=2 * np.pi, n=128, x_min=0.0)
        p = skewed_density(g)
        params = make_params(8 * g.dx / 0.4, 0.4)
        f1 = regularized_kl_term(p, params).values
        f2 = regularized_kl_term(Density(g, scale * p.values), params).values
        assert np.allclose(f1, f2, rtol=1e-10, atol=1e-10 * np.abs(f1).max())

    def test_translation_equivariance(self):
        g = periodic_grid(width=2 * np.pi, n=256, x_min=0.0)
        p = skewed_density(g)
        params = make_params(2 * np.pi * 16 / 256 / 0.4, 0.4)
        roll = 37
        f1 = regularized_kl_term(Density(g, np.roll(p.values, roll)), params).values
        f2 = np.roll(regularized_kl_term(p, params).values, roll)
        assert np.allclose(f1, f2, atol=1e-12 * np.abs(f2).max())

    def test_eta_one_warns(self):
        g = periodic_grid(width=4.0, n=128)
        p = Density(g, np.full(128, 0.25))
        with pytest.warns(UnregularizedEtaWarning):
            regularized_kl_term(p, make_params(0.25, 1.0))

    @pytest.mark.parametrize("eta, count", [(1.0, 1), (0.999, 0)])
    @pytest.mark.parametrize("call", ["first_order_shift_numeric", "rhs_apply", "rk4_step",
                                      "evolve"])
    def test_every_consumer_warns_once_at_eta_one(self, consts, call, eta, count):
        # the shift and the three dynamics entry points evaluate F too; each
        # warns once per call, at the caller's line
        g = Grid(x_min=-4.0, dx=0.02, n_points=401, boundary="dirichlet")
        psi = normalize(Wavefunction(g, np.exp(-g.x**2).astype(complex)))
        params = NonlinearParams.for_length(5 * g.dx / eta, eta, consts)
        V, dt = zero_potential(g), dt_max(g, consts)
        calls = {
            "first_order_shift_numeric": lambda: first_order_shift_numeric(psi, params, consts),
            "rhs_apply": lambda: rhs_apply(psi, V, params, consts),
            "rk4_step": lambda: rk4_step(psi, V, params, consts, dt),
            "evolve": lambda: evolve(psi, V, params, consts, dt, 2),
        }
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            calls[call]()
        hits = [w for w in caught if w.category is UnregularizedEtaWarning]
        assert len(hits) == count
        assert all(w.filename == __file__ for w in hits)

    def test_eta_one_recovers_unregularized_bracket(self):
        g = periodic_grid(width=2 * np.pi, n=256, x_min=0.0)
        p = skewed_density(g)
        steps = 16
        L = steps * g.dx
        params = make_params(L, 1.0)
        with pytest.warns(UnregularizedEtaWarning):
            field = regularized_kl_term(p, params).values
        v = p.values
        bracket = params.cal_E * (
            np.log(v / np.roll(v, -steps)) + 1.0 - np.roll(v, steps) / v
        )
        assert np.allclose(field, bracket, rtol=1e-9, atol=1e-12 * np.abs(bracket).max())


class TestBracketReference:
    """The bracket is one formula at every point, evaluated block by block;
    it must give the bits of that formula over the whole array."""

    @given(
        p=degenerate_densities(),
        data=st.data(),
        eta=st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
        policy=st.sampled_from(["floor", "extrap", "periodic"]),
    )
    @settings(max_examples=300, deadline=None)
    def test_bits_match_reference(self, p, data, eta, policy):
        steps = data.draw(st.integers(1, p.size - 1)) * data.draw(st.sampled_from([1, -1]))
        eps = _floor_raw(p)
        with np.errstate(all="ignore"):
            expected = reference_bracket(p, steps, eta, policy, eps)
            got = _kl_bracket_raw(p, steps, eta, policy, eps)
        assert_same_bits(got, expected)

    @given(
        p=degenerate_densities(),
        data=st.data(),
        eta=st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
    )
    @settings(max_examples=100, deadline=None)
    def test_mirror_identity(self, p, data, eta):
        # the bracket at -s is the bracket of the mirror image at s, mirrored
        # back, bit for bit, under every policy and both signs
        s = data.draw(st.integers(1, p.size - 1))
        eps = _floor_raw(p)
        mirror = p[::-1].copy()
        with np.errstate(all="ignore"):
            for policy in ("floor", "extrap", "periodic"):
                for steps in (s, -s):
                    assert_same_bits(_kl_bracket_raw(p, -steps, eta, policy, eps),
                                     _kl_bracket_raw(mirror, steps, eta, policy, eps)[::-1])

    @pytest.mark.parametrize("steps", [16, -16])
    @pytest.mark.parametrize("eta", [0.3, 0.8, 1.0])
    def test_all_safe_density(self, steps, eta):
        # a strictly positive density, every point and shift far above the
        # floor
        g = periodic_grid(width=2 * np.pi, n=256, x_min=0.0)
        p = skewed_density(g).values
        eps = _floor_raw(p)
        assert p.min() > 100.0 * eps
        assert_same_bits(_kl_bracket_raw(p, steps, eta, "periodic", eps),
                         reference_bracket(p, steps, eta, "periodic", eps))

    @pytest.mark.parametrize("policy", ["floor", "extrap", "periodic"])
    def test_all_zero_density(self, policy):
        # p, both shifts and the floor edge fill clamp to the 1e-300 floor, so
        # every ratio is 0 and so is the bracket, edges included
        p = np.zeros(64)
        eps = _floor_raw(p)
        got = _kl_bracket_raw(p, 5, 0.6, policy, eps)
        assert_same_bits(got, reference_bracket(p, 5, 0.6, policy, eps))
        assert np.all(got == 0.0)

    @given(
        p=degenerate_densities(),
        data=st.data(),
        eta=st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
        block=st.integers(1, 7),
    )
    @settings(max_examples=200, deadline=None)
    def test_small_blocks_match_reference(self, p, data, eta, block):
        # blocks of 1-7 points cut the 8-48-point densities unevenly; floor,
        # threshold and zero points sit on both sides of some block edges
        n = p.size
        edges = block_edges(n, block)
        on_edges = data.draw(st.lists(st.sampled_from(edges), max_size=4))
        eps = _floor_raw(p)
        for e in on_edges:
            p[e - 1: e + 1] = data.draw(st.sampled_from([0.0, eps, 100.0 * eps]))
        eps = _floor_raw(p)
        steps = data.draw(st.integers(1, n - 1))
        with pytest.MonkeyPatch.context() as mp, np.errstate(all="ignore"):
            mp.setattr(nonlinearity, "_BLOCK", block)
            for policy in ("floor", "extrap", "periodic"):
                for s in (steps, -steps):
                    assert_same_bits(_kl_bracket_raw(p, s, eta, policy, eps),
                                     reference_bracket(p, s, eta, policy, eps))

    @pytest.mark.parametrize("policy", ["floor", "extrap", "periodic"])
    def test_three_blocks_with_a_node(self, policy):
        # 2 _BLOCK + 3 points: three blocks, the node (an exact zero) on the
        # first edge, tails under 100x the floor in the first and last blocks
        n = 2 * nonlinearity._BLOCK + 3
        edge = block_edges(n, nonlinearity._BLOCK)[0]
        u = (np.arange(n) - edge) / (n / 16.0)
        p = u**2 * np.exp(-(u**2))
        assert p[edge] == 0.0
        eps = _floor_raw(p)
        assert (p[-1000:] < 100.0 * eps).all() and (p[-1000:] > 0.0).all()
        for eta in (0.3, 0.8):
            for steps in (700, -700, 1):
                with np.errstate(all="ignore"):
                    expected = reference_bracket(p, steps, eta, policy, eps)
                assert_same_bits(_kl_bracket_raw(p, steps, eta, policy, eps), expected)


def _oracle_states():
    """(label, density, steps, policy) of the accuracy oracle: the
    criterion-12 exact half-line state (nodes every 8 points), x^2 exp(-x^2)
    with its node on the middle grid point, a Gaussian longer than one block
    and the skewed periodic density."""
    params = make_params(0.1, 0.8)
    g = Grid(x_min=0.0, dx=0.8 * 0.1 / 16, n_points=144 * 16 + 1, boundary="dirichlet")
    exact = density(build_exact_state(ExactSolutionSpec(kappa=1.0, params=params), g)).values
    x = np.linspace(-8.0, 8.0, 16385)
    x_long = np.linspace(-8.0, 8.0, 131073)
    skewed = skewed_density(periodic_grid(width=2 * np.pi, n=2304, x_min=0.0)).values
    return [
        ("exact-floor", exact, 16, "floor"),
        ("exact-extrap", exact, 16, "extrap"),
        ("node-16385", x**2 * np.exp(-(x**2)), 64, "floor"),
        ("gauss-131073", np.exp(-(x_long**2)), 512, "floor"),
        ("skewed-1", skewed, 1, "periodic"),
        ("skewed-16", skewed, 16, "periodic"),
    ]


class TestBracketAccuracy:
    """The float64 bracket against the np.longdouble literal form of the same
    clamped densities, within 1e-12 of the largest |bracket|."""

    @pytest.mark.parametrize("eta", [0.2, 0.5, 0.8, 1.0])
    def test_within_bound_of_longdouble_oracle(self, eta):
        for label, p, steps, policy in _oracle_states():
            eps = _floor_raw(p)
            got = _kl_bracket_raw(p, steps, eta, policy, eps)
            ref = longdouble_bracket(p, steps, eta, policy, eps)
            err = float(np.abs(got - ref).max() / np.abs(ref).max())
            assert err < 1e-12, label

    # where cal_E/eta^4 is largest: the float kernel's two O(eta) terms cancel
    # to an O(eta^2) bracket. Each bound sits just above the error of the
    # oracle's own grouping run in float64 (5.3e-10, 4.0e-11 and 4.9e-12, on
    # the skewed density at one step), so the kernel's grouping may not lose
    # digits against it; the kernel reads 4.5e-10, 4.4e-11 and 4.0e-12
    @pytest.mark.parametrize("eta, bound", [(1e-4, 6e-10), (1e-3, 5e-11), (0.01, 6e-12)])
    def test_small_eta_within_bound_of_log1p_oracle(self, eta, bound):
        for label, p, steps, policy in _oracle_states():
            eps = _floor_raw(p)
            got = _kl_bracket_raw(p, steps, eta, policy, eps)
            ref = longdouble_log1p_bracket(p, steps, eta, policy, eps)
            err = float(np.abs(got - ref).max() / np.abs(ref).max())
            assert err < bound, label


def _energy_errors(p, steps, eta, policy):
    """Errors of _kl_energy_raw and of the float sum of p times the bracket
    against the np.longdouble sum of p times longdouble_bracket, beyond that
    sum's own rounding, over the long double sum of |p bracket|.

    The literal form rounds each of its O(|ln p| + 1) pieces, so where the
    bracket is 0 (a fill equal to p, say) it reads a few long double ulps of
    p (|ln p| + 1) and not 0; the float forms read 0 there."""
    eps = _floor_raw(p)
    with np.errstate(all="ignore"):
        terms = p.astype(np.longdouble) * longdouble_bracket(p, steps, eta, policy, eps)
        bracket_sum = float(np.sum(p * _kl_bracket_raw(p, steps, eta, policy, eps)))
    ref, scale = np.sum(terms), np.sum(np.abs(terms))
    noise = 8 * np.finfo(np.longdouble).eps * np.sum(p * (np.abs(np.log(np.maximum(p, eps))) + 1))
    got = _kl_energy_raw(p, steps, eta, policy, eps, np.flatnonzero(p < eps))
    return tuple(float(max(abs(v - ref) - noise, 0) / scale) if scale else abs(v)
                 for v in (got, bracket_sum))


class TestKLEnergy:
    """_kl_energy_raw sums p times the bracket without evaluating it."""

    @given(
        p=degenerate_densities(),
        data=st.data(),
        # below 0.01 the long double literal form itself loses digits (1e-10 of
        # sum |p bracket| at eta = 1e-4); above 0.999 both float forms lose them
        # next to zeros, as at eta = 1
        eta=st.floats(min_value=0.01, max_value=0.999),
        policy=st.sampled_from(["floor", "extrap", "periodic"]),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_longdouble_sum(self, p, data, eta, policy):
        steps = data.draw(st.integers(1, p.size - 1)) * data.draw(st.sampled_from([1, -1]))
        got, _ = _energy_errors(p, steps, eta, policy)
        assert got <= 1e-13

    @given(
        p=degenerate_densities(),
        data=st.data(),
        policy=st.sampled_from(["floor", "extrap", "periodic"]),
    )
    @settings(max_examples=300, deadline=None)
    def test_eta_one_within_bracket_sum_bound(self, p, data, policy):
        # at eta = 1 both float forms lose digits next to exact zeros, where
        # 1 + x = p+/p is about FLOOR_REL; the summed bracket stays within
        # 1e-4 of sum |p bracket| on these draws, and so does the kernel
        steps = data.draw(st.integers(1, p.size - 1)) * data.draw(st.sampled_from([1, -1]))
        got, bracket_sum = _energy_errors(p, steps, 1.0, policy)
        assert bracket_sum <= 1e-4
        assert got <= 1e-4

    @pytest.mark.parametrize("policy, level", [
        (policy, level) for policy in ("floor", "extrap", "periodic") for level in CONSTANT_LEVELS
        if (policy, level) != ("floor", 0.25)])
    def test_constant_density_exact_zero(self, policy, level):
        # a constant p is its own wrap, and its own extrapolation for steps up
        # to n/2; the all-zero and subnormal levels clamp to the floor fill
        # (at 0.25 that fill breaks the constant, and the bracket is not 0)
        p = np.full(64, level)
        eps = _floor_raw(p)
        for steps in (1, 5, -5, 32):
            assert _kl_energy_raw(p, steps, 0.6, policy, eps, np.flatnonzero(p < eps)) == 0.0

    @pytest.mark.parametrize("policy", ["floor", "extrap", "periodic"])
    @pytest.mark.parametrize("shape", ["gauss", "node"])
    def test_allocation_budget(self, policy, shape):
        # the peak in arrays of N at 131073 points and 512 steps: the clamped
        # padded density and x, whose log1p overwrites the padded array (2.01
        # to 2.03; a separate clamped p and log1p read 3.02 on the node state,
        # whose node below the floor makes the clamp a copy)
        n = 131073
        x = np.linspace(-5.0, 5.0, n)
        p = np.exp(-x**2) * (x**2 if shape == "node" else 1.0)
        eps = _floor_raw(p)
        low = np.flatnonzero(p < eps)
        assert low.size == (shape == "node")
        peak = traced_peak(lambda: _kl_energy_raw(p, 512, 0.8, policy, eps, low))
        assert peak < 2.1 * 8 * n


class TestQuantumPotential:
    def test_constant_zero(self, consts):
        g = periodic_grid(width=4.0, n=128)
        p = Density(g, np.full(128, 0.25))
        assert np.allclose(quantum_potential_term(p, consts).values, 0.0, atol=1e-12)

    def test_exponential_profile(self, consts):
        # p ~ exp(-2 kappa x): (sqrt p)''/sqrt p = kappa^2 exactly
        kappa = 1.0
        g = Grid(x_min=0.0, dx=0.002, n_points=2001, boundary="dirichlet")
        p = np.exp(-2 * kappa * g.x)
        field = quantum_potential_term(Density(g, p), consts).values
        expected = consts.hbar**2 * kappa**2 / (2 * consts.mass)
        interior = slice(1, -1)
        assert np.allclose(field[interior], expected, rtol=1e-6)

    def test_gaussian_profile(self, consts):
        # p ~ exp(-x^2/a^2): QP = (hbar^2/2m)(x^2/a^4 - 1/a^2) to O(dx^2)
        a = 1.0
        errs = []
        for n in (4096, 8192):
            g = periodic_grid(width=16.0, n=n)
            p = gaussian_density(g, sigma=a)
            x = g.x - 3.0  # grid center
            field = quantum_potential_term(p, consts).values
            expected = consts.hbar**2 / (2 * consts.mass) * (x**2 / a**4 - 1 / a**2)
            core = np.abs(x) < 3.5
            errs.append(np.abs(field[core] - expected[core]).max())
        assert errs[1] < 1e-4
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)


class TestFullNonlinearTerm:
    def test_plane_wave_density_zero(self, consts):
        g = periodic_grid(width=4.0, n=128)
        for level in CONSTANT_LEVELS:
            p = Density(g, np.full(128, level))
            f = nonlinear_term_F(p, make_params(0.25, 0.5), consts)
            assert np.abs(f.values).max() < 1e-10, level

    def test_linear_theory_is_zero(self, consts):
        g = periodic_grid(width=4.0, n=128)
        p = gaussian_density(g, sigma=0.5)
        f = nonlinear_term_F(p, None, consts)
        assert np.all(f.values == 0.0)

    def test_terms_are_potentials(self, consts):
        # F multiplies psi as a potential does: each term is a read-only
        # Potential on the density's grid with an empty singular mask
        g = periodic_grid(width=4.0, n=128)
        p = skewed_density(g)
        params = make_params(0.25, 0.5)
        for term in (nonlinear_term_F(p, params, consts), nonlinear_term_F(p, None, consts),
                     regularized_kl_term(p, params), quantum_potential_term(p, consts)):
            assert isinstance(term, Potential) and term.grid == g
            assert not term.singular_mask.any() and not term.values.flags.writeable

    def test_all_zero_density_takes_the_kernel_floor(self, consts):
        # an all-zero density is floored at 1e-300 like in the RHS kernel: the
        # bracket sees the three densities clamped there and vanishes, and so
        # does Q, so F is 0 as on any constant density
        g = periodic_grid(width=4.0, n=128)
        params = make_params(0.25, 0.5)
        f = nonlinear_term_F(Density(g, np.zeros(128)), params, consts)
        assert np.all(f.values == 0.0)

    def test_eta_one_on_a_node_warns_only_unregularized(self, consts):
        # x^2 exp(-x^2) has an exact zero at x = 0, which the points 5 steps
        # away see as a shift; clamped at the floor, it keeps log1p(eta r)
        # off log1p(-1) at eta = 1
        g = Grid(x_min=-4.0, dx=0.01, n_points=801, boundary="periodic")
        p = g.x**2 * np.exp(-g.x**2)
        assert (p == 0.0).any()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            f = nonlinear_term_F(Density(g, p), make_params(0.05, 1.0), consts)
        assert [w.category for w in caught] == [UnregularizedEtaWarning]
        assert np.isfinite(f.values).all()

    def test_underflowing_floor_takes_the_fallback(self, consts):
        # amplitude 1e-160: max p = 1e-320, where FLOOR_REL * max(p)
        # underflows to 0, so the floor falls back to 1e-300
        g = periodic_grid(width=4.0, n=128)
        params = make_params(0.25, 0.5)
        p = (1e-160 * np.exp(-g.x**2)) ** 2
        assert 0.0 < p.max() and 1e-12 * p.max() == 0.0
        assert _floor_raw(p) == 1e-300
        f = nonlinear_term_F(Density(g, p), params, consts)
        assert np.isfinite(f.values).all()

    def test_linear_limit_slope(self, consts):
        # windowed max|F| falls at least linearly over four L-halvings
        sigma = 1.0
        g = periodic_grid(width=10 * sigma, n=2000)
        p = gaussian_density(g, sigma=sigma)
        window = np.abs(g.x - 0.0) <= 4 * sigma
        eta = 0.5
        Ls = [0.64, 0.32, 0.16, 0.08, 0.04]
        maxF = []
        for L in Ls:
            f = nonlinear_term_F(p, make_params(L, eta), consts)
            maxF.append(np.abs(f.values[window]).max())
        slope = np.polyfit(np.log(Ls), np.log(maxF), 1)[0]
        assert slope >= 0.9

    @pytest.mark.parametrize("policy", ["floor", "extrap"])
    @pytest.mark.parametrize("n, shape, budget", [
        (131073, "gauss", 3.1), (131073, "node", 3.1), (2305, "exact", 5.3)])
    def test_allocation_budget(self, consts, policy, n, shape, budget):
        # the peak of _field_raw in arrays of N. Four blocks at 131073 points:
        # the bracket's output, the Q pass's sqrt(p) and stencil (3.00; 4.00
        # with two shifted copies of p). One block at 2305: the padded
        # density, the output, two ratios and a denominator (5.11; 8.05)
        if shape == "exact":
            params = make_params(0.1, 0.8)
            g = Grid(x_min=0.0, dx=0.8 * 0.1 / 16, n_points=n, boundary="dirichlet")
            p = density(build_exact_state(ExactSolutionSpec(kappa=1.0, params=params), g)).values
        else:
            g = Grid(x_min=-8.0, dx=16.0 / (n - 1), n_points=n, boundary="dirichlet")
            p = np.exp(-g.x**2) * (g.x**2 if shape == "node" else 1.0)
            params = make_params(512 * g.dx / 0.8, 0.8)
        steps = params.shift_steps(g)
        peak = traced_peak(lambda: _field_raw(p, g, params, consts, policy, steps))
        assert peak < budget * 8 * n

    @pytest.mark.parametrize("steps", [512, -512])
    def test_periodic_bracket_allocation_budget(self, steps):
        # the peak of the periodic bracket in arrays of N, at either sign:
        # the padded density of N + 2|steps| points, the output and a block's
        # three temporaries (2.61; padding by steps mod N took 4.59 at -512)
        n = 131073
        g = periodic_grid(width=16.0, n=n, x_min=-8.0)
        p = np.exp(-g.x**2)
        eps = _floor_raw(p)
        peak = traced_peak(lambda: _kl_bracket_raw(p, steps, 0.8, "periodic", eps))
        assert peak < 2.8 * 8 * n

    @pytest.mark.parametrize("n", [4096, 2 * nonlinearity._BLOCK + 3])
    @pytest.mark.parametrize("roll", [1, 37, -1001])
    def test_translation_covariance_bits(self, consts, n, roll):
        # F is elementwise in p and its periodic shifts, and the Laplacian
        # wraps with the interior's association, so rolling p rolls F bit
        # for bit, whatever points the bracket's blocks start at
        g = periodic_grid(width=2 * np.pi, n=n, x_min=0.0)
        p = skewed_density(g)
        params = make_params(48 * g.dx / 0.6, 0.6)
        rolled = nonlinear_term_F(Density(g, np.roll(p.values, roll)), params, consts).values
        assert_same_bits(rolled, np.roll(nonlinear_term_F(p, params, consts).values, roll))

    @pytest.mark.parametrize("eta, rate", [(0.5, 2.0), (0.75, 3.9)])
    def test_bracket_tends_to_minus_Q(self, consts, eta, rate):
        # Reginatto (PRA 58, 1775, 1998): as L -> 0 the KL term tends to -Q.
        # The sum falls at least linearly over L-halvings (measured ratios
        # 2.005-2.066), and as L^2 at eta = 3/4, where the parity-odd O(L)
        # part vanishes (3.986-4.007). The grid is longer than one block.
        n = 40000
        g = periodic_grid(width=2 * np.pi, n=n, x_min=0.0)
        assert n > nonlinearity._BLOCK
        p = skewed_density(g)
        q = quantum_potential_term(p, consts).values
        gaps = []
        for steps in (512, 256, 128, 64, 32):
            kl = regularized_kl_term(p, make_params(steps * g.dx / eta, eta)).values
            gaps.append(np.abs(kl + q).max())
        assert all(a >= rate * b for a, b in zip(gaps, gaps[1:]))
        # the KL term itself does not vanish: it matches |Q| at the smallest L
        assert np.abs(kl).max() == pytest.approx(np.abs(q).max(), rel=1e-3)

    def test_small_eta_continuity(self, consts):
        # at fixed L the field approaches the linear-theory zero as eta -> 0
        g = periodic_grid(width=16.0, n=3200)
        p = gaussian_density(g, sigma=1.0)
        L = 0.8
        window = np.abs(g.x - 3.0) <= 4.0  # density is centered mid-domain
        maxes = []
        for eta in (0.2, 0.1, 0.05, 0.025):
            f = nonlinear_term_F(p, make_params(L, eta), consts)
            maxes.append(np.abs(f.values[window]).max())
        assert all(b < a for a, b in zip(maxes, maxes[1:]))
