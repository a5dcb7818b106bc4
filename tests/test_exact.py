import warnings

import numpy as np
import pytest

from infonls import (
    ExactSolutionSpec,
    Grid,
    NonlinearParams,
    PhysConstants,
    Wavefunction,
    alpha_node_indices,
    build_exact_state,
    cotangent_params,
    cotangent_potential,
    degeneracy_check,
    density,
    dt_max,
    evolve,
    exact_energy,
    exact_energy_bounds,
    linear_residual_cotangent,
    nonlinear_residual,
    nonlinear_term_F,
    normalize,
)
from infonls.errors import (
    AllPointsExcludedError,
    DomainTooShortError,
    ParameterDomainError,
)
from infonls.exact import evaluate_alpha
from infonls.grid import FLOOR_REL
from conftest import plane_wave, periodic_grid, traced_peak

# closed-form anchors recomputed independently from
# (cal_E/eta^4) (1 - ln(1 + eta(gamma-1)) - 1/(1 + eta(gamma-1)))
E_ANCHOR = -0.5045725708395438      # kappa=1, eta=0.8, L=0.1, hbar=m=1
LOWER_ANCHOR = -145.90833053991088  # eta=0.8, L=0.1


def params_for(L, eta, consts):
    return NonlinearParams.for_length(L, eta, consts)


def halfline_grid(eta, L, steps, periods):
    dx = eta * L / steps
    return Grid(x_min=0.0, dx=dx, n_points=periods * steps + 1, boundary="dirichlet")


class TestExactEnergy:
    def test_kappa_zero(self, consts):
        assert exact_energy(0.0, params_for(0.1, 0.8, consts), consts) == 0.0

    def test_anchor_value(self, consts):
        e = exact_energy(1.0, params_for(0.1, 0.8, consts), consts)
        assert e == pytest.approx(E_ANCHOR, abs=1e-12)

    def test_large_kappa_approaches_lower_bound(self, consts):
        params = params_for(0.1, 0.8, consts)
        lower, upper = exact_energy_bounds(params, consts)
        e = exact_energy(200.0, params, consts)
        assert e == pytest.approx(lower, rel=1e-10)
        assert upper == 0.0

    def test_lower_bound_anchor(self, consts):
        lower, _ = exact_energy_bounds(params_for(0.1, 0.8, consts), consts)
        assert lower == pytest.approx(LOWER_ANCHOR, abs=1e-9)

    def test_monotone_decreasing_in_kappa(self, consts):
        params = params_for(0.1, 0.8, consts)
        kappas = np.linspace(0.01, 20.0, 60)
        es = [exact_energy(k, params, consts) for k in kappas]
        assert all(b < a for a, b in zip(es, es[1:]))

    def test_range_within_bounds(self, consts):
        params = params_for(0.1, 0.8, consts)
        lower, _ = exact_energy_bounds(params, consts)
        for kappa in (0.01, 0.1, 1.0, 10.0):
            e = exact_energy(kappa / params.L, params, consts)
            assert lower < e < 0.0

    def test_eta_one_rejected(self, consts):
        with pytest.raises(ParameterDomainError):
            exact_energy(1.0, params_for(0.1, 1.0, consts), consts)

    def test_bounds_eta_one_rejected(self, consts):
        with pytest.raises(ParameterDomainError):
            exact_energy_bounds(params_for(0.1, 1.0, consts), consts)

    def test_lower_bound_diverges_towards_eta_one(self, consts):
        lowers = [
            exact_energy_bounds(params_for(0.1, eta, consts), consts)[0]
            for eta in (0.9, 0.99, 0.999)
        ]
        assert lowers[0] > lowers[1] > lowers[2]


class TestBuildExactState:
    def test_boundary_zero_and_norm(self, consts):
        params = params_for(0.1, 0.8, consts)
        g = halfline_grid(0.8, 0.1, 64, 150)
        spec = ExactSolutionSpec(kappa=1.0, params=params)
        psi = build_exact_state(spec, g)
        assert psi.values[0] == 0.0
        assert psi.norm_squared() == pytest.approx(1.0, abs=1e-10)

    def test_density_damped_periodicity(self, consts):
        params = params_for(0.1, 0.8, consts)
        g = halfline_grid(0.8, 0.1, 64, 150)
        psi = build_exact_state(ExactSolutionSpec(kappa=1.0, params=params), g)
        p = np.abs(psi.values) ** 2
        s = 64
        gamma = np.exp(-2 * 1.0 * 0.8 * 0.1)
        interior = p[: -s]
        shifted = p[s:]
        big = interior > 1e-6 * p.max()
        assert np.abs(shifted[big] / interior[big] - gamma).max() < 1e-10 * gamma

    @pytest.mark.parametrize("kappa", [np.nan, 0.0, -1.0, np.inf])
    def test_kappa_refused(self, consts, kappa):
        with pytest.raises(ValueError, match="^kappa must be positive"):
            ExactSolutionSpec(kappa=kappa, params=params_for(0.1, 0.8, consts))

    @pytest.mark.parametrize("alpha, message", [
        (((1, np.nan),), "alpha amplitudes must be finite"),
        (((1, 1.0), (2, np.inf)), "alpha amplitudes must be finite"),
        (((1, 0.0), (3, -0.0)), "alpha amplitudes must not all be zero"),
    ], ids=["nan", "inf", "all-zero"])
    def test_amplitudes_refused(self, consts, alpha, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            ExactSolutionSpec(kappa=1.0, params=params_for(0.1, 0.8, consts), alpha=alpha)

    def test_state_equals_normalize(self, consts):
        # normalized as a real array and converted to complex once, with the
        # bits that normalize gives on the complex array
        g = halfline_grid(0.8, 0.1, 64, 150)
        spec = ExactSolutionSpec(kappa=1.0, params=params_for(0.1, 0.8, consts),
                                 alpha=((1, 1.0), (3, -0.4)))
        raw = np.exp(-spec.kappa * g.x) * evaluate_alpha(spec, g)
        expected = normalize(Wavefunction(g, raw))
        assert build_exact_state(spec, g).values.tobytes() == expected.values.tobytes()

    def test_domain_too_short(self, consts):
        params = params_for(0.1, 0.8, consts)
        g = halfline_grid(0.8, 0.1, 64, 20)  # x_max = 1.6, far too short
        with pytest.raises(DomainTooShortError):
            build_exact_state(ExactSolutionSpec(kappa=1.0, params=params), g)

    def test_node_indices_every_half_period(self, consts):
        params = params_for(0.1, 0.8, consts)
        g = halfline_grid(0.8, 0.1, 64, 150)
        spec = ExactSolutionSpec(kappa=1.0, params=params)
        nodes = alpha_node_indices(spec, g)
        assert np.array_equal(nodes, np.arange(0, g.n_points, 32))


class TestNonlinearResidual:
    def test_exact_state_residual_small(self, consts):
        # acceptance-scale configuration (s=128 -> n = 18433 >= 16384)
        params = params_for(0.1, 0.8, consts)
        g = halfline_grid(0.8, 0.1, 128, 144)
        assert g.n_points >= 16384
        psi = build_exact_state(ExactSolutionSpec(kappa=1.0, params=params), g)
        e = exact_energy(1.0, params, consts)
        res, frac = nonlinear_residual(psi, e, params, consts, 3 * g.dx)
        assert res < 1e-6
        assert frac < 0.15

    def test_wrong_energy_detected(self, consts):
        params = params_for(0.1, 0.8, consts)
        g = halfline_grid(0.8, 0.1, 64, 150)
        psi = build_exact_state(ExactSolutionSpec(kappa=1.0, params=params), g)
        e = exact_energy(1.0, params, consts)
        res, _ = nonlinear_residual(psi, 1.1 * e, params, consts, 3 * g.dx)
        assert res == pytest.approx(0.1, abs=0.05)

    def test_plane_wave_residual(self, consts):
        # checked against the discrete dispersion (the operator the residual
        # samples); the discrete eigenvalue matches hbar^2 k^2 / 2m to O(dx^2)
        g = periodic_grid(width=2 * np.pi, n=2048, x_min=0.0)
        psi, k = plane_wave(g, mode=16)
        params = NonlinearParams.for_length(16 * g.dx / 0.5, 0.5, consts)
        e_cont = consts.hbar**2 * k**2 / (2 * consts.mass)
        e_d = consts.hbar**2 * 2 * (1 - np.cos(k * g.dx)) / (2 * consts.mass * g.dx**2)
        res, _ = nonlinear_residual(psi, e_d, params, consts, 0.0)
        assert res < 1e-8
        assert e_d == pytest.approx(e_cont, rel=1e-3)

    def test_periodic_grid_excludes_no_edge(self, consts):
        # every shift wraps on a periodic grid and the Laplacian wraps too, so
        # neither the first and last eta*L steps nor the endpoints are dropped
        g = periodic_grid(width=2 * np.pi, n=2048, x_min=0.0)
        psi, k = plane_wave(g, mode=16)
        params = NonlinearParams.for_length(128 * g.dx / 0.5, 0.5, consts)
        e_d = consts.hbar**2 * 2 * (1 - np.cos(k * g.dx)) / (2 * consts.mass * g.dx**2)
        res, frac = nonlinear_residual(psi, e_d, params, consts, 0.0)
        assert frac == 0.0
        assert res < 1e-10

    def test_residual_small_across_resolutions(self, consts):
        # the commensurate construction is discretely exact: the residual sits
        # at rounding level at every shift resolution, far below any dx^2 curve
        params = params_for(0.1, 0.8, consts)
        for steps in (32, 64, 128):
            g = halfline_grid(0.8, 0.1, steps, 144)
            psi = build_exact_state(ExactSolutionSpec(kappa=1.0, params=params), g)
            e = exact_energy(1.0, params, consts)
            res, _ = nonlinear_residual(psi, e, params, consts, 3 * g.dx)
            assert res < 1e-9

    def test_off_lattice_zeros_excluded(self, consts):
        # alpha = sin(u) - 0.9 sin(2u) also vanishes where cos(u) = 1/1.8,
        # between grid points: those zeros come from interpolated sign changes
        params = params_for(0.1, 0.8, consts)
        g = halfline_grid(0.8, 0.1, 64, 150)
        spec = ExactSolutionSpec(kappa=1.0, params=params, alpha=((1, 1.0), (2, -0.9)))
        psi = build_exact_state(spec, g)
        e = exact_energy(1.0, params, consts)
        radius = 3 * g.dx
        res, frac = nonlinear_residual(psi, e, params, consts, radius)
        v, x = psi.values.real, g.x
        zeros = list(x[v == 0.0])
        crossings = 0
        for j in range(g.n_points - 1):
            if v[j] * v[j + 1] < 0.0:
                zeros.append(x[j] + v[j] / (v[j] - v[j + 1]) * (x[j + 1] - x[j]))
                crossings += 1
        assert crossings > 0
        excl = np.zeros(g.n_points, dtype=bool)
        for z in zeros:
            excl |= np.abs(x - z) < radius
        steps = params.shift_steps(g)
        excl[:steps] = True
        excl[-steps:] = True
        p = np.abs(psi.values) ** 2
        excl |= p < 100.0 * FLOOR_REL * p.max()
        assert frac == excl.mean()
        assert res < 1e-9

    def test_all_points_excluded(self, consts):
        params = params_for(0.1, 0.8, consts)
        g = halfline_grid(0.8, 0.1, 64, 150)
        psi = build_exact_state(ExactSolutionSpec(kappa=1.0, params=params), g)
        e = exact_energy(1.0, params, consts)
        with pytest.raises(AllPointsExcludedError):
            nonlinear_residual(psi, e, params, consts, 1e9)


class TestAllocationBudget:
    """At N = 76801 the state and the residual allocate little beyond what
    they return; bounds in real arrays of N points, with the measured peaks
    and those of complex-first normalization and an out-of-place defect."""

    params = NonlinearParams.for_length(0.1, 0.8, PhysConstants())
    grid = halfline_grid(0.8, 0.1, 512, 150)
    spec = ExactSolutionSpec(kappa=1.0, params=params)

    def test_build_exact_state(self):
        # 5.0 arrays, against 8.3
        peak = traced_peak(lambda: build_exact_state(self.spec, self.grid))
        assert peak < 6.0 * 8 * self.grid.n_points

    def test_nonlinear_residual(self, consts):
        # 6.7 arrays, most of them the field's, against 8.8
        psi = build_exact_state(self.spec, self.grid)
        e = exact_energy(1.0, self.params, consts)
        radius = 3.0 * self.grid.dx
        peak = traced_peak(lambda: nonlinear_residual(psi, e, self.params, consts, radius))
        assert peak < 7.5 * 8 * self.grid.n_points

    def test_cotangent_potential(self, consts):
        # 4.5 arrays, against 7.2 with boolean-indexed copies
        cot = cotangent_params(1.0, self.params, consts)
        peak = traced_peak(lambda: cotangent_potential(cot, self.grid, 0.4 * self.grid.dx))
        assert peak < 5.0 * 8 * self.grid.n_points


class TestDegeneracy:
    def test_distinct_alphas_share_energy(self, consts):
        params = params_for(0.1, 0.8, consts)
        g = halfline_grid(0.8, 0.1, 64, 150)
        e1, e2, both = degeneracy_check(
            ((1, 1.0),), ((1, 1.0), (2, 0.5)), 1.0, params, consts, grid=g
        )
        assert both
        assert abs(e1 - e2) < 1e-10

    def test_half_period_alpha_same_energy(self, consts):
        params = params_for(0.1, 0.8, consts)
        g = halfline_grid(0.8, 0.1, 64, 150)
        e1, e2, both = degeneracy_check(
            ((1, 1.0),), ((2, 1.0),), 1.0, params, consts, grid=g
        )
        assert both
        assert e1 == e2

    def test_scaled_alpha_same_normalized_state(self, consts):
        params = params_for(0.1, 0.8, consts)
        g = halfline_grid(0.8, 0.1, 64, 150)
        p1 = build_exact_state(ExactSolutionSpec(kappa=1.0, params=params, alpha=((1, 1.0),)), g)
        p2 = build_exact_state(ExactSolutionSpec(kappa=1.0, params=params, alpha=((1, 3.0),)), g)
        assert np.allclose(p1.values, p2.values, atol=1e-14)

    # E1 and E2 are one closed form by construction; the evidence of the
    # degeneracy is each profile's residual at that energy.
    PAIRS = (
        (((1, 1.0),), ((1, 1.0), (2, 0.5))),
        (((1, 1.0),), ((2, 1.0),)),
        (((1, 1.0),), ((1, 1.0), (3, 0.25))),
    )

    def _residuals(self, pair, params, consts, g, scale=1.0):
        e = scale * exact_energy(1.0, params, consts)
        return [
            nonlinear_residual(
                build_exact_state(ExactSolutionSpec(kappa=1.0, params=params, alpha=a), g),
                e, params, consts, 3.0 * g.dx,
            )[0]
            for a in pair
        ]

    @pytest.mark.parametrize("pair", PAIRS)
    def test_each_profile_residual_below_tolerance(self, consts, pair):
        params = params_for(0.1, 0.8, consts)
        g = halfline_grid(0.8, 0.1, 64, 150)
        assert max(self._residuals(pair, params, consts, g)) < 1e-6
        # the residual tells energies apart: 10 % off gives about 0.08
        assert min(self._residuals(pair, params, consts, g, scale=1.1)) > 1e-2
        assert degeneracy_check(*pair, 1.0, params, consts, grid=g)[2]

    @pytest.mark.parametrize("pair", PAIRS)
    def test_tolerance_below_residuals_fails(self, consts, pair):
        params = params_for(0.1, 0.8, consts)
        g = halfline_grid(0.8, 0.1, 64, 150)
        lo, hi = sorted(self._residuals(pair, params, consts, g))
        for tol in (0.5 * lo, lo, hi):
            assert not degeneracy_check(*pair, 1.0, params, consts, grid=g, residual_tol=tol)[2]
        assert degeneracy_check(*pair, 1.0, params, consts, grid=g, residual_tol=2.0 * hi)[2]


class TestCotangent:
    def cot_setup(self, consts):
        # gentle beta: eta=0.8, L=2 -> beta ~ 3.93; domain ends on a node
        eta, L, kappa = 0.8, 2.0, 1.0
        params = params_for(L, eta, consts)
        steps = 5000
        dx = eta * L / steps
        n = int(round(12.0 / dx)) + 1
        g = Grid(x_min=0.0, dx=dx, n_points=n, boundary="dirichlet")
        psi = build_exact_state(ExactSolutionSpec(kappa=kappa, params=params), g)
        return kappa, params, g, psi

    def test_symbolic_identity_numeric(self, consts):
        # (E + (hbar^2/2m) d^2) psi / psi equals A + B cot(beta x)
        kappa, params, g, psi = self.cot_setup(consts)
        cot = cotangent_params(kappa, params, consts)
        e = exact_energy(kappa, params, consts)
        v = psi.values.real
        lap = np.empty_like(v)
        lap[1:-1] = (v[2:] - 2 * v[1:-1] + v[:-2]) / g.dx**2
        lap[0] = lap[1]
        lap[-1] = lap[-2]
        lhs = np.zeros_like(v)
        ok = np.abs(v) > 1e-3 * np.abs(v).max()
        lhs[ok] = e + 0.5 * consts.hbar**2 / consts.mass * lap[ok] / v[ok]
        rhs = cot.A + cot.B / np.tan(cot.beta * g.x + 1e-300)
        rel = np.abs(lhs[ok] - rhs[ok]) / np.abs(rhs[ok]).max()
        assert rel.max() < 1e-5

    def test_small_kappa_limit(self, consts):
        params = params_for(2.0, 0.8, consts)
        cot = cotangent_params(1e-9, params, consts)
        beta = 2 * np.pi / (0.8 * 2.0)
        assert abs(cot.B) < 1e-6
        assert cot.A == pytest.approx(-consts.hbar**2 * beta**2 / (2 * consts.mass), rel=1e-6)

    def test_linear_residual_exact_state(self, consts):
        kappa, params, g, psi = self.cot_setup(consts)
        cot = cotangent_params(kappa, params, consts)
        e = exact_energy(kappa, params, consts)
        res = linear_residual_cotangent(psi, e, cot, consts, 3 * g.dx)
        assert res < 1e-5

    def test_field_converges_to_cotangent_potential(self, consts):
        # F(p) of the single-harmonic state is the linear theory's potential
        # A + B cot(beta x) to O(dx^2): a Potential with no singular point,
        # compared off a fixed node radius, the edge shifts and the deep tail
        eta, L, kappa = 0.8, 2.0, 1.0
        params = params_for(L, eta, consts)
        e = exact_energy(kappa, params, consts)
        cot = cotangent_params(kappa, params, consts)
        gaps = []
        for steps in (1250, 2500, 5000):
            g = halfline_grid(eta, L, steps, 8)
            p = density(build_exact_state(ExactSolutionSpec(kappa=kappa, params=params), g))
            F = nonlinear_term_F(p, params, consts)
            assert not F.singular_mask.any()
            V = cotangent_potential(cot, g, 0.02)
            keep = ~V.singular_mask & (p.values >= 1e-8 * p.values.max())
            keep[:steps] = keep[-steps:] = False
            gaps.append(float(np.abs(F.values - V.values)[keep].max()) / abs(e))
        assert gaps[0] / gaps[1] >= 3.5 and gaps[1] / gaps[2] >= 3.5
        assert gaps[2] < 1e-4

    def test_wrong_beta_detected(self, consts):
        kappa, params, g, psi = self.cot_setup(consts)
        cot = cotangent_params(kappa, params, consts)
        bad = type(cot)(A=cot.A, B=cot.B, beta=2 * cot.beta)
        e = exact_energy(kappa, params, consts)
        res = linear_residual_cotangent(psi, e, bad, consts, 3 * g.dx)
        assert res > 0.1

    def test_box_limit_residual(self, consts):
        # B = 0, constant potential: sine in a box against the discrete
        # eigenvalue of the central-difference operator
        n = 2048
        W = 1.0
        dx = W / (n + 1)
        g = Grid(x_min=dx, dx=dx, n_points=n, boundary="dirichlet")
        k = 3 * np.pi / W
        psi = normalize(Wavefunction(g, np.sin(k * g.x).astype(complex)))
        e_d = consts.hbar**2 * 2 * (1 - np.cos(k * dx)) / (2 * consts.mass * dx**2)
        cot = cotangent_params(1e-9, NonlinearParams.for_length(2.0, 0.8, consts), consts)
        flat = type(cot)(A=0.0, B=0.0, beta=cot.beta)
        res = linear_residual_cotangent(psi, e_d, flat, consts, 0.4 * dx)
        assert res < 1e-8

    def test_singular_set_equals_node_set(self, consts):
        kappa, params, g, psi = self.cot_setup(consts)
        cot = cotangent_params(kappa, params, consts)
        V = cotangent_potential(cot, g, 0.25 * g.dx)
        spec = ExactSolutionSpec(kappa=kappa, params=params)
        nodes = alpha_node_indices(spec, g)
        assert np.array_equal(np.where(V.singular_mask)[0], nodes)

    def test_singular_set_on_odd_steps_grid(self, consts):
        # 501 steps per shift: the sine's half-period zeros fall between
        # grid points, so both the mask and the node set hold only the
        # multiples of eta*L
        eta, L, kappa = 0.3, 2.0, 1.0
        params = params_for(L, eta, consts)
        g = halfline_grid(eta, L, 501, 30)
        cot = cotangent_params(kappa, params, consts)
        V = cotangent_potential(cot, g, 0.25 * g.dx)
        nodes = alpha_node_indices(ExactSolutionSpec(kappa=kappa, params=params), g)
        assert nodes.size == 31
        assert np.array_equal(np.where(V.singular_mask)[0], nodes)

    @pytest.mark.parametrize("radius_steps", [0.4, 3.0, 100.0])
    def test_singular_set_off_lattice(self, consts, radius_steps):
        # box-limit grid: x_min = dx and a half period of 1639.2 steps, so
        # no singular point is a grid point; compare with a loop over the
        # multiples of pi/beta
        n = 2048
        dx = 1.0 / (n + 1)
        g = Grid(x_min=dx, dx=dx, n_points=n, boundary="dirichlet")
        cot = cotangent_params(1.0, params_for(2.0, 0.8, consts), consts)
        radius = radius_steps * dx
        V = cotangent_potential(cot, g, radius)
        half_period = np.pi / cot.beta
        ref = np.zeros(n, dtype=bool)
        for m in range(int(g.x[-1] / half_period) + 2):
            ref |= np.abs(g.x - m * half_period) < radius
        assert ref.any() and not ref.all()
        assert np.array_equal(V.singular_mask, ref)
        assert np.isfinite(V.values).all()
        assert np.all(V.values[ref] == 0.0)

    def test_zero_radius_raises(self, consts):
        # x = 0 is singular; unmasked it would make the residual NaN. The
        # error names the radius and the point, with no numpy warning first
        kappa, params, g, psi = self.cot_setup(consts)
        cot = cotangent_params(kappa, params, consts)
        e = exact_energy(kappa, params, consts)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for radius in (0.0, float("nan")):
                match = rf"singular_radius {radius!r} .* x = 0\.0 unmasked"
                with pytest.raises(ParameterDomainError, match=match):
                    linear_residual_cotangent(psi, e, cot, consts, radius)
                with pytest.raises(ParameterDomainError, match=match):
                    cotangent_potential(cot, g, radius)

    def test_zero_radius_valid_off_lattice(self, consts):
        # on the box-limit grid no singular point is a grid point, so a
        # radius of 0 masks nothing and the potential is finite
        n = 2048
        dx = 1.0 / (n + 1)
        g = Grid(x_min=dx, dx=dx, n_points=n, boundary="dirichlet")
        cot = cotangent_params(1.0, params_for(2.0, 0.8, consts), consts)
        V = cotangent_potential(cot, g, 0.0)
        assert not V.singular_mask.any()
        assert np.isfinite(V.values).all()

    def test_linear_evolution_is_a_phase(self, consts):
        # the exact state is an eigenstate of the linear theory: evolving it
        # in the cotangent potential with the nonlinearity off, nodes pinned
        # by the singular mask, only turns its phase at E/hbar
        eta, L, kappa = 0.8, 2.0, 1.0
        params = params_for(L, eta, consts)
        g = Grid(x_min=0.0, dx=eta * L / 500, n_points=3751, boundary="dirichlet")
        psi = build_exact_state(ExactSolutionSpec(kappa=kappa, params=params), g)
        V = cotangent_potential(cotangent_params(kappa, params, consts), g, 0.25 * g.dx)
        e = exact_energy(kappa, params, consts)
        n_steps = 1000
        dt = dt_max(g, consts)
        rep = evolve(psi, V, None, consts, dt, n_steps)
        t = n_steps * dt
        expected = psi.values * np.exp(-1j * e * t / consts.hbar)
        scale = np.abs(psi.values).max()
        motion = np.abs(expected - psi.values).max() / scale
        err = np.abs(rep.final_state.values - expected).max() / scale
        assert motion > 1e-3
        assert err < 1e-2 * motion
