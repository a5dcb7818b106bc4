"""evolve-exact: RK4 propagation of the paper's exact half-line eigenstate.

The damped-periodic state (kappa=1, eta=0.8, L=0.1) on 144 periods of 16
steps (N=2305) with its nodes pinned, the 'extrap' edge policy and
dt = dt_max: the problem of acceptance criterion 12. An eigenstate evolves as
a pure phase, so every pass is checked against exp(-iEt) psi0. The seed does
not enter: the state is the paper's anchor.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

import infonls as nls

import paper
from harness import median

KAPPA, ETA, L = 1.0, 0.8, 0.1
STEPS_PER_SHIFT, PERIODS = 16, 144
#: RK4 steps per timed pass (T = 0.01); one pass takes about 1.5 s.
N_STEPS = 800
#: Probe sizes for the layer table: repetitions of each standalone call, and
#: the length of the evolve calls that give the per-step cost.
PROBE_REPS, PROBE_EVOLVE_CALLS, PROBE_EVOLVE_STEPS = 200, 5, 100
POLICY = "extrap"


@dataclass
class State:
    consts: nls.PhysConstants
    params: nls.NonlinearParams
    grid: nls.Grid
    psi0: nls.Wavefunction
    V: nls.Potential
    dt: float
    energy: float
    check_mask: np.ndarray  # points compared against the phase-evolved state


def setup(ctx) -> State:
    consts = nls.PhysConstants()
    params = nls.NonlinearParams.for_length(L, ETA, consts)
    dx = ETA * L / STEPS_PER_SHIFT
    grid = nls.Grid(x_min=0.0, dx=dx, n_points=PERIODS * STEPS_PER_SHIFT + 1, boundary="dirichlet")
    spec = nls.ExactSolutionSpec(kappa=KAPPA, params=params)
    psi0 = nls.build_exact_state(spec, grid)
    nodes = nls.alpha_node_indices(spec, grid)
    pinned = np.zeros(grid.n_points, dtype=bool)
    pinned[nodes] = True
    V = nls.Potential(grid, np.zeros(grid.n_points), singular_mask=pinned)
    # off nodes (3 points either side) and off the edges the shift leaves
    excl = np.zeros(grid.n_points, dtype=bool)
    for j in nodes:
        excl[max(0, j - 3): j + 4] = True
    excl[:STEPS_PER_SHIFT] = True
    excl[-STEPS_PER_SHIFT:] = True
    return State(
        consts=consts,
        params=params,
        grid=grid,
        psi0=psi0,
        V=V,
        dt=nls.dt_max(grid, consts),
        energy=paper.exact_energy(KAPPA, ETA, L, consts.hbar, consts.mass),
        check_mask=~excl,
    )


def run_pass(st: State, tr, checks) -> dict:
    t0 = time.perf_counter()
    with tr.span("dynamics.evolve"):
        rep = nls.evolve(st.psi0, st.V, st.params, st.consts, st.dt, N_STEPS, policy=POLICY)
    wall = time.perf_counter() - t0
    t_final = N_STEPS * st.dt
    ref = st.psi0.values * np.exp(-1j * st.energy * t_final / st.consts.hbar)
    err = np.abs(rep.final_state.values - ref)[st.check_mask].max() / np.abs(st.psi0.values).max()
    checks.check("evolve phase error < 1e-5", err < 1e-5, f"{err:.3e}")
    drift = float(rep.norm_drift.max())
    checks.check("evolve norm_drift < 1e-8", drift < 1e-8, f"{drift:.3e}")
    checks.check("evolve step count", len(rep.times) == N_STEPS + 1, str(len(rep.times)))
    return {"ops": [wall / N_STEPS], "evolve_steps_per_s": [N_STEPS / wall]}


def layer_table(st: State, tr, checks) -> dict:
    """Standalone calls of each layer on this workload's state (not spans
    inside evolve): per-call medians in microseconds."""
    p = nls.density(st.psi0)
    steps = st.params.shift_steps(st.grid)
    args = (st.V, st.params, st.consts)
    for _ in range(PROBE_REPS):
        with tr.span("grid.density"):
            nls.density(st.psi0)
        with tr.span("grid.shift_density"):
            nls.shift_density(p, steps, POLICY)
        with tr.span("grid.laplacian"):
            nls.laplacian(st.psi0)
        with tr.span("nonlinearity.regularized_kl_term"):
            nls.regularized_kl_term(p, st.params, POLICY)
        with tr.span("nonlinearity.quantum_potential_term"):
            nls.quantum_potential_term(p, st.consts)
        with tr.span("nonlinearity.nonlinear_term_F"):
            nls.nonlinear_term_F(p, st.params, st.consts, POLICY)
        with tr.span("dynamics.rhs_apply"):
            nls.rhs_apply(st.psi0, *args, policy=POLICY)
        with tr.span("dynamics.rk4_step"):
            nls.rk4_step(st.psi0, *args, st.dt, policy=POLICY)
    for _ in range(PROBE_EVOLVE_CALLS):
        with tr.span("dynamics.evolve.probe"):
            nls.evolve(st.psi0, *args, st.dt, PROBE_EVOLVE_STEPS, policy=POLICY)
    us = {name: 1e6 * median(tr.durations(name)) for name in (
        "grid.density", "grid.shift_density", "grid.laplacian",
        "nonlinearity.regularized_kl_term", "nonlinearity.quantum_potential_term",
        "nonlinearity.nonlinear_term_F", "dynamics.rhs_apply", "dynamics.rk4_step",
    )}
    step_us = 1e6 * median(tr.durations("dynamics.evolve.probe")) / PROBE_EVOLVE_STEPS
    out = {f"{name}.us": (v, "us") for name, v in us.items()}
    out["dynamics.evolve.step_us"] = (step_us, "us")
    # the energy diagnostic is the part of an evolve step beyond one RK4 step
    out["dynamics.energy_share"] = ((step_us - us["dynamics.rk4_step"]) / step_us, "ratio")
    return out
