#!/usr/bin/env python3
"""Scan the first-order energy shift of the first excited harmonic state over
eta and compare its shape with the closed-form node profile.

Writes a CSV next to the chosen output directory and prints the measured
minimizer next to the closed-form value (7 + sqrt 33)/16 ~ 0.7965.
"""

import argparse
from pathlib import Path

import numpy as np

from infonls import (
    Grid,
    NonlinearParams,
    PhysConstants,
    characteristic_length,
    first_order_shift_numeric,
    harmonic_potential,
    minimize_over_eta,
    node_shift_eta_profile,
    resample_state,
    solve_linear_spectrum,
)
from infonls.sweeps import emit_results


def excited_state(consts, dx_fine):
    n_c = 8192
    g_c = Grid(x_min=-10.0, dx=20.0 / (n_c + 1), n_points=n_c, boundary="dirichlet")
    sol = solve_linear_spectrum(harmonic_potential(g_c, consts), g_c, consts, 2)
    a = characteristic_length(sol.states[0])
    p1 = np.abs(sol.states[1].values) ** 2
    ok = np.where(p1 / p1.max() >= 3e-11)[0]
    half = min(-g_c.x[ok[0]], g_c.x[ok[-1]])
    n_half = int(np.ceil(half / dx_fine))
    fine = Grid(x_min=-n_half * dx_fine, dx=dx_fine, n_points=2 * n_half + 1,
                boundary="dirichlet")
    return resample_state(sol.states[1], fine), a


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out/eta_scan", help="output directory")
    ap.add_argument("--L-over-a", type=float, default=1e-3)
    args = ap.parse_args()

    consts = PhysConstants()
    # eta grid commensurate with a single fine spacing: eta = k/40, shift = 2k steps
    etas = [k / 40 for k in range(2, 40)]
    L = args.L_over_a  # harmonic a = 1 in natural units
    dx = L / 80
    state, a = excited_state(consts, dx)
    print(f"well length scale a = {a:.6f}, L = {L:.1e}, fine dx = {dx:.2e}")

    rows = []
    for eta in etas:
        params = NonlinearParams.for_length(L, eta, consts)
        res = first_order_shift_numeric(state, params, consts)
        rows.append((res.eta, res.L, 1, res.delta_E))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = emit_results(rows, "shift_result", out / "shift_result.csv")

    shifts = np.array([r[3] for r in rows])
    eta_best = etas[int(np.argmin(shifts))]
    eta_closed, _ = minimize_over_eta(node_shift_eta_profile)
    print(f"wrote {path}")
    print(f"numeric shift minimum near eta = {eta_best:.3f}")
    print(f"closed-form node-profile minimum at eta = {eta_closed:.6f}")


if __name__ == "__main__":
    main()
