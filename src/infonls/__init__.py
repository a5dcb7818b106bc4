"""Nonlinear Schrodinger dynamics driven by a shifted relative-entropy
functional: regularized nonlinearity, perturbative energy shifts with
eta-minimization, exact half-line solutions, and a linear cotangent-potential
cross-check.
"""

__version__ = "0.1.0"

from .dynamics import (
    EvolutionReport,
    dt_max,
    evolve,
    harmonic_potential,
    quartic_potential,
    rhs_apply,
    rk4_step,
    zero_potential,
)
from .exact import (
    CotangentPotentialParams,
    ExactSolutionSpec,
    alpha_node_indices,
    build_exact_state,
    cotangent_params,
    cotangent_potential,
    degeneracy_check,
    evaluate_alpha,
    exact_energy,
    exact_energy_bounds,
    linear_residual_cotangent,
    nonlinear_residual,
)
from .grid import (
    Density,
    Grid,
    NonlinearParams,
    PhysConstants,
    Potential,
    Wavefunction,
    density,
    integrate,
    laplacian,
    normalize,
    shift_density,
)
from .measures import (
    FunctionalValue,
    fisher_information,
    functional_derivative,
    kl_divergence_shifted,
    kl_shifted_functional,
    shannon_entropy,
)
from .nonlinearity import (
    nonlinear_term_F,
    quantum_potential_term,
    regularized_kl_term,
)
from .spectra import (
    EigenSolution,
    ShiftResult,
    characteristic_length,
    first_order_shift_numeric,
    minimize_over_eta,
    node_shift_eta_profile,
    nodeless_shift_integral,
    resample_state,
    sho_ground_shift_closed,
    solve_linear_spectrum,
)

__all__ = [name for name in dir() if not name.startswith("_")]
