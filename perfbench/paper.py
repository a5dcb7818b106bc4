"""Closed forms from the paper, written out here rather than imported from
the package, so a defect in the package cannot vouch for itself."""

import math

#: Global minimizer of the node-state profile sqrt(eta(1-eta))(1-4 eta).
ETA_NODE_STAR = (7.0 + math.sqrt(33.0)) / 16.0

#: Global minimizer of the Gaussian profile eta^2 (1-eta)(1-3 eta).
ETA_GAUSS_STAR = (3.0 + math.sqrt(3.0)) / 6.0


def node_profile(eta: float) -> float:
    return math.sqrt(eta * (1.0 - eta)) * (1.0 - 4.0 * eta)


def sho_ground_shift(eta: float, L_over_a: float) -> float:
    """First-order shift of the harmonic ground state, in units of hbar omega."""
    return eta**2 * (1.0 - eta) * (1.0 - 3.0 * eta) / 4.0 * L_over_a**2


def exact_energy(kappa: float, eta: float, L: float, hbar: float = 1.0, mass: float = 1.0) -> float:
    """Eigenvalue of the damped-periodic half-line state."""
    cal_E = hbar**2 / (4.0 * mass * L * L)
    gamma = math.exp(-2.0 * kappa * eta * L)
    d = 1.0 + eta * (gamma - 1.0)
    return cal_E / eta**4 * (1.0 - math.log(d) - 1.0 / d)


def harmonic_level(n: int, hbar: float = 1.0, omega: float = 1.0) -> float:
    return hbar * omega * (n + 0.5)
