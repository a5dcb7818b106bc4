import tracemalloc

import numpy as np
import pytest

from infonls import Density, Grid, PhysConstants, Wavefunction, normalize
from infonls.grid import integrate


@pytest.fixture
def consts():
    return PhysConstants()


def periodic_grid(width=10.0, n=1000, x_min=-5.0):
    return Grid(x_min=x_min, dx=width / n, n_points=n, boundary="periodic")


def _mid(grid):
    return grid.x_min + 0.5 * grid.n_points * grid.dx


def gaussian_density(grid, sigma=1.0, center=None):
    """Normalized density exp(-(x-c)^2 / sigma^2), centered mid-domain by
    default so periodic wraps stay smooth."""
    c = _mid(grid) if center is None else center
    p = np.exp(-((grid.x - c) ** 2) / sigma**2)
    return Density(grid, p / integrate(p, grid))


def gaussian_state(grid, sigma=1.0, center=None, k=0.0):
    """Normalized wavefunction with |psi|^2 of width parameter sigma."""
    c = _mid(grid) if center is None else center
    vals = np.exp(-((grid.x - c) ** 2) / (2.0 * sigma**2)).astype(np.complex128)
    if k:
        vals = vals * np.exp(1j * k * grid.x)
    return normalize(Wavefunction(grid, vals))


def plane_wave(grid, mode: int):
    """Unit-modulus wave commensurate with a periodic grid."""
    k = 2.0 * np.pi * mode / (grid.n_points * grid.dx)
    return normalize(Wavefunction(grid, np.exp(1j * k * grid.x))), k


def skewed_density(grid):
    """Smooth strictly positive periodic density with no symmetry."""
    width = grid.n_points * grid.dx
    u = 2.0 * np.pi * (grid.x - grid.x_min) / width
    p = 1.0 + 0.5 * np.sin(u) + 0.2 * np.cos(2 * u)
    return Density(grid, p / integrate(p, grid))


def traced_peak(fn) -> int:
    """Peak bytes that tracemalloc sees allocated while fn() runs, after one
    warm-up call (numpy reports its array buffers to tracemalloc)."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
