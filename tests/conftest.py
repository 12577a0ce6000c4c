import functools

import numpy as np
import pytest

from shallowdw import ComplexWave, Grid, Partner, verify_spectrum


@pytest.fixture(scope="session")
def default_grid():
    return Grid.default()


@functools.lru_cache(maxsize=None)
def cached_report(eps: float, x_max: float = 20.0, n_points: int = 4001):
    """Share eigensolver runs between test modules."""
    return verify_spectrum(Partner(eps, Grid.symmetric(x_max, n_points)))


def lc_state(eps, grid, t) -> ComplexWave:
    """Equal-weight superposition of the two bound states at time t.

    Normalized for every t (orthonormal components, unitary phases).  With
    left_well_probability, the frame-by-frame reference for evolve_series.
    """
    partner = Partner(eps, grid)
    samples = np.sqrt(0.5) * (np.exp(-1j * partner.epsilon * t) * partner.psi0.samples
                              + np.exp(1j * t) * partner.psi1.samples)
    return ComplexWave(grid, samples, normalized=True)


def left_well_probability(psi: ComplexWave) -> float:
    """Probability of finding the particle at x <= 0.

    Trapezoid rule over [x_min, 0]; the node at x = 0 naturally carries
    half weight as the subinterval endpoint.
    """
    mid = psi.grid.center_index
    return float(np.trapezoid(psi.density()[: mid + 1], dx=psi.grid.h))
