"""Classification of the partner wells and the central-curvature law.

The one-parameter family splits at closed-form thresholds:

    eps <= -3 or eps -> -1 : single well (V''(0) >= 0)
    -2 < eps < -1          : double well, ground level below the barrier top
    -3 < eps < -2          : double well, ground level above the barrier top

with s = V(0) = 2 eps + 2 the barrier-top (separatrix) energy.  The ground
density obeys rho''(0) = 2 (s - eps) rho(0), so its center flips from
minimum (bimodal density) to maximum exactly where the ground level crosses
the barrier top, i.e. at eps = -2.  ``well_kind`` places an eps in these
intervals; ``classify`` and ``two_level_warning``, the ``evolve`` verdict,
both read it, and the density checks read the ground state of a
``transform.Partner``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .transform import Partner, curvature_at_origin, separatrix_energy

PLATEAU_TOL = 1e-13  # first differences below this count as flat


class WellKind(enum.Enum):
    SINGLE_WELL = "single well"
    DOUBLE_WELL_GROUND_BELOW_SEPARATRIX = "double well, ground below separatrix"
    DOUBLE_WELL_GROUND_ABOVE_SEPARATRIX = "double well, ground above separatrix"
    BOUNDARY = "boundary"


@dataclass(frozen=True)
class WellClassification:
    epsilon: float
    kind: WellKind
    separatrix: float
    curvature_origin: float
    density_maxima_count: int


def count_density_maxima(rho: np.ndarray) -> int:
    """Strict local maxima of a sampled density.

    Counts +/- sign changes of the discrete first difference, ignoring
    flat steps below PLATEAU_TOL (floating-point plateaus near symmetric
    peaks would otherwise double-count).
    """
    diffs = np.diff(rho)
    signs = np.sign(diffs)
    signs[np.abs(diffs) <= PLATEAU_TOL] = 0
    signs = signs[signs != 0]
    return int(np.sum((signs[:-1] > 0) & (signs[1:] < 0)))


def well_kind(eps: float) -> WellKind:
    """Place eps in the interval taxonomy.

    The boundary values eps in {-3, -2} are reported as their own kind
    (exact float comparison) rather than forced into either class.
    """
    if eps in (-3.0, -2.0):
        return WellKind.BOUNDARY
    if -2.0 < eps:
        return WellKind.DOUBLE_WELL_GROUND_BELOW_SEPARATRIX
    if -3.0 < eps:
        return WellKind.DOUBLE_WELL_GROUND_ABOVE_SEPARATRIX
    return WellKind.SINGLE_WELL


def two_level_warning(eps: float) -> Optional[str]:
    """Why the two lowest levels of eps make no low-lying two-level system, or None.

    Only a double well whose ground level lies below the barrier top has one.
    """
    if well_kind(eps) is WellKind.DOUBLE_WELL_GROUND_BELOW_SEPARATRIX:
        return None
    return "ground level at or above the central barrier; no low-lying two-level regime"


def classify(partner: Partner) -> WellClassification:
    """The kind of the partner's eps, its closed forms, and its density maxima."""
    eps_val = partner.epsilon
    return WellClassification(
        epsilon=eps_val,
        kind=well_kind(eps_val),
        separatrix=separatrix_energy(eps_val),
        curvature_origin=curvature_at_origin(eps_val),
        density_maxima_count=count_density_maxima(partner.psi0 ** 2),
    )


def check_bimodality_relation(partner: Partner) -> Tuple[float, float, float]:
    """Test rho''(0) = 2 (s - eps) rho(0) on the sampled ground density.

    Returns (lhs, rhs, rel_err): lhs is a 5-point second difference of rho
    at x = 0, rhs the closed form.  A positive lhs means a central density
    minimum (bimodal), negative a central maximum.
    """
    eps_val, grid = partner.epsilon, partner.grid
    mid = grid.center_index
    r = partner.psi0[mid - 2:mid + 3] ** 2
    lhs = (-r[0] + 16 * r[1] - 30 * r[2] + 16 * r[3] - r[4]) / (12 * (grid.h * grid.h))
    rhs = 2.0 * (separatrix_energy(eps_val) - eps_val) * r[2]
    rel_err = abs(lhs - rhs) / max(abs(rhs), 1e-30)
    return float(lhs), float(rhs), float(rel_err)
