"""Exactly soluble shallow double wells from the sech^2 well.

A one-parameter family of symmetric shallow double-well potentials with two
closed-form bound states, an independent finite-difference eigensolver to
verify them, an interval classification of the wells, and the two-level
inter-well oscillation of the equal-weight superposition.
"""

from .dynamics import OscillationSeries, analytic_period, evolve_series
from .grids import Grid, GridTooCoarse, GridTooNarrow
from .oracle import (
    BoundStateCountMismatch,
    ConvergenceFailure,
    TridiagonalHamiltonian,
    eigen_residual,
    sturm_count,
)
from .transform import (
    InvalidEpsilon,
    Partner,
    curvature_at_origin,
    potential,
    potential_log_form,
    separatrix_energy,
)
from .wells import (
    WellClassification,
    WellKind,
    check_bimodality_relation,
    classify,
    count_density_maxima,
)

__version__ = "0.1.0"

__all__ = [
    "BoundStateCountMismatch",
    "ConvergenceFailure",
    "Grid",
    "GridTooCoarse",
    "GridTooNarrow",
    "InvalidEpsilon",
    "OscillationSeries",
    "Partner",
    "TridiagonalHamiltonian",
    "WellClassification",
    "WellKind",
    "analytic_period",
    "check_bimodality_relation",
    "classify",
    "count_density_maxima",
    "curvature_at_origin",
    "eigen_residual",
    "evolve_series",
    "potential",
    "potential_log_form",
    "separatrix_energy",
    "sturm_count",
]
