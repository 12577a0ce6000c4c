"""Exactly soluble shallow double wells from the sech^2 well.

A one-parameter family of symmetric shallow double-well potentials with two
closed-form bound states, an independent finite-difference eigensolver to
verify them, an interval classification of the wells, and the two-level
inter-well oscillation of the equal-weight superposition.

Importing the package imports none of its modules: each name below, and
each submodule, is imported on first use (PEP 562), so a process loads
only the modules it runs.
"""

import importlib

# module -> the names of it that the package exports.  The solver's two
# failures are defined in grids, so naming them loads no solver.
_EXPORTS = {
    "dynamics": ("OscillationSeries", "analytic_period", "evolve_series"),
    "grids": ("BoundStateCountMismatch", "ConvergenceFailure", "Grid", "GridTooCoarse",
              "GridTooNarrow"),
    "oracle": ("TridiagonalHamiltonian", "eigen_residual", "sturm_count"),
    "transform": ("InvalidEpsilon", "Partner", "curvature_at_origin", "potential",
                  "potential_log_form", "separatrix_energy"),
    "wells": ("WellClassification", "WellKind", "check_bimodality_relation", "classify",
              "count_density_maxima"),
}
_MODULES = ("cli", "dynamics", "floatfmt", "grids", "oracle", "transform", "wells")
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _MODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_MODULES})
