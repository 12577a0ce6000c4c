"""The verdicts: classification of the partner wells, the central-curvature
law, and ``verify``, the check of the closed forms against the solver.

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

``bound_levels`` is the one solve of a partner by the independent solver in
``oracle``; solver names are looked up on that module at each call, so a
name patched there is the one called.  Only ``bound_levels`` and ``verify``
import it, so ``classify`` loads no solver.
``verify`` judges the paper's claim: spectrum, closed-form states,
intertwining identity and central-curvature law, each on x >= 0.
``VERIFY_TOLERANCES`` is the one table of its checks: each row names a
``VerifyReport`` field and holds its tolerance and its skip band or None.
A check applies unless |s - eps| <= its band, and passes when its value <
its tolerance (NaN fails); only the curvature law has a band.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple, Optional, Tuple

import numpy as np

from .grids import BoundStateCountMismatch, first_derivative, interior
from .transform import Partner, curvature_at_origin, separatrix_energy

if TYPE_CHECKING:
    from . import oracle

PLATEAU_TOL = 1e-13  # first differences within this share of max |rho| count as flat
# the bimodality check is singular where the ground level meets the barrier top
BIMODALITY_SKIP_BAND = 1e-3  # so it applies only while |s - eps| > this
# verify's checks, in order: report field -> (tolerance, skip band or None)
VERIFY_TOLERANCES = {
    "e0_error": (1e-4, None),
    "e1_error": (1e-4, None),
    "psi0_residual": (5e-5, None),
    "psi1_residual": (5e-5, None),
    "intertwining_residual": (1e-4, None),
    "bimodality_rel_err": (1e-5, BIMODALITY_SKIP_BAND),
}
# the rho''(0) stencil's largest node spacing on fine grids, in units of
# min(1, 1/sqrt|s - eps|), the length of rho's curvature at 0 or the unit
# width of the well: rounding grows like eps_mach / spacing^2, truncation
# like spacing^4
BIMODALITY_SPACING = 2.5e-3


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
    """Strict local maxima of an even sampled density, given by its x >= 0 half.

    Counts each rise followed by a fall among the discrete first
    differences, ignoring flat steps, those within PLATEAU_TOL max |rho|, so
    the count does not depend on the density's scale.  Rounding wiggles at a
    flat peak would otherwise double-count it.  Each maximum in x > 0 counts
    twice, and x = 0 once if the first step that is not flat falls.
    """
    diffs = np.diff(rho)
    rises = diffs[np.abs(diffs) > PLATEAU_TOL * np.max(np.abs(rho), initial=0.0)] > 0.0
    return 2 * int(np.count_nonzero(rises[:-1] & ~rises[1:])) + int(not rises[:1].all())


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
        density_maxima_count=count_density_maxima(partner._psi0_half ** 2),
    )


def check_bimodality_relation(partner: Partner) -> Tuple[float, float, float]:
    """Test rho''(0) = 2 (s - eps) rho(0) on the sampled ground density.

    Returns (lhs, rhs, rel_err): lhs is a 5-point second difference of rho
    on the nodes 0, +-m h and +-2 m h, rhs the closed form.  A positive lhs
    means a central density minimum (bimodal), negative a central maximum.
    m is the largest count with m h max(1, sqrt|s - eps|) <= BIMODALITY_SPACING,
    at least 1 and at most center_index // 2, so m = 1 while h > 1/800.
    """
    eps_val, grid = partner.epsilon, partner.grid
    gap = separatrix_energy(eps_val) - eps_val
    kh = grid.h * max(1.0, np.sqrt(abs(gap)))
    m = max(1, min(int(BIMODALITY_SPACING / kh), grid.center_index // 2))
    r = partner._psi0_half[:2 * m + 1:m] ** 2  # at 0, m h, 2 m h; rho is even
    step = m * grid.h
    lhs = (-r[2] + 16 * r[1] - 30 * r[0] + 16 * r[1] - r[2]) / (12 * (step * step))
    rhs = 2.0 * gap * r[0]
    rel_err = abs(lhs - rhs) / max(abs(rhs), 1e-30)
    return float(lhs), float(rhs), float(rel_err)


def _intertwining_residual(partner: Partner) -> float:
    """Relative max-norm residual of the Darboux identities behind Xi A = A eta.

    With w = u'/u the factorizations eta = A+ A + eps and Xi = A A+ + eps
    read V0 = w^2 + w' + eps and V = w^2 - w' + eps, and (Xi A - A eta) f
    vanishes for every f exactly when both hold.  Both are even, and checked
    on x >= 0 as their sum, V + V0 = 2 w^2 + 2 eps, which takes no
    derivative, and their difference, V - V0 = -2 w', w' by
    ``first_derivative`` with the ghosts w(-h) = -w(h), w(-2h) = -w(2h); the
    result is the larger.  Four edge nodes are left out, which covers that
    stencil's two lower-order rows there.
    """
    sl = interior(partner.grid, 4, "the intertwining check")
    v, v0, w = partner._potential_half, partner._base_half, partner._w_half
    dw = first_derivative(np.concatenate((-w[2:0:-1], w)), partner.grid.h)[2:]
    return max(_relative_max(v + v0 - 2.0 * w * w - 2.0 * partner.epsilon, v + v0, sl),
               _relative_max(v - v0 + 2.0 * dw, v - v0, sl))


def _relative_max(error: np.ndarray, scale: np.ndarray, sl: slice) -> float:
    """max |error| / max |scale| over the nodes in ``sl``; max |error| if scale is 0."""
    err, top = float(np.max(np.abs(error[sl]))), float(np.max(np.abs(scale[sl])))
    return err / top if top else err


class BoundLevels(NamedTuple):
    """Both levels, their errors against eps and -1, and H and the raw eigenvectors on x >= 0."""

    e0_numeric: float
    e1_numeric: float
    e0_error: float
    e1_error: float
    H: oracle.TridiagonalHamiltonian
    y0: np.ndarray
    y1: np.ndarray


def bound_levels(partner: Partner) -> BoundLevels:
    """The oracle's two bound levels of the partner's sampled potential.

    ``Partner.check_grid`` checks the closed-form states first, so
    GridTooNarrow and GridTooCoarse come before any solver arithmetic.  Every
    eps < -1 has two bound states, at eps and -1, so any other count of levels
    below the continuum threshold 0 is BoundStateCountMismatch.  Each level is
    stepped from its closed form, eps or -1, which sets only the solver's work.
    Only ``cli.main`` sets glibc's heap thresholds, so a library caller pays
    glibc's heap trims between the solver's temporaries (``cli._hold_heap``).
    """
    from . import oracle

    eps_val = partner.epsilon
    partner.check_grid()
    H = oracle.TridiagonalHamiltonian(partner.grid, partner._potential_half)
    negatives = sum(H.bound_counts)
    if negatives != 2:
        raise BoundStateCountMismatch(
            f"expected 2 bound states for eps={eps_val}, found {negatives}")
    (e0, y0), (e1, y1) = (oracle.sector_eigenpair(H, parity, 0, sigma)
                          for parity, sigma in ((0, eps_val), (1, -1.0)))
    return BoundLevels(e0, e1, abs(e0 - eps_val), abs(e1 + 1.0), H, y0, y1)


class Check(NamedTuple):
    """One verify criterion applied to one report field."""

    name: str
    value: float
    tolerance: float
    passed: bool


@dataclass(frozen=True)
class VerifyReport:
    """Everything ``verify`` measures; ``checks`` and ``passed`` judge it."""

    epsilon: float
    e0_analytic: float
    e1_analytic: float
    e0_numeric: float
    e1_numeric: float
    e0_error: float
    e1_error: float
    psi0_residual: float
    psi1_residual: float
    gap_numeric: float
    intertwining_residual: float
    bimodality_lhs: float
    bimodality_rhs: float
    bimodality_rel_err: float

    @property
    def checks(self) -> Tuple[Check, ...]:
        """One record per VERIFY_TOLERANCES row that applies to epsilon, in order."""
        gap = abs(separatrix_energy(self.epsilon) - self.epsilon)
        values = {name: getattr(self, name) for name in VERIFY_TOLERANCES}
        return tuple(Check(name, values[name], tolerance, values[name] < tolerance)
                     for name, (tolerance, band) in VERIFY_TOLERANCES.items()
                     if band is None or gap > band)

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)


def verify(partner: Partner) -> VerifyReport:
    """The spectrum, intertwining and curvature-law checks of one partner.

    The partner carries the closed forms through all of them, on x >= 0; the
    intertwining residual, of two pointwise identities, needs no test function.
    """
    from . import oracle

    eps_val, levels = partner.epsilon, bound_levels(partner)
    lhs, rhs, rel_err = check_bimodality_relation(partner)
    return VerifyReport(
        epsilon=eps_val, e0_analytic=eps_val, e1_analytic=-1.0,
        e0_numeric=levels.e0_numeric, e1_numeric=levels.e1_numeric,
        e0_error=levels.e0_error, e1_error=levels.e1_error,
        psi0_residual=oracle.eigen_residual(levels.H, partner._psi0_half, 0, eps_val),
        psi1_residual=oracle.eigen_residual(levels.H, partner._psi1_half, 1, -1.0),
        gap_numeric=levels.e1_numeric - levels.e0_numeric,
        intertwining_residual=_intertwining_residual(partner),
        bimodality_lhs=lhs, bimodality_rhs=rhs, bimodality_rel_err=rel_err)
