"""Independent finite-difference eigensolver for the partner Hamiltonian.

Discretizes Xi = -d2/dx2 + V(x) with the Numerov scheme (Numerov 1924) and
Dirichlet walls one node beyond the grid: y solves -D2 y + B((V - E) y) = 0,
with D2 the 3-point second difference and B = tridiag(1, 10, 1) / 12, an
O(h^4) scheme.  With q_i = h^2 (V_i - E) and u_i = (1 - q_i/12) y_i this is
the 3-point recurrence -u_{i-1} + (2 + a_i) u_i - u_{i+1} = 0 with
a_i = q_i / (1 - q_i/12), so every pass below runs on a tridiagonal matrix
M(lam) = tridiag(-1, 2 + a_i, -1).  a_i falls with lam while q_i < 12, so
``TridiagonalHamiltonian`` rejects h^2 (max V - min V) >= 12, and Sturm
counts of M(lam) count the levels of the matrix-Numerov operator
-B^{-1} D2 + diag(V) below lam.  V is even, so the matrix splits into two
half-line sectors: an even one on x >= 0 with its centre row halved, and an
odd one on x > 0 with a Dirichlet condition at x = 0.  Levels of a
persymmetric Jacobi matrix alternate in parity, so level j of H is level
j // 2 of the sector with parity j % 2.

Sturm counts use scaled pivots, r_i = a_i + r_{i-1} / (1 + r_{i-1}), a form
that never builds the 2/h^2 diagonal and so loses nothing to cancellation
against it.  A count runs to the outer turning row, then on only until r
leaves (-1, 0): beyond the turn V >= lam, so a_i >= 0, and no pivot after
that can be negative.  The counts at lam = 0 come from one backward pass
from the grid edge, whose pivots on rows 1 .. edge serve both sectors: the
odd count is their negatives, and the even one adds the halved centre row.
That pass, made once per Hamiltonian, is the only count that reads every row.

Eigenvectors come from twisted factorizations (Fernando; Parlett and
Dhillon) in the same r-form: forward pivots from x = 0 to the turning
point, backward pivots from the grid edge, a twist where |gamma_k| is least,
and u as running products of reciprocal pivots out from the twist, so that
M(sigma) u = gamma_k e_k with u_k = 1.  The eigenvector is y = u / (1 - q/12),
and the next shift is the Newton step on the Rayleigh quotient of M(sigma),
E = sigma + 2 gamma_k / (h^2 ||y||^2), with ||y|| taken over the full grid.
Residuals are taken on the sector's rows, row 0 beside its mirror y_1 (even)
or the wall (odd), and only the accepted y is mirrored onto the full grid.

Each level is solved coarse to fine (nested iteration, Brandt) where the
grid allows it.  Its coarse grids, every COARSENING-th node out from x = 0
and so on down, are uncertified seeds: the coarsest takes one twisted step
from a bisection bracket, each finer one step from the level E_c below it,
or from E_c + (E_c - E_cc) / COARSENING**4 where E_c had a seed E_cc too
(Richardson).  The full grid steps from its seed to the residual target;
unless Sturm counts then isolate the level, it bisects and steps from the
bracket.  Each step twists within the turning row of its own shift.

The solver reads nothing but the sampled V in ``H.potential``, so it stays
independent of the closed-form machinery in ``transform``, and agreement
between the two is a real check, not a tautology.  ``bound_levels`` and
``verify`` take a ``transform.Partner``, whose closed forms of one eps on one
grid are computed once; the solver's ``TridiagonalHamiltonian`` is built from
its grid and sampled potential alone; ``bound_levels`` is the one solve.

``verify`` judges the paper's claim: spectrum, closed-form states, intertwining
identity and central-curvature law, each against its entry of
``VERIFY_TOLERANCES``.
The intertwining identity Xi A = A eta is checked as the two pointwise
Darboux identities it is built from, V + V0 = 2 (u'/u)^2 + 2 eps and
V - V0 = -2 (u'/u)', on every node of the grid.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, islice
from typing import Iterable, List, NamedTuple, Optional, Tuple

import numpy as np

from . import wells
from .grids import Grid, first_derivative, mirror, normalized
from .transform import Partner, separatrix_energy

EDGE_EXCLUDE = 3  # nodes dropped at each edge when measuring PDE residuals
BISECTION_MAX_ITER = 200
# Bisection stops once the bracket is this small relative to the level's
# height above min V, and Sturm counts show no other level of the sector
# within SEPARATION bracket widths of it.  Each inverse-iteration step then
# gains at least a factor SEPARATION - 1, and usually about 1/BISECTION_RTOL.
BISECTION_RTOL = 1e-4
SEPARATION = 100.0
INVERSE_ITERATION_MAX_STEPS = 8
# normwise backward error: ||(H - E) y|| <= RESIDUAL_TOL ||H|| ||y||
RESIDUAL_TOL = 1e-13
PIVMIN = 1e-290  # stands in for an exact-zero pivot, which counts as negative
ROW_BLOCK = 256  # rows a Sturm pass converts to Python floats at a time
NUMEROV_POLE = 12.0  # a_i = q_i / (1 - q_i/12) is singular at q_i = 12
# Coarse to fine: a grid first solves on every COARSENING-th node out from
# x = 0 if that grid keeps at least COARSE_MIN_POINTS nodes and
# h_c^2 (max V - min V) <= COARSE_Q_MAX, well below the pole; its level
# seeds the twisted steps on the full grid.
COARSENING = 8
COARSE_MIN_POINTS = 251
COARSE_Q_MAX = 1.0

# verify criteria, in check order: report field -> (tolerance, strict test)
VERIFY_TOLERANCES = {
    "e0_error": (1e-4, operator.lt),
    "e1_error": (1e-4, operator.lt),
    "psi0_overlap": (0.99999, operator.gt),
    "psi1_overlap": (0.99999, operator.gt),
    "psi0_residual": (5e-5, operator.lt),
    "psi1_residual": (5e-5, operator.lt),
    "intertwining_residual": (1e-4, operator.lt),
    "bimodality_rel_err": (1e-5, operator.lt),
}
# the bimodality check is singular where the ground level meets the barrier top
BIMODALITY_SKIP_BAND = 1e-3  # so it is skipped while |s - eps| <= this


class ConvergenceFailure(RuntimeError):
    """Bisection or inverse iteration missed its target; grid or solver bug."""


class BoundStateCountMismatch(RuntimeError):
    """Number of negative eigenvalues disagrees with the analytic count."""


@dataclass(frozen=True)
class TridiagonalHamiltonian:
    """Numerov discretization of -d2/dx2 + V, V even, with Dirichlet walls.

    Holds V itself, so the solver never has to subtract 2/h^2 back out of a
    diagonal; only ``eigen_residual`` writes out the full-grid stencils.
    """

    grid: Grid
    potential: np.ndarray = field(repr=False)

    def __post_init__(self):
        values = np.asarray(self.potential, dtype=float)
        object.__setattr__(self, "potential", values)
        if values.shape != (self.grid.n_points,):
            raise ValueError("potential length does not match grid")
        # the solver only looks at x >= 0
        if not (np.all(np.isfinite(values)) and np.array_equal(values, values[::-1])):
            raise ValueError("potential must be finite and even: V(-x) == V(x)")
        if self.grid.h**2 * (np.max(values) - np.min(values)) >= NUMEROV_POLE:
            raise ValueError("h^2 (max V - min V) must be below 12, the pole of "
                             "the Numerov recurrence")

    @cached_property
    def edge_min(self) -> np.ndarray:
        """min V over x_i .. x_max for each node x_i >= 0; non-decreasing."""
        half = self.potential[self.grid.center_index:]
        return np.minimum.accumulate(half[::-1])[::-1]

    @cached_property
    def bound_counts(self) -> Tuple[int, int]:
        """Levels below 0 of the even and of the odd sector, from one pass.

        Backward pivots 1 + s_i, s_i = a_i + s_{i+1} / (1 + s_{i+1}) at lam = 0,
        run in from the grid edge to row 1.  Rows 1 .. edge are the odd
        sector, so its count is their negative pivots; the even count adds
        the sign of the halved centre row, 0.5 a_0 + s_1 / (1 + s_1).  An
        exact-zero pivot counts as negative.
        """
        a = _sector_rows(self, 0.0, 0).tolist()
        count, s = _negative_pivots(1.0 + a[-1], a[-2:0:-1])
        odd = count + (s <= -1.0)
        return odd + (0.5 * a[0] + s / (1.0 + s or -PIVMIN) <= 0.0), odd

    @cached_property
    def residual_target(self) -> float:
        """RESIDUAL_TOL ||H||, with ||H|| <= 4/h^2 + max |V|."""
        return RESIDUAL_TOL * (4.0 / self.grid.h**2 + float(np.max(np.abs(self.potential))))

    @cached_property
    def coarse(self) -> Optional[TridiagonalHamiltonian]:
        """V on every COARSENING-th node out from x = 0; None if no coarse solve."""
        center = self.grid.center_index
        m = center // COARSENING  # the nodes x = 0, +-8h, ..., +-8mh
        if 2 * m + 1 < COARSE_MIN_POINTS:
            return None
        values = self.potential[center % COARSENING::COARSENING]
        if (COARSENING * self.grid.h)**2 * (np.max(values) - np.min(values)) > COARSE_Q_MAX:
            return None
        x_max = self.grid.x_max * (COARSENING * m / center)
        return TridiagonalHamiltonian(Grid(x_max, 2 * m + 1), values)


def _numerov(y: np.ndarray, v_minus_e: np.ndarray, h: float) -> np.ndarray:
    """-D2 y / h^2 + B((V - E) y) on a run of nodes, with y = 0 beyond both ends."""
    f = v_minus_e * y
    lap, mass = 2.0 * y, 10.0 * f
    lap[:-1] -= y[1:]
    lap[1:] -= y[:-1]
    mass[:-1] += f[1:]
    mass[1:] += f[:-1]
    lap /= h**2  # in place, to allocate less per step
    lap += mass / 12.0
    return lap


def _sector_rows(H: TridiagonalHamiltonian, lam: float, parity: int) -> np.ndarray:
    """a_i = q_i / (1 - q_i/12), q_i = h^2 (V_i - lam), over one sector's rows.

    Even sector: nodes x = 0 .. x_max; odd sector: x = h .. x_max behind a
    Dirichlet wall at x = 0.
    """
    q = H.grid.h**2 * (H.potential[H.grid.center_index + parity:] - lam)
    return q / (1.0 - q / NUMEROV_POLE)


def _turning_row(H: TridiagonalHamiltonian, lam: float, parity: int) -> int:
    """First sector row from which on every row has V_i >= lam, so a_i >= 0.

    Clipped to the sector's last row when V < lam at the grid edge.
    """
    turn = int(np.searchsorted(H.edge_min, lam)) - parity
    return min(max(turn, 0), H.grid.center_index - parity)


def _first_pivot(a0: float, parity: int) -> float:
    """r_0: the even sector's centre row is halved, the odd one sits by a wall."""
    return 0.5 * a0 if parity == 0 else 1.0 + a0


def _negative_pivots(r: float, rows: Iterable[float]) -> Tuple[int, float]:
    """(pivots 1 + r <= 0, last r) of the scaled run from r over ``rows``.

    The pivot before each row is counted, an exact zero as a negative one;
    the pivot of the last r is left to the caller.
    """
    count = 0
    for a_i in rows:
        q = 1.0 + r
        if q <= 0.0:
            count += 1
            if q == 0.0:
                q = -PIVMIN
        r = a_i + r / q
    return count, r


def sturm_count(H: TridiagonalHamiltonian, lam: float, parity: int) -> int:
    """Levels below lam of one sector (0 even, 1 odd): negative pivots 1 + r_i.

    Every level lies above min V, so lam <= min V counts 0 without a pass.
    Above min V every q_i = h^2 (V_i - lam) stays below 12, the pole of a_i,
    since h^2 (max V - min V) < 12.

    Rows 1 .. turn are counted in full, an exact-zero pivot as a negative
    one.  Past the turning row every a_i >= 0, which makes the rest of the
    pass exact without a counter.  After a negative pivot (r <= -1) the
    next r = a_i + r / (1 + r) is >= 0, and an r >= 0 stays >= 0, so no
    later pivot is negative: the pass stops as soon as r leaves (-1, 0),
    counting that one pivot if r <= -1.  While -1 < r < 0 the divisor 1 + r
    is positive, so the tail needs no PIVMIN either.  A lam that is not a
    finite number is a ValueError.
    """
    if not np.isfinite(lam):
        raise ValueError(f"sturm_count needs a finite lam, got {lam!r}")
    if lam <= H.edge_min[0]:  # min V, since V is even
        return 0
    a = _sector_rows(H, lam, parity)
    # converted ROW_BLOCK rows at a time: a pass usually stops well short
    rows = chain.from_iterable(a[i:i + ROW_BLOCK].tolist()
                               for i in range(1, len(a), ROW_BLOCK))
    count, r = _negative_pivots(_first_pivot(float(a[0]), parity),
                                islice(rows, _turning_row(H, lam, parity)))
    for a_i in rows:
        if not -1.0 < r < 0.0:
            break
        r = a_i + r / (1.0 + r)
    return count + (r <= -1.0)


def _bracket(H: TridiagonalHamiltonian, parity: int, index: int) -> float:
    """Lower end of a Sturm-certified bracket around level `index` of one sector.

    A bracket narrower than the residual target is taken even when another
    level shares it: the target cannot tell such levels apart.
    """
    resolution, v_min = H.residual_target, float(H.edge_min[0])
    lo, hi = v_min, 0.0  # -d2/dx2 is positive definite, so v_min < every level
    if v_min >= 0.0 or H.bound_counts[parity] <= index:
        # the Numerov spectrum reaches about 6/h^2: there q_i <= -6, a_i <= -4
        # and every pivot is negative
        hi = float(np.max(H.potential)) + 6.0 / H.grid.h**2
    for _ in range(BISECTION_MAX_ITER):
        if hi - lo <= resolution:
            return lo
        margin = SEPARATION * (hi - lo)
        # no level lies below lo, so the ground level needs no count there
        if (hi - lo <= BISECTION_RTOL * (hi - v_min)
                and _isolated(H, parity, index, v_min if index == 0 else lo - margin,
                              hi + margin)):
            return lo
        mid = 0.5 * (lo + hi)
        if sturm_count(H, mid, parity) > index:
            hi = mid
        else:
            lo = mid
    raise ConvergenceFailure(
        f"bisection for sector {parity} level {index} stalled at "
        f"[{lo!r}, {hi!r}]")


def _isolated(H: TridiagonalHamiltonian, parity: int, index: int,
              lo: float, hi: float) -> bool:
    """Sturm counts show level `index` of one sector, and no other, in [lo, hi].

    The caller knows that some level lies in [lo, hi]: a bracket holds one,
    and so does E -+ delta around a residual-checked E.  So no count is made
    at hi <= 0 when the sector has index + 1 levels below 0.
    """
    return ((hi <= 0.0 and H.bound_counts[parity] == index + 1
             or sturm_count(H, hi, parity) == index + 1)
            and sturm_count(H, lo, parity) == index)


def _pivot_run(r: float, rows: Iterable[float]) -> List[float]:
    """r followed by the scaled pivots r_i it leads to over ``rows``."""
    out = [r]
    for a in rows:
        r = a + r / (1.0 + r or -PIVMIN)
        out.append(r)
    return out


def _twisted_vector(a: np.ndarray, r0: float, turn: int) -> Tuple[np.ndarray, float]:
    """(z, gamma_k) with z_k = 1 and (M - sigma) z = gamma_k e_k, k = argmin |gamma|.

    ``a`` holds the sector's a_i at sigma and r0 its first forward pivot.
    Forward pivots r_i run from x = 0 to row ``turn``, past which the
    eigenvector only decays; backward pivots s_i run in from the grid edge.
    gamma_k = r_k + s_k - a_k, or r_0 + s_1 / (1 + s_1) on the first row.
    Off the twist, z_i = z_{i+1} / (1 + r_i) inward and z_i = z_{i-1} / (1 + s_i)
    outward.
    """
    if len(a) == 1:
        return np.ones(1), 1.0 + r0
    r = np.array(_pivot_run(r0, a[1:turn + 1].tolist()))  # rows 0 .. turn
    backward = _pivot_run(1.0 + float(a[-1]), a[-2:0:-1].tolist())
    s = np.fromiter(reversed(backward), float, len(backward))  # rows 1 ..
    d, e = 1.0 + r, 1.0 + s
    d[d == 0.0] = -PIVMIN
    e[e == 0.0] = -PIVMIN
    gamma = np.concatenate(([r[0] + s[0] / e[0]], r[1:] + s[:turn] - a[1:turn + 1]))
    k = int(np.argmin(np.abs(gamma)))
    z = np.ones(len(a))
    z[:k] = np.cumprod(1.0 / d[:k][::-1])[::-1]
    z[k + 1:] = np.cumprod(1.0 / e[k:])
    return z, float(gamma[k])


def _sector_residual(H: TridiagonalHamiltonian, y: np.ndarray, parity: int,
                     energy: float) -> float:
    """||(H - E) mirror(y, parity)||^2 from y on the nodes x >= 0 alone."""
    ext = np.concatenate(([-y[1] if parity else y[1]], y))  # from x = -h
    r = _numerov(ext, H.potential[H.grid.center_index - 1:] - energy, H.grid.h)[1:]
    return 2.0 * _sum_sq(r) - r[0] * r[0]


def _sum_sq(a: np.ndarray) -> float:
    """sum(a^2) by numpy's pairwise sum; a BLAS dot's digits vary with its threads."""
    return float(np.add.reduce(a * a))


def _twisted_step(H: TridiagonalHamiltonian, parity: int,
                  sigma: float) -> Tuple[float, np.ndarray, float]:
    """(E, y, ||y||^2) of one Newton-shifted twisted step from sigma: y on
    x >= 0, 0 at x = 0 if odd; ||y|| over the full grid, which mirrors y."""
    a = _sector_rows(H, sigma, parity)
    z, gamma = _twisted_vector(a, _first_pivot(float(a[0]), parity),
                               _turning_row(H, sigma, parity))
    y = z * (1.0 + a / NUMEROV_POLE)  # y = u / (1 - q/12)
    norm2 = 2.0 * _sum_sq(y) - (float(y[0] * y[0]) if parity == 0 else 0.0)
    y = np.concatenate(([0.0], y)) if parity else y
    # Newton on the u-form Rayleigh quotient 2 gamma_k / ||u||^2, whose
    # sigma-derivative is -h^2 ||y||^2 / ||u||^2
    return sigma + 2.0 * gamma / (H.grid.h**2 * norm2), y, norm2


def _inverse_iteration(H: TridiagonalHamiltonian, parity: int, index: int,
                       sigma: float) -> Tuple[float, np.ndarray]:
    """(E, y), y on the full grid, once a twisted step from sigma, or from the
    last E, meets the residual target; at most INVERSE_ITERATION_MAX_STEPS."""
    residual, target = np.inf, H.residual_target
    for _ in range(INVERSE_ITERATION_MAX_STEPS):
        energy, y, norm2 = _twisted_step(H, parity, sigma)
        residual = np.sqrt(_sector_residual(H, y, parity, energy) / norm2)
        if residual <= target:
            return energy, mirror(y, parity)
        sigma = energy
    raise ConvergenceFailure(
        f"inverse iteration for sector {parity} level {index} reached residual "
        f"{residual:.3e} after {INVERSE_ITERATION_MAX_STEPS} steps, target {target:.3e}")


def _extrapolated(coarse: float, coarser: Optional[float]) -> float:
    """E_c less its O(h^4) error (Richardson), where it has a coarser level E_cc."""
    return coarse if coarser is None else coarse + (coarse - coarser) / COARSENING**4


def _coarse_level(H: TridiagonalHamiltonian, parity: int,
                  index: int) -> Tuple[float, Optional[float]]:
    """(E, E_c): one uncertified twisted step on a coarse grid, from a bracket or E_c."""
    if H.coarse is None:
        return _twisted_step(H, parity, _bracket(H, parity, index))[0], None
    coarse, coarser = _coarse_level(H.coarse, parity, index)
    return _twisted_step(H, parity, _extrapolated(coarse, coarser))[0], coarse


def _sector_eigenpair(H: TridiagonalHamiltonian, parity: int,
                      index: int) -> Tuple[float, np.ndarray]:
    """(E, y) from the coarse grids' seed, or bisected if Sturm counts refuse it."""
    if H.coarse is not None:
        try:
            seed = _extrapolated(*_coarse_level(H.coarse, parity, index))
            energy, v = _inverse_iteration(H, parity, index, seed)
            delta = BISECTION_RTOL * (energy - float(H.edge_min[0]))
            if _isolated(H, parity, index, energy - delta, energy + delta):
                return energy, v
        except ConvergenceFailure:
            pass  # the coarse grids misled the steps: bisect on this grid
    return _inverse_iteration(H, parity, index, _bracket(H, parity, index))


def _interior(grid: Grid, edge: int, caller: str) -> slice:
    """The nodes left after dropping ``edge`` at each end; raises if none are."""
    if grid.n_points <= 2 * edge:
        raise ValueError(f"{caller} needs a grid of at least {2 * edge + 1} "
                         f"points, got {grid.n_points}")
    return slice(edge, -edge)


def eigen_residual(H: TridiagonalHamiltonian, psi: np.ndarray, energy: float) -> float:
    """Relative l2 residual ||-D2 psi + B((V - E) psi)|| / ||psi|| over interior nodes.

    Three nodes at each edge are excluded: the Dirichlet mismatch dominates
    there, not the PDE error.
    """
    sl = _interior(H.grid, EDGE_EXCLUDE, "eigen_residual")
    r = _numerov(psi, H.potential - energy, H.grid.h)
    return float(np.sqrt(_sum_sq(r[sl]) / _sum_sq(psi[sl])))


def _intertwining_residual(partner: Partner) -> float:
    """Relative max-norm residual of the Darboux identities behind Xi A = A eta.

    With w = u'/u the factorizations eta = A+ A + eps and Xi = A A+ + eps
    read V0 = w^2 + w' + eps and V = w^2 - w' + eps, and (Xi A - A eta) f
    vanishes for every f exactly when both hold.  They are checked on every
    node as their sum, V + V0 = 2 w^2 + 2 eps, which takes no derivative,
    and their difference, V - V0 = -2 w', with w' from ``first_derivative``;
    the result is the larger of the two.  Four nodes at each edge are left
    out, which covers that stencil's two lower-order rows there.
    """
    sl = _interior(partner.grid, EDGE_EXCLUDE + 1, "the intertwining check")
    v, v0, w = partner.potential, partner.base_well, partner.w
    dw = first_derivative(w, partner.grid.h)
    return max(_relative_max(v + v0 - 2.0 * w * w - 2.0 * partner.epsilon, v + v0, sl),
               _relative_max(v - v0 + 2.0 * dw, v - v0, sl))


def _relative_max(error: np.ndarray, scale: np.ndarray, sl: slice) -> float:
    """max |error| / max |scale| over the nodes in ``sl``; max |error| if scale is 0."""
    err, top = float(np.max(np.abs(error[sl]))), float(np.max(np.abs(scale[sl])))
    return err / top if top else err


class BoundLevels(NamedTuple):
    """Both levels, their errors against eps and -1, H and the raw eigenvectors."""

    e0_numeric: float
    e1_numeric: float
    e0_error: float
    e1_error: float
    H: TridiagonalHamiltonian
    y0: np.ndarray
    y1: np.ndarray


def bound_levels(partner: Partner) -> BoundLevels:
    """The oracle's two bound levels of the partner's sampled potential.

    ``Partner.check_grid`` checks the closed-form states first, so
    GridTooNarrow and GridTooCoarse come before any solver arithmetic.  Every
    eps < -1 has two bound states, at eps and -1, so any other count of levels
    below the continuum threshold 0 is BoundStateCountMismatch.
    """
    eps_val = partner.epsilon
    partner.check_grid()
    H = TridiagonalHamiltonian(partner.grid, partner.potential)
    negatives = sum(H.bound_counts)
    if negatives != 2:
        raise BoundStateCountMismatch(
            f"expected 2 bound states for eps={eps_val}, found {negatives}")
    (e0, y0), (e1, y1) = (_sector_eigenpair(H, parity, 0) for parity in (0, 1))
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
    psi0_overlap: float
    psi1_overlap: float
    gap_numeric: float
    intertwining_residual: float
    bimodality_lhs: float
    bimodality_rhs: float
    bimodality_rel_err: float

    @property
    def checks(self) -> Tuple[Check, ...]:
        """One record per VERIFY_TOLERANCES entry that applies, in order."""
        skip_bimodality = (abs(separatrix_energy(self.epsilon) - self.epsilon)
                           <= BIMODALITY_SKIP_BAND)
        out = []
        for name, (tolerance, within) in VERIFY_TOLERANCES.items():
            if name == "bimodality_rel_err" and skip_bimodality:
                continue
            value = getattr(self, name)
            out.append(Check(name, value, tolerance, within(value, tolerance)))
        return tuple(out)

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)


def verify(partner: Partner) -> VerifyReport:
    """The spectrum, intertwining and curvature-law checks of one partner.

    The partner carries the closed forms through all of them; the
    intertwining residual is that of the two pointwise Darboux identities,
    so it needs no test function.
    """
    eps_val, h = partner.epsilon, partner.grid.h
    e0, e1, e0_error, e1_error, H, y0, y1 = bound_levels(partner)
    psi0, psi1 = partner.psi0, partner.psi1
    return VerifyReport(  # the fields in order
        eps_val, eps_val, -1.0, e0, e1, e0_error, e1_error,
        eigen_residual(H, psi0, eps_val), eigen_residual(H, psi1, -1.0),
        # overlaps by numpy's pairwise sums: a BLAS dot's digits vary with its threads
        abs(float(np.trapezoid(normalized(y0, h) * psi0, dx=h))),
        abs(float(np.trapezoid(normalized(y1, h) * psi1, dx=h))),
        e1 - e0, _intertwining_residual(partner), *wells.check_bimodality_relation(partner))
