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

Sturm counts use scaled pivots, r_i = a_i + r_{i-1} / (1 + r_{i-1}), which
never build the 2/h^2 diagonal and so lose nothing to cancellation against
it.  A count walks V as Python floats, converted once per Hamiltonian, to
the outer turning row, then on only until r leaves (-1, 0): past the turn
a_i >= 0, so no later pivot can be negative.  The counts at lam = 0 come
from one pass in from the grid edge, whose pivots on rows 1 .. edge serve
both sectors: the odd count is their negatives, and the even one adds the
halved centre row.  That pass is the only count that reads every row.

Eigenvectors come from twisted factorizations (Fernando; Parlett and
Dhillon) in the same r-form: forward pivots from x = 0 to the turning
point, backward pivots from the grid edge, a twist where |gamma_k| is least,
and u as running products of reciprocal pivots out from the twist, so that
M(sigma) u = gamma_k e_k with u_k = 1.  The eigenvector is y = u / (1 - q/12),
and the next shift is the Newton step on the Rayleigh quotient of M(sigma),
E = sigma + 2 gamma_k / (h^2 ||y||^2), with ||y|| taken over the full grid.
Residuals are taken on the sector's rows, row 0 beside its mirror y_1 (even)
or the wall (odd), and only the accepted y is mirrored onto the full grid.

Each level is stepped from a shift the caller gives, and checked: the
steps stop once the residual meets RESIDUAL_TOL ||H||, so E lies within
that residual of a level (Kahan's residual bound), and the level is kept
only if Sturm counts over E -+ BISECTION_RTOL (E - min V) place level
``index`` of the sector there, and no other (Sturm's theorem; Parlett,
*The Symmetric Eigenvalue Problem*, ch. 4 and 7).  Otherwise, or if the
steps miss the target, the level is bisected from V alone and stepped from
the bracket.  So a shift changes the work, never the level reported: the
closer the shift, the fewer the steps.  E is the Newton estimate of the
last step, so the shift moves it only in its last digits.

The solver reads nothing but the grid and the sampled V in ``H.potential``,
and this module imports nothing but numpy, the standard library and
``grids``, so agreement with the closed forms in ``transform`` is a real
check, not a tautology.  The verdicts built on it live in ``wells``.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice
from typing import Iterable, Iterator, List, Sequence, Tuple

import numpy as np

from .grids import Grid, interior, mirror

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
NUMEROV_POLE = 12.0  # a_i = q_i / (1 - q_i/12) is singular at q_i = 12


class ConvergenceFailure(RuntimeError):
    """Bisection or inverse iteration missed its target; grid or solver bug."""


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
    def count_floats(self) -> Tuple[List[float], List[float]]:
        """V on x >= 0 and ``edge_min`` as Python floats, for Sturm counts."""
        return self.potential[self.grid.center_index:].tolist(), self.edge_min.tolist()

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


def _turning_row(edge_min: Sequence[float], lam: float, parity: int) -> int:
    """First sector row from which on every row has V_i >= lam, so a_i >= 0;
    the sector's last row when V < lam at the grid edge."""
    turn = bisect_left(edge_min, lam) - parity
    return min(max(turn, 0), len(edge_min) - 1 - parity)


def _count_rows(H: TridiagonalHamiltonian, lam: float, parity: int) -> Iterator[float]:
    """``_sector_rows``'s a_i by the same IEEE operations, from ``H.count_floats``."""
    h2 = H.grid.h**2
    for v in islice(H.count_floats[0], parity, None):
        q = h2 * (v - lam)
        yield q / (1.0 - q / NUMEROV_POLE)


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
    finite number is a ValueError.  The a_i come from ``_count_rows``.
    """
    if not math.isfinite(lam):
        raise ValueError(f"sturm_count needs a finite lam, got {lam!r}")
    if lam <= H.count_floats[1][0]:  # min V, since V is even
        return 0
    rows = _count_rows(H, lam, parity)
    count, r = _negative_pivots(_first_pivot(next(rows), parity),
                                islice(rows, _turning_row(H.count_floats[1], lam, parity)))
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
        if (hi - lo <= BISECTION_RTOL * (hi - v_min)
                and _isolated(H, parity, index, lo - margin, hi + margin)):
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
    at hi <= 0 when the sector has index + 1 levels below 0.  Level 0 needs
    no count at lo: no level lies below min V, so one level in (min V, hi]
    is the known one, and it is level 0.
    """
    return ((hi <= 0.0 and H.bound_counts[parity] == index + 1
             or sturm_count(H, hi, parity) == index + 1)
            and (index == 0 or sturm_count(H, lo, parity) == index))


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
                               _turning_row(H.edge_min, sigma, parity))
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


def sector_eigenpair(H: TridiagonalHamiltonian, parity: int, index: int,
                     sigma: float) -> Tuple[float, np.ndarray]:
    """(E, y) of level ``index`` of one sector, y on the full grid: stepped from
    the shift sigma, or bisected if Sturm counts refuse the level reached."""
    try:
        energy, v = _inverse_iteration(H, parity, index, sigma)
        delta = BISECTION_RTOL * (energy - float(H.edge_min[0]))
        if _isolated(H, parity, index, energy - delta, energy + delta):
            return energy, v
    except ConvergenceFailure:
        pass  # sigma misled the steps: bisect
    return _inverse_iteration(H, parity, index, _bracket(H, parity, index))


def eigen_residual(H: TridiagonalHamiltonian, psi: np.ndarray, energy: float) -> float:
    """Relative l2 residual ||-D2 psi + B((V - E) psi)|| / ||psi|| over interior nodes.

    Three nodes at each edge are excluded: the Dirichlet mismatch dominates
    there, not the PDE error.
    """
    sl = interior(H.grid, EDGE_EXCLUDE, "eigen_residual")
    r = _numerov(psi, H.potential - energy, H.grid.h)
    return float(np.sqrt(_sum_sq(r[sl]) / _sum_sq(psi[sl])))
