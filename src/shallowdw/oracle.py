"""Independent finite-difference eigensolver for the partner Hamiltonian.

Discretizes Xi = -d2/dx2 + V(x) with the Numerov scheme (Numerov 1924) and
Dirichlet walls one node beyond the grid: y solves -D2 y + B((V - E) y) = 0,
with D2 the 3-point second difference and B = tridiag(1, 10, 1) / 12, an
O(h^4) scheme.  With q_i = h^2 (V_i - E) and u_i = (1 - q_i/12) y_i this is
the 3-point recurrence -u_{i-1} + (2 + a_i) u_i - u_{i+1} = 0 with
a_i = q_i / (1 - q_i/12), so every pass below runs on a tridiagonal matrix
M(lam) = tridiag(-1, 2 + a_i, -1).  a_i falls with lam while q_i is below
its pole at 12, so ``TridiagonalHamiltonian`` rejects h^2 (max V - min V)
>= 12, and Sturm counts of M(lam) count the levels of the matrix-Numerov
operator -B^{-1} D2 + diag(V) below lam.  V is even, so H holds it on x >= 0
and the matrix splits into two half-line sectors: an even one on x >= 0
with its centre row halved, and an odd one on x > 0 with a Dirichlet
condition at x = 0.  Levels of a persymmetric Jacobi matrix alternate in
parity, so level j of H is level j // 2 of the sector with parity j % 2.

Each pass is argued where it runs.  ``_negative_pivots`` runs the scaled
pivots of a Sturm count.  ``TridiagonalHamiltonian.bound_counts`` counts
both sectors' levels below 0 in one backward pass from T.
``_twisted_vector`` solves for an eigenvector by a twisted factorization.
``_free_tail`` picks the rows that a twisted step takes in closed form.
``_twisted_step`` takes the Newton shift.  ``sector_eigenpair`` steps a
level from the caller's shift and certifies it by Sturm counts, or bisects.

The solver reads nothing but the grid and V on x >= 0 in ``H.potential``,
and this module imports nothing but numpy, the standard library and
``grids``, so agreement with the closed forms in ``transform`` is a real
check, not a tautology.  The verdicts built on it live in ``wells``.
"""

from __future__ import annotations

import math
import struct
from array import array
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from .grids import ConvergenceFailure, Grid, interior

EDGE_EXCLUDE = 3  # nodes dropped at each edge when measuring PDE residuals
BISECTION_MAX_ITER = 200
INVERSE_ITERATION_MAX_STEPS = 8
# normwise backward error: ||(H - E) y|| <= RESIDUAL_TOL ||H|| ||y||
RESIDUAL_TOL = 1e-13
PIVMIN = 1e-290  # an exact-zero pivot's stand-in (``_negative_pivots``)
NUMEROV_POLE = 12.0  # a_i = q_i / (1 - q_i/12) is singular at q_i = 12
EPS_MACH = float(np.finfo(float).eps)
TAIL_BLOCK = 64  # rows per block in the search for a twisted step's free tail


@dataclass(frozen=True)
class TridiagonalHamiltonian:
    """Numerov discretization of -d2/dx2 + V, V even, with Dirichlet walls; it
    holds V on x >= 0, and only ``_sector_residual`` writes out the stencils."""

    grid: Grid
    potential: np.ndarray = field(repr=False)

    def __post_init__(self):
        values = np.asarray(self.potential, dtype=float)
        object.__setattr__(self, "potential", values)
        if values.shape != (self.grid.center_index + 1,):
            raise ValueError("potential must hold V on the grid's x >= 0 nodes")
        if not np.all(np.isfinite(values)):
            raise ValueError("potential must be finite")
        if self.grid.h**2 * (np.max(values) - np.min(values)) >= NUMEROV_POLE:
            raise ValueError("h^2 (max V - min V) must be below 12, the pole of "
                             "the Numerov recurrence")

    @cached_property
    def edge_min(self) -> np.ndarray:
        """min V over x_i .. x_max for each node x_i >= 0; non-decreasing."""
        return np.minimum.accumulate(self.potential[::-1])[::-1]

    @cached_property
    def bound_counts(self) -> Tuple[int, int]:
        """Levels below 0 of the even and of the odd sector, from one backward
        pass of scaled pivots 1 + s_i (``_negative_pivots``) at lam = 0.

        The pass from s_{T+1} over rows T .. 1 counts the odd sector, rows
        1 .. edge, by its negative pivots; the even count adds the sign of
        the halved centre row, 0.5 a_0 + s_1 / (1 + s_1).  T is the last row
        where 2 + a_T != 2, and the rows past it are free rows: 2 + a_i
        rounds to 2 there, so they are a_i = 0 within the count's own
        backward error.  Their pivots, j rows in from the edge, are
        (j + 2) / (j + 1), all positive, so the pass starts from
        s_{T+1} = 1 / (edge - T).  With no free rows it starts at the wall,
        from s_edge = 1 + a_edge.
        """
        a = _sector_rows(self, 0.0, 0)
        edge = len(a) - 1
        bound = np.flatnonzero(2.0 + a[1:] != 2.0)
        top = int(bound[-1]) + 1 if len(bound) else 0  # T
        s, start = (1.0 / (edge - top), top + 1) if top < edge else (1.0 + float(a[-1]), edge)
        count, s = _negative_pivots(s, _packed(a[start - 1:0:-1]))
        odd = count + (s <= -1.0)
        return odd + (0.5 * float(a[0]) + s / (1.0 + s or -PIVMIN) <= 0.0), odd

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
    """a_i = q_i / (1 - q_i/12), q_i = h^2 (V_i - lam), over one sector's rows."""
    q = H.grid.h**2 * (H.potential[parity:] - lam)
    return q / (1.0 - q / NUMEROV_POLE)


def _turning_row(edge_min: np.ndarray, lam: float, parity: int) -> int:
    """First sector row from which on every row has V_i >= lam, so a_i >= 0;
    the sector's last row when V < lam at the grid edge."""
    turn = int(np.searchsorted(edge_min, lam)) - parity
    return min(max(turn, 0), len(edge_min) - 1 - parity)


def _first_pivot(a0: float, parity: int) -> float:
    """r_0: the even sector's centre row is halved, the odd one sits by a wall."""
    return 0.5 * a0 if parity == 0 else 1.0 + a0


def _packed(rows: np.ndarray) -> array:
    """rows as a packed array of doubles, which a pass reads one float at a
    time where ``tolist`` would build them all before it starts."""
    return array("d", rows.tobytes())


def _unpacked(run: List[float]) -> np.ndarray:
    """A pivot run as a float64 array: ``struct`` packs a list of floats
    faster than ``array`` or ``np.array`` convert it."""
    return np.frombuffer(struct.pack(f"{len(run)}d", *run))


def _negative_pivots(r: float, rows: Iterable[float]) -> Tuple[int, float]:
    """(pivots 1 + r <= 0, last r) of the scaled run from r over ``rows``.

    The pivots of M(lam) are d_i = 2 + a_i - 1 / d_{i-1}.  As 1 + r_i, with
    r_i = a_i + r_{i-1} / (1 + r_{i-1}), they never build the 2/h^2 diagonal
    and so lose nothing to cancellation against it.  The pivot before each
    row is counted; an exact zero counts as negative and runs on as -PIVMIN.
    The pivot of the last r is left to the caller.
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
    """Levels below lam of one sector (0 even, 1 odd): one ``_negative_pivots``
    pass over its rows, or none for lam <= min V, as every level lies above
    min V.  A lam that is not a finite number is a ValueError."""
    if not math.isfinite(lam):
        raise ValueError(f"sturm_count needs a finite lam, got {lam!r}")
    if lam <= H.edge_min[0]:  # min V, since V is even
        return 0
    a = _sector_rows(H, lam, parity)
    count, r = _negative_pivots(_first_pivot(float(a[0]), parity), _packed(a[1:]))
    return count + (r <= -1.0)


def _bracket(H: TridiagonalHamiltonian, parity: int, index: int) -> float:
    """Lower end of the bracket of level `index` of one sector that Sturm
    counts bisect down to the residual target (``sector_eigenpair``)."""
    resolution, v_min = H.residual_target, float(H.edge_min[0])
    lo, hi = v_min, 0.0  # -d2/dx2 is positive definite, so v_min < every level
    if v_min >= 0.0 or H.bound_counts[parity] <= index:
        # the Numerov spectrum reaches about 6/h^2: there q_i <= -6, a_i <= -4
        # and every pivot is negative
        hi = float(np.max(H.potential)) + 6.0 / H.grid.h**2
    for _ in range(BISECTION_MAX_ITER):
        if hi - lo <= resolution:
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
    """Sturm counts show level `index` of one sector, and no other, in
    [lo, hi]; the counts it skips are argued in ``sector_eigenpair``."""
    return ((hi <= 0.0 and H.bound_counts[parity] == index + 1
             or sturm_count(H, hi, parity) == index + 1)
            and (index == 0 or sturm_count(H, lo, parity) == index))


def _pivot_run(r: float, rows: Sequence[float]) -> List[float]:
    """r followed by the scaled pivots (``_negative_pivots``) it leads to over ``rows``.

    The run divides by each pivot 1 + r unguarded, so only an exact-zero
    pivot raises; the run is then taken again with that pivot read as
    -PIVMIN, as ``_negative_pivots`` reads it.
    """
    out = [r]
    try:
        out += [r := a + r / (1.0 + r) for a in rows]
    except ZeroDivisionError:
        r = out[0]
        for a in rows:
            r = a + r / (1.0 + r or -PIVMIN)
            out.append(r)
    return out


def _free_theta(a_edge: float) -> float:
    """theta with cosh theta = 1 + a_edge / 2, from sinh(theta / 2) = sqrt(a_edge) / 2."""
    return 2.0 * math.asinh(0.5 * math.sqrt(a_edge))


def _free_pivot(theta: float, m: int) -> float:
    """s on the m-th row in from the edge of a run of free rows, a_i = a_N:
    1 + s = sinh((m + 1) theta) / sinh(m theta), in a form that cannot overflow."""
    return -math.expm1(theta) * (1.0 + math.exp(-(2 * m + 1) * theta)) / math.expm1(-2 * m * theta)


def _free_decay(theta: float, m: int) -> np.ndarray:
    """z_i / z_{N-m+1} on the m - 1 free rows past row N - m + 1, outward:
    sinh(j theta) / sinh(m theta) for j = m - 1 .. 1."""
    j = np.arange(m - 1, 0, -1, dtype=float)
    return np.exp((j - m) * theta) * np.expm1(-2.0 * theta * j) / math.expm1(-2 * m * theta)


def _free_tail(a: np.ndarray, turn: int, rho: float, mu: float) -> int:
    """First row T = turn + a multiple of TAIL_BLOCK past which the sector's
    rows may be taken as free rows a_i = a_N; len(a) - 1, no tail, if none.

    Free rows need a_N > 0.  With cosh theta = 1 + a_N/2 their pivots and z
    have closed forms (``_free_pivot``, ``_free_decay``), and z falls off by
    e^-theta or faster.  Past the turn every a_i >= 0, and each backward
    pivot 1 + s_j is at least e^theta(m_j), m_j = min_{l >= j} a_l: by
    induction in from the edge, 2 + a_j - e^-theta >= 2 cosh theta - e^-theta.
    So with |z| <= 1 at the turn, as it is about a twist at the peak,
    |z_T| <= exp(-sum of theta(m_l) over rows turn + 1 .. T), and the rows
    past T hold ||z_tail||^2 <= z_T^2 / expm1(2 theta(m_{T+1})).  Free rows
    in place of rows past T change the rows by at most d = max_{i > T}
    |a_i - a_N|, which adds at most sqrt(2) d ||z_tail|| to the residual of
    the mirrored z, and 2 d ||z_tail||^2 to 2 gamma_k to first order: T is
    the first row where both stay within rho and mu, for ||y|| >= 1.  The
    bound is taken on blocks of TAIL_BLOCK rows, each at its lowest theta.
    The budgets, in units of M, are a quarter of the residual target for rho
    and a quarter ulp of max(1, |sigma|) on the level for mu.  On a computed
    step, ``_tail_holds`` checks them again with ||z_tail||^2 <= z_{T+1}^2
    (1 + 1 / expm1(2 theta)), theta from a_N; a step that fails is taken
    again on every row.
    """
    last = len(a) - 1
    a_edge = float(a[-1])
    if not a_edge > 0.0 or last - turn <= TAIL_BLOCK:
        return last
    rows = a[turn + 1:]
    starts = np.arange(0, len(rows), TAIL_BLOCK)
    low = np.minimum.accumulate(np.minimum.reduceat(rows, starts)[::-1])[::-1]
    high = np.maximum.accumulate(np.maximum.reduceat(rows, starts)[::-1])[::-1]
    spread = np.maximum(high - a_edge, a_edge - low)
    half = np.arcsinh(0.5 * np.sqrt(low))  # theta / 2
    # spread z_T^2 and g = expm1(2 theta) >= z_T^2 / ||z_tail||^2, compared
    # without dividing by g, which is 0 where low is
    sz2 = spread * np.exp(-4.0 * TAIL_BLOCK * (np.cumsum(half) - half))
    g = np.expm1(4.0 * half)
    fits = (sz2 <= 0.5 * mu * g) & (spread * sz2 <= 0.5 * rho * rho * g)
    j = int(np.argmax(fits))
    return turn + int(starts[j]) if fits[j] else last


def _tail_holds(a: np.ndarray, tail: int, z_free: float, norm2: float,
                rho: float, mu: float) -> bool:
    """``_free_tail``'s recheck on a computed step: z_free = z_{T+1}, norm2 = ||y||^2."""
    spread = float(np.max(np.abs(a[tail + 1:] - a[-1])))
    tail_sq = z_free * z_free * (1.0 + 1.0 / math.expm1(2.0 * _free_theta(float(a[-1]))))
    return (spread * math.sqrt(2.0 * tail_sq) <= rho * math.sqrt(norm2)
            and 2.0 * spread * tail_sq <= mu * norm2)


def _twisted_vector(a: np.ndarray, r0: float, turn: int,
                    tail: int) -> Tuple[np.ndarray, float]:
    """(z, gamma_k) with z_k = 1 and M(sigma) z = gamma_k e_k, k = argmin |gamma|.

    A twisted factorization (Fernando; Parlett and Dhillon) in scaled pivots
    (``_negative_pivots``), a holding the a_i at sigma and r0 the first
    forward pivot.  Forward pivots r_i run from x = 0 to row ``turn``, past
    which the eigenvector only decays; backward pivots s_i run in from row
    ``tail``, past which the rows are free (``_free_tail``), or from the
    grid edge if tail = len(a) - 1.  Twisted at row k the last pivot is
    gamma_k = r_k + s_k - a_k, or r_0 + s_1 / (1 + s_1) on row 0, and
    1 / gamma_k is the k-th diagonal entry of M(sigma)^-1: the least |gamma_k|
    marks a row where the eigenvector is large.  Out from it z_i =
    z_{i+1} / (1 + r_i) inward and z_i = z_{i-1} / (1 + s_i) outward.
    """
    if len(a) == 1:
        return np.ones(1), 1.0 + r0
    last = len(a) - 1
    r = _unpacked(_pivot_run(r0, _packed(a[1:turn + 1])))  # rows 0 .. turn
    if tail < last:
        theta = _free_theta(float(a[-1]))
        top, s_top = tail + 1, _free_pivot(theta, last - tail)
    else:
        top, s_top = last, 1.0 + float(a[-1])  # the edge row
    s = _unpacked(_pivot_run(s_top, _packed(a[top - 1:0:-1])))[::-1]  # rows 1 .. top
    d, e = 1.0 + r, 1.0 + s
    d[d == 0.0] = -PIVMIN
    e[e == 0.0] = -PIVMIN
    gamma = np.concatenate(([r[0] + s[0] / e[0]], r[1:] + s[:turn] - a[1:turn + 1]))
    k = int(np.argmin(np.abs(gamma)))
    z = np.ones(len(a))
    z[:k] = np.cumprod(1.0 / d[:k][::-1])[::-1]
    z[k + 1:top + 1] = np.cumprod(1.0 / e[k:])
    if top < last:
        z[top + 1:] = z[top] * _free_decay(theta, last - tail)
    return z, float(gamma[k])


def _sector_residual(H: TridiagonalHamiltonian, y: np.ndarray, parity: int,
                     energy: float, nodes: slice = slice(None)) -> float:
    """||(H - E) mirror(y, parity)||^2 over the mirror of y's ``nodes``, from y
    on x >= 0 (y_0 = 0 if odd): row 0 beside its mirror y_1 or -y_1, at V_1."""
    ext = np.concatenate(([-y[1] if parity else y[1]], y))  # from x = -h
    v = H.potential - energy
    r = _numerov(ext, np.concatenate((v[1:2], v)), H.grid.h)[1:]
    return _mirrored_sum_sq(r[nodes])


def _mirrored_sum_sq(half: np.ndarray) -> float:
    """sum(a^2) of the even or odd a whose x >= 0 half is ``half``."""
    return 2.0 * _sum_sq(half) - float(half[0] * half[0])


def _sum_sq(a: np.ndarray) -> float:
    """sum(a^2) by numpy's pairwise sum; a BLAS dot's digits vary with its threads."""
    return float(np.add.reduce(a * a))


def _twisted_step(H: TridiagonalHamiltonian, parity: int,
                  sigma: float) -> Tuple[float, np.ndarray, float]:
    """(E, y, ||y||^2) of one Newton-shifted twisted step from sigma: y on
    x >= 0, 0 at x = 0 if odd; ||y|| over the full grid, which mirrors y.

    z comes from ``_twisted_vector`` over the free tail of ``_free_tail``.
    E is the Newton step on the u-form Rayleigh quotient 2 gamma_k / ||u||^2
    of M(sigma), whose sigma-derivative is -h^2 ||y||^2 / ||u||^2:
    E = sigma + 2 gamma_k / (h^2 ||y||^2).
    """
    a = _sector_rows(H, sigma, parity)
    r0, last = _first_pivot(float(a[0]), parity), len(a) - 1
    turn = _turning_row(H.edge_min, sigma, parity)
    budgets = (0.25 * H.residual_target * H.grid.h**2,
               0.25 * EPS_MACH * max(1.0, abs(sigma)) * H.grid.h**2)
    for tail in (_free_tail(a, turn, *budgets), last):
        z, gamma = _twisted_vector(a, r0, turn, tail)
        y = z * (1.0 + a / NUMEROV_POLE)  # y = u / (1 - q/12)
        norm2 = _mirrored_sum_sq(y) if parity == 0 else 2.0 * _sum_sq(y)
        if tail == last or _tail_holds(a, tail, float(z[tail + 1]), norm2, *budgets):
            break
    y = np.concatenate(([0.0], y)) if parity else y
    return sigma + 2.0 * gamma / (H.grid.h**2 * norm2), y, norm2


def _inverse_iteration(H: TridiagonalHamiltonian, parity: int, index: int,
                       sigma: float) -> Tuple[float, np.ndarray]:
    """(E, y), y on x >= 0, once a twisted step from sigma, or from the last
    E, meets the residual target; at most INVERSE_ITERATION_MAX_STEPS."""
    residual, target = np.inf, H.residual_target
    for _ in range(INVERSE_ITERATION_MAX_STEPS):
        energy, y, norm2 = _twisted_step(H, parity, sigma)
        residual = np.sqrt(_sector_residual(H, y, parity, energy) / norm2)
        if residual <= target:
            return energy, y
        sigma = energy
    raise ConvergenceFailure(
        f"inverse iteration for sector {parity} level {index} reached residual "
        f"{residual:.3e} after {INVERSE_ITERATION_MAX_STEPS} steps, target {target:.3e}")


def sector_eigenpair(H: TridiagonalHamiltonian, parity: int, index: int,
                     sigma: float) -> Tuple[float, np.ndarray]:
    """(E, y) of level ``index`` of one sector, y on x >= 0 (y_0 = 0.0 if odd):
    stepped from the shift sigma, or bisected if Sturm counts refuse it.

    The steps stop once the residual meets the target RESIDUAL_TOL ||H||, so
    E lies within that residual of a level (Kahan's residual bound).  The
    level is kept only if Sturm counts over E -+ the target place level
    ``index`` there, and no other (Sturm's theorem; Parlett, *The Symmetric
    Eigenvalue Problem*, ch. 4 and 7); a count's own backward error, about
    eps_mach ||H||, is far below that window.  As a level lies in the
    window, ``_isolated`` skips the count at hi <= 0 in a sector with
    index + 1 levels below 0, and the count at lo for level 0.
    Otherwise, or if the steps miss the target, ``_bracket`` bisects by
    Sturm counts alone down to the target, even when another level shares
    the bracket, as the target cannot tell them apart, and the level is
    stepped from its lower end.  So the shift sets the work, and moves E,
    the last step's Newton estimate, only in its last digits.
    """
    try:
        energy, v = _inverse_iteration(H, parity, index, sigma)
        delta = H.residual_target  # the residual met, so a level is this close
        if _isolated(H, parity, index, energy - delta, energy + delta):
            return energy, v
    except ConvergenceFailure:
        pass  # sigma misled the steps: bisect
    return _inverse_iteration(H, parity, index, _bracket(H, parity, index))


def eigen_residual(H: TridiagonalHamiltonian, y: np.ndarray, parity: int,
                   energy: float) -> float:
    """Relative l2 residual ||-D2 psi + B((V - E) psi)|| / ||psi|| of psi =
    mirror(y, parity), y on x >= 0 (y_0 = 0 if odd), over |x| <= x_max - 3h:
    at the three nodes by each edge the Dirichlet mismatch dominates, not the PDE error."""
    sl = interior(H.grid, EDGE_EXCLUDE, "eigen_residual")
    return float(np.sqrt(_sector_residual(H, y, parity, energy, sl) / _mirrored_sum_sq(y[sl])))
