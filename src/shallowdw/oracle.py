"""Independent finite-difference eigensolver for the partner Hamiltonian.

Discretizes Xi = -d2/dx2 + V(x) with the standard 3-point Laplacian and
Dirichlet walls one node beyond the grid.  V is even, so the matrix splits
into two half-line sectors: an even one on x >= 0 with its centre row halved,
and an odd one on x > 0 with a Dirichlet condition at x = 0.  Levels of a
persymmetric Jacobi matrix alternate in parity, so level j of H is level
j // 2 of the sector with parity j % 2.

Each sector level is bracketed by bisection on a Sturm count of scaled
pivots, r_i = a_i + r_{i-1} / (1 + r_{i-1}) with a_i = h^2 (V_i - lam), a
form that never builds the 2/h^2 diagonal and so loses nothing to
cancellation against it.  A count stops at the outer turning point: beyond
it V >= lam, so a_i >= 0, and once r >= 0 no later pivot can be negative.
Only the counts at lam = 0 read every row; each sector's is made once per
Hamiltonian.

Eigenvectors come from twisted factorizations (Fernando; Parlett and
Dhillon) in the same r-form: forward pivots from x = 0 to the turning
point, backward pivots from the grid edge, a twist where |gamma_k| is least,
and the vector as running products of reciprocal pivots out from the twist.
Each vector solves (M - sigma) z = gamma_k e_k, one step of shifted inverse
iteration.  The first shift is the Sturm-certified lower end of the
bracket, each later one the Rayleigh quotient, in Dirichlet form, of the
last vector, which is also the eigenvalue.

The solver reads nothing but the sampled V in ``H.potential``, so it stays
independent of the closed-form machinery in ``transform``, and agreement
between the two is a real check, not a tautology.  ``build_hamiltonian``,
``verify_spectrum``, ``check_intertwining`` and ``verify`` take a
``transform.Partner``, whose closed forms of one eps on one grid are
computed once; ``build_hamiltonian`` keeps only its sampled potential.

``verify`` judges the paper's claim: spectrum, intertwining identity and
central-curvature law, each against its entry of ``VERIFY_TOLERANCES``.
"""

from __future__ import annotations

import operator
from dataclasses import asdict, dataclass, field
from functools import cached_property
from itertools import chain, islice
from typing import Iterable, Iterator, List, NamedTuple, Tuple

import numpy as np

from . import wells
from .grids import Grid, RealWave, first_derivative, second_derivative
from .transform import Partner, apply_a, separatrix_energy

EDGE_EXCLUDE = 3  # nodes dropped at each edge when measuring PDE residuals
BISECTION_MAX_ITER = 200
# Bisection stops once the bracket is this small relative to the level's
# height above min V, and Sturm counts show no other level of the sector
# within SEPARATION bracket widths of it.  Each inverse-iteration step then
# gains at least a factor SEPARATION - 1, and usually about 1/BISECTION_RTOL.
BISECTION_RTOL = 1e-4
SEPARATION = 100.0
INVERSE_ITERATION_MAX_STEPS = 8
# normwise backward error: ||H v - E v|| <= RESIDUAL_TOL ||H|| ||v||
RESIDUAL_TOL = 1e-13
PIVMIN = 1e-290  # stands in for an exact-zero pivot, which counts as negative
ROW_BLOCK = 256  # rows a Sturm pass converts to Python floats at a time

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
    """3-point discretization of -d2/dx2 + V, V even, with Dirichlet walls.

    Holds V itself, so the solver never has to subtract 2/h^2 back out of a
    diagonal; only ``apply`` writes out the stencil 2/h^2 + V and -1/h^2.
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

    @cached_property
    def edge_min(self) -> np.ndarray:
        """min V over x_i .. x_max for each node x_i >= 0; non-decreasing."""
        half = self.potential[self.grid.center_index:]
        return np.minimum.accumulate(half[::-1])[::-1]

    @cached_property
    def bound_counts(self) -> Tuple[int, int]:
        """Levels below 0 of the even and of the odd sector.

        V < 0 on the whole grid for the partner well, so these counts cannot
        stop at a turning point; they are the only full-length passes.
        """
        return sturm_count(self, 0.0, 0), sturm_count(self, 0.0, 1)

    def apply(self, samples: np.ndarray) -> np.ndarray:
        """Matrix-vector product with implicit Dirichlet walls."""
        h2 = self.grid.h**2
        off = 1.0 / h2  # minus the off-diagonal entry
        out = (2.0 / h2 + self.potential) * samples
        out[:-1] -= off * samples[1:]
        out[1:] -= off * samples[:-1]
        return out


def build_hamiltonian(partner: Partner) -> TridiagonalHamiltonian:
    """3-point stencil Hamiltonian: diagonal 2/h^2 + V(x_i), off-diagonal -1/h^2."""
    return TridiagonalHamiltonian(partner.grid, partner.potential)


def _sector_rows(H: TridiagonalHamiltonian, lam: float, parity: int) -> np.ndarray:
    """a_i = h^2 (V_i - lam) over one sector's rows.

    Even sector: nodes x = 0 .. x_max; odd sector: x = h .. x_max behind a
    Dirichlet wall at x = 0.
    """
    return H.grid.h**2 * (H.potential[H.grid.center_index + parity:] - lam)


def _turning_row(H: TridiagonalHamiltonian, lam: float, parity: int) -> int:
    """First sector row from which on every row has V_i >= lam, so a_i >= 0.

    Clipped to the sector's last row when V < lam at the grid edge.
    """
    turn = int(np.searchsorted(H.edge_min, lam)) - parity
    return min(max(turn, 0), H.grid.center_index - parity)


def _first_pivot(a0: float, parity: int) -> float:
    """r_0: the even sector's centre row is halved, the odd one sits by a wall."""
    return 0.5 * a0 if parity == 0 else 1.0 + a0


def _negative_pivots(r: float, rows: Iterator[float], turn: int) -> int:
    """Sturm count: negative pivots 1 + r_i of the scaled recurrence.

    ``rows`` holds the a_i after r.  Past row ``turn`` every a_i >= 0, so
    once r >= 0 there the recurrence keeps r >= 0 and no later pivot is
    negative: the pass stops, with exactly the count of a full pass.
    """
    count = 0
    for a in islice(rows, turn):
        q = 1.0 + r
        if q <= 0.0:
            count += 1
            if q == 0.0:
                q = -PIVMIN
        r = a + r / q
    for a in rows:
        if r >= 0.0:
            return count
        q = 1.0 + r
        if q <= 0.0:
            count += 1
            if q == 0.0:
                q = -PIVMIN
        r = a + r / q
    return count + (r <= -1.0)


def _sector_count(H: TridiagonalHamiltonian, lam: float, parity: int) -> int:
    a = _sector_rows(H, lam, parity)
    # converted ROW_BLOCK rows at a time: a pass usually stops well short
    rows = chain.from_iterable(a[i:i + ROW_BLOCK].tolist()
                               for i in range(1, len(a), ROW_BLOCK))
    return _negative_pivots(_first_pivot(float(a[0]), parity), rows,
                            _turning_row(H, lam, parity))


def sturm_count(H: TridiagonalHamiltonian, lam: float, parity: int | None = None) -> int:
    """Number of eigenvalues strictly below lam.

    Counts one parity sector (0 even, 1 odd) or, when parity is None, both.
    """
    parities = (0, 1) if parity is None else (parity,)
    return sum(_sector_count(H, lam, p) for p in parities)


def _bracket(H: TridiagonalHamiltonian, parity: int, index: int,
             resolution: float) -> Tuple[float, float]:
    """Sturm-certified [lo, hi] around level `index` of one sector.

    A bracket narrower than ``resolution`` is returned even when another
    level shares it: the residual target cannot tell such levels apart.
    """
    v_min = float(np.min(H.potential))
    lo, hi = v_min, 0.0  # -d2/dx2 is positive definite, so v_min < every level
    if v_min >= 0.0 or H.bound_counts[parity] <= index:
        hi = float(np.max(H.potential)) + 4.0 / H.grid.h**2
    for _ in range(BISECTION_MAX_ITER):
        if hi - lo <= resolution:
            return lo, hi
        margin = SEPARATION * (hi - lo)
        if (hi - lo <= BISECTION_RTOL * (hi - v_min)
                and sturm_count(H, hi + margin, parity) == index + 1
                and (index == 0 or sturm_count(H, lo - margin, parity) == index)):
            return lo, hi
        mid = 0.5 * (lo + hi)
        if sturm_count(H, mid, parity) > index:
            hi = mid
        else:
            lo = mid
    raise ConvergenceFailure(
        f"bisection for sector {parity} level {index} stalled at "
        f"[{lo!r}, {hi!r}]")


def _pivot_run(r: float, rows: Iterable[float]) -> List[float]:
    """r followed by the scaled pivots r_i it leads to over ``rows``."""
    out = [r]
    for a in rows:
        r = a + r / (1.0 + r or -PIVMIN)
        out.append(r)
    return out


def _twisted_vector(a: np.ndarray, r0: float, turn: int) -> np.ndarray:
    """z with z_k = 1 and (M - sigma) z = gamma_k e_k, twisted at argmin |gamma_k|.

    ``a`` holds the sector's a_i = h^2 (V_i - sigma) and r0 its first
    forward pivot.  Forward pivots r_i run from x = 0 to row ``turn``, past
    which the eigenvector only decays; backward pivots s_i run in from the
    grid edge.  gamma_k = r_k + s_k - a_k, or r_0 + s_1 / (1 + s_1) on the
    first row.  Off the twist, z_i = z_{i+1} / (1 + r_i) inward and
    z_i = z_{i-1} / (1 + s_i) outward.
    """
    if len(a) == 1:
        return np.ones(1)
    rows = a.tolist()
    r = np.array(_pivot_run(r0, rows[1:turn + 1]))  # rows 0 .. turn
    s = np.array(_pivot_run(1.0 + rows[-1], rows[-2:0:-1])[::-1])  # rows 1 ..
    d, e = 1.0 + r, 1.0 + s
    d[d == 0.0] = -PIVMIN
    e[e == 0.0] = -PIVMIN
    gamma = np.concatenate(([r[0] + s[0] / e[0]], r[1:] + s[:turn] - a[1:turn + 1]))
    k = int(np.argmin(np.abs(gamma)))
    z = np.ones(len(a))
    z[:k] = np.cumprod(1.0 / d[:k][::-1])[::-1]
    z[k + 1:] = np.cumprod(1.0 / e[k:])
    return z


def _unfold(half: np.ndarray, parity: int) -> np.ndarray:
    """Full-grid samples from one sector's x >= 0 (even) or x > 0 (odd) part."""
    if parity == 0:
        return np.concatenate((half[:0:-1], half))
    return np.concatenate((-half[::-1], [0.0], half))


def _sum_sq(a: np.ndarray) -> float:
    """sum(a^2) by numpy's pairwise sum; a BLAS dot's digits vary with its threads."""
    return float(np.add.reduce(a * a))


def _sector_eigenpair(H: TridiagonalHamiltonian, parity: int,
                      index: int) -> Tuple[float, np.ndarray]:
    h2 = H.grid.h**2
    target = RESIDUAL_TOL * (4.0 / h2 + float(np.max(np.abs(H.potential))))
    sigma, hi = _bracket(H, parity, index, target)
    # the eigenvector peaks where V <= level < hi: the twist lies inside this
    turn = _turning_row(H, hi, parity)
    residual = np.inf
    for _ in range(INVERSE_ITERATION_MAX_STEPS):
        # one step of shifted inverse iteration: (M - sigma) z = gamma_k e_k
        a = _sector_rows(H, sigma, parity)
        v = _unfold(_twisted_vector(a, _first_pivot(float(a[0]), parity), turn), parity)
        norm2 = _sum_sq(v)
        diffs = np.diff(v, prepend=0.0, append=0.0)
        energy = (_sum_sq(diffs) / h2 + float(np.add.reduce(H.potential * v * v))) / norm2
        residual = np.sqrt(_sum_sq(H.apply(v) - energy * v) / norm2)
        if residual <= target:
            return energy, v
        sigma = energy
    raise ConvergenceFailure(
        f"inverse iteration for sector {parity} level {index} reached residual "
        f"{residual:.3e} after {INVERSE_ITERATION_MAX_STEPS} steps, "
        f"target {target:.3e}")


def lowest_eigenpairs(H: TridiagonalHamiltonian, k: int) -> List[Tuple[float, RealWave]]:
    """k smallest eigenpairs, ascending; eigenvectors trapezoid-normalized.

    Deterministic: bisection on Sturm counts plus Rayleigh-shifted twisted
    factorizations, one parity sector per level.  Only low-lying states are
    meaningful under the Dirichlet truncation, hence k <= 6.
    """
    if not 1 <= k <= min(6, H.grid.n_points):
        raise ValueError("k must be between 1 and min(6, n_points)")
    pairs = []
    for level in range(k):
        energy, v = _sector_eigenpair(H, level % 2, level // 2)
        pairs.append((energy, RealWave(H.grid, v).normalize()))
    return pairs


def _interior(grid: Grid, edge: int, caller: str) -> slice:
    """The nodes left after dropping ``edge`` at each end; raises if none are."""
    if grid.n_points <= 2 * edge:
        raise ValueError(f"{caller} needs a grid of at least {2 * edge + 1} "
                         f"points, got {grid.n_points}")
    return slice(edge, -edge)


def eigen_residual(H: TridiagonalHamiltonian, wave: RealWave, energy: float) -> float:
    """Relative l2 residual ||H psi - E psi|| / ||psi|| over interior nodes.

    Three nodes at each edge are excluded: one-sided stencils and the
    Dirichlet mismatch dominate there, not the PDE error.
    """
    sl = _interior(wave.grid, EDGE_EXCLUDE, "eigen_residual")
    r = H.apply(wave.samples) - energy * wave.samples
    return float(np.sqrt(_sum_sq(r[sl]) / _sum_sq(wave.samples[sl])))


def check_intertwining(partner: Partner, f: RealWave) -> float:
    """Relative max-norm residual of (Xi A - A eta) f over interior nodes.

    Both sides are built from sampled differential operators, so the result
    is discretization-limited (~1e-8 for smooth decaying test functions on
    the default grid) rather than exactly zero.  ``f`` must be sampled on
    the partner's grid.
    """
    af = apply_a(partner, f).samples
    h = f.grid.h
    # chained stencils contaminate one extra node at each edge
    sl = _interior(f.grid, EDGE_EXCLUDE + 1, "check_intertwining")
    w, v_base, samples = partner.w, partner.base_well, f.samples

    eta_f = -second_derivative(samples, h) + v_base * samples
    rhs = apply_a(partner, RealWave(f.grid, eta_f)).samples
    # lhs - rhs without D2(D1 f) - D1(D2 f): on these nodes both are the same
    # interior convolutions, so that term is 0 but for roundoff ~ eps_mach/h^3
    diff = (-second_derivative(w * samples, h) + partner.potential * af
            + first_derivative(v_base * samples, h) - w * eta_f)

    err = float(np.max(np.abs(diff[sl])))
    scale = float(np.max(np.abs(rhs[sl])))
    return err / scale if scale else err


@dataclass(frozen=True)
class SpectrumReport:
    """Side-by-side record of the analytic spectrum and the oracle's."""

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


def verify_spectrum(partner: Partner) -> SpectrumReport:
    """Compare the closed-form bound states against the eigensolver.

    The closed-form states check the grid first, so GridTooNarrow and
    GridTooCoarse come before any solver arithmetic.  For double-well eps
    (-3 < eps < -1) exactly two eigenvalues must then sit below the
    continuum threshold 0; otherwise BoundStateCountMismatch.
    """
    eps_val = partner.epsilon
    psi0, psi1 = partner.psi0, partner.psi1
    H = build_hamiltonian(partner)

    if -3.0 < eps_val < -1.0:
        negatives = sum(H.bound_counts)
        if negatives != 2:
            raise BoundStateCountMismatch(
                f"expected 2 bound states for eps={eps_val}, found {negatives}"
            )

    (e0_num, psi0_num), (e1_num, psi1_num) = lowest_eigenpairs(H, 2)
    return SpectrumReport(
        epsilon=eps_val,
        e0_analytic=eps_val,
        e1_analytic=-1.0,
        e0_numeric=e0_num,
        e1_numeric=e1_num,
        e0_error=abs(e0_num - eps_val),
        e1_error=abs(e1_num + 1.0),
        psi0_residual=eigen_residual(H, psi0, eps_val),
        psi1_residual=eigen_residual(H, psi1, -1.0),
        psi0_overlap=abs(psi0_num.overlap(psi0)),
        psi1_overlap=abs(psi1_num.overlap(psi1)),
    )


class Check(NamedTuple):
    """One verify criterion applied to one report field."""

    name: str
    value: float
    tolerance: float
    passed: bool


@dataclass(frozen=True)
class VerifyReport(SpectrumReport):
    """Everything ``verify`` measures; ``checks`` and ``passed`` judge it."""

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

    The partner carries the closed forms through all of them.  The
    intertwining residual is the worst over five Gaussian bumps drawn from
    a fixed-seed generator, so the verdict is reproducible.
    """
    grid = partner.grid
    spectrum = verify_spectrum(partner)
    rng = np.random.default_rng(42)
    intertwining = 0.0
    for _ in range(5):
        center = rng.uniform(-3.0, 3.0)
        width = rng.uniform(0.5, 2.0)
        bump = RealWave(grid, np.exp(-((grid.x - center) / width) ** 2))
        intertwining = max(intertwining, check_intertwining(partner, bump))
    lhs, rhs, rel_err = wells.check_bimodality_relation(partner)
    return VerifyReport(**asdict(spectrum),
                        gap_numeric=spectrum.e1_numeric - spectrum.e0_numeric,
                        intertwining_residual=intertwining, bimodality_lhs=lhs,
                        bimodality_rhs=rhs, bimodality_rel_err=rel_err)
