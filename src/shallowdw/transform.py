"""Darboux partner family of the sech^2 well.

The base Hamiltonian eta = -d2/dx2 - 2 sech^2(x) (hbar = 2m = 1) is factorized
as eta = A+ A + eps using the first-order operators

    A  = -d/dx + u'/u,      A+ = +d/dx + u'/u,

built from the node-free seed  u(x) = sinh(kx) tanh(x) - k cosh(kx),
k = sqrt(|eps|), which solves eta u = eps u for any eps < -1.  Reordering the
factors gives the partner Hamiltonian Xi = A A+ + eps = -d2/dx2 + V(x) whose
two bound states are known in closed form: the ground state 1/u (energy eps)
and A applied to the base ground state sqrt(1/2) sech(x) (energy -1).

For -3 < eps < -1 the partner potential V is a symmetric double well; it is
this shallow-double-well regime the rest of the package studies.

All hyperbolics are evaluated in exponentially scaled form (common factor
e^{k|x|} pulled out) so that ratios like u'/u and the potential stay finite
and accurate for arbitrarily large |x|; naive sinh/cosh overflow near
k|x| ~ 710.  The seed is summed from terms of one sign, so it keeps its
relative accuracy as eps -> -1, where s t and k c both tend to 1/2 and
their difference u to (1 - k)/2.

``Partner(eps, grid)``, the closed forms of one partner on one grid, is the
package's one source of these sampled fields; the functions below evaluate
single closed forms at arbitrary x.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .grids import Grid, GridTooCoarse, GridTooNarrow, mirror

EPSILON_MAX = -1.0 - 1e-9  # transform degenerates (V -> 0) as eps -> -1
# below this 4 eps^2, and so V''(0) = 4 (3 + 4 eps + eps^2), overflows
EPSILON_MIN = -float(np.sqrt(np.finfo(float).max / 4.0))
TAIL_TOL = 1e-6  # max allowed |psi(x_max)| / max|psi| before GridTooNarrow
# max allowed h * max(1, k) before GridTooCoarse: below two nodes per decay
# length 1/k of psi0, or per unit width of the sech^2 well, the samples no
# longer show the states' shape (a density-maxima count reads 0 or 1 for 2)
COARSE_KH = 0.5


class InvalidEpsilon(ValueError):
    """Factorization energy outside the valid range eps < -1."""


def _epsilon(eps: float) -> float:
    """eps as a float; InvalidEpsilon unless EPSILON_MIN <= eps <= EPSILON_MAX."""
    eps = float(eps)
    if not np.isfinite(eps):
        raise InvalidEpsilon(f"factorization energy must be a finite number, got {eps!r}")
    if eps > EPSILON_MAX:
        raise InvalidEpsilon(
            f"factorization energy must satisfy eps <= {EPSILON_MAX} "
            f"(strictly below the base ground level -1), got {eps!r}"
        )
    if eps < EPSILON_MIN:
        raise InvalidEpsilon(
            f"factorization energy must satisfy eps >= {EPSILON_MIN!r}, where "
            f"the curvature 4 (3 + 4 eps + eps^2) is still finite, got {eps!r}"
        )
    return eps


class _SeedParts(NamedTuple):
    """Exponentially scaled seed data: actual value = field * exp(growth)."""

    growth: np.ndarray  # k|x|
    u: np.ndarray       # u e^{-k|x|}
    du: np.ndarray      # u' e^{-k|x|}
    q: np.ndarray       # e^{-2k|x|}
    s: np.ndarray       # sinh(kx) e^{-k|x|}
    tanh: np.ndarray    # tanh(x)
    sech: np.ndarray    # sech(x)
    sech2: np.ndarray   # sech^2(x)


def _sech(x) -> np.ndarray:
    """sech(x) via decaying exponentials; 1/cosh overflows past |x| ~ 710."""
    q1 = np.exp(-np.abs(x))
    return 2.0 * q1 / (1.0 + q1 * q1)


def _seed_parts(eps_val: float, x) -> _SeedParts:
    x = np.asarray(x, dtype=float)
    k = np.sqrt(-eps_val)
    ax = np.abs(x)
    q = np.exp(-2.0 * k * ax)
    # 1 - q via expm1 keeps sinh accurate near x = 0
    s = np.sign(x) * (-np.expm1(-2.0 * k * ax)) / 2.0
    c = (1.0 + q) / 2.0
    t = np.tanh(x)
    ta = np.abs(t)
    sech = _sech(x)
    sech2 = sech**2
    # u = s t - k c, even, as a sum of terms <= 0, so that nothing cancels as
    # eps -> -1: 1 - tanh|x| = sech^2 / (1 + tanh|x|), and k - 1 = d / (1 + k)
    # with d = -1 - eps, exact for -2 <= eps < -1
    u = -(sech2 / (1.0 + ta) + q * (1.0 + ta)) / 2.0 - (-1.0 - eps_val) / (1.0 + k) * c
    du = (1.0 + eps_val) * s - t * u  # tanh u + u' = (1 + eps) s
    return _SeedParts(k * ax, u, du, q, s, t, sech, sech2)


def _as_returned(value: np.ndarray, like) -> "float | np.ndarray":
    if np.isscalar(like) or np.ndim(like) == 0:
        return float(value)
    return value


def _potential_values(eps_val: float, p: _SeedParts) -> np.ndarray:
    # one division by u per factor: no intermediate exceeds |V| |u|
    v = (2.0 * (1.0 + eps_val) / p.u) * ((-eps_val * p.q + p.sech2 * p.s**2) / p.u)
    return np.where(p.growth == 0.0, 2.0 * eps_val + 2.0, v)  # k > 1: k|x| = 0 at x = 0 alone


def potential(eps: float, x):
    """Partner potential in explicit closed form.

    V(x) = 2(1+eps) (-eps + sech^2(x) sinh^2(kx))
           / (tanh(x) sinh(kx) - k cosh(kx))^2

    evaluated with the e^{2k|x|} growth cancelled analytically.  Even in x and
    -> 0 as |x| -> inf.  At x = 0 the expression reduces exactly to 2 eps + 2,
    which is returned verbatim to keep the barrier-top value free of rounding.
    Each of the two factors is divided by u separately, so V is finite for
    every eps from EPSILON_MIN to EPSILON_MAX.
    """
    eps_val = _epsilon(eps)
    return _as_returned(_potential_values(eps_val, _seed_parts(eps_val, x)), x)


def potential_log_form(eps: float, x):
    """Partner potential from the superpotential: 2(u'/u)^2 - u''/u + eps.

    Independent route to the same curve as :func:`potential`; kept as a
    cross-check (two formulas, one truth).  Its terms are of size
    max(1, |eps|) and cancel, so its absolute error grows with |eps|: on
    ``Grid(1.0, 5)`` the largest difference from :func:`potential` stays
    within a few eps_mach * max(1, |eps|), about 7e-16 * |eps| from
    eps = -1e4 down to ``EPSILON_MIN``, where it is 1.5e138 at x = 0.5, where
    V = -1.57.  Off the origin that bound holds for eps <= -2 (within
    16 eps_mach * |eps| on ``Grid(20.0, 4001)``), but not as eps -> -1:
    between the wells its terms tend to 1 and cancel to V ~ |1 + eps|, and
    its error grows like eps_mach / |1 + eps|, to 7e-7 at eps = -1 - 1e-9.
    It is a cross-check only where that bound is small next to |V|.
    """
    eps_val = _epsilon(eps)
    p = _seed_parts(eps_val, x)
    k, c, t = np.sqrt(-eps_val), (1.0 + p.q) / 2.0, p.tanh
    # u'' e^{-k|x|}
    d2u = k * k * p.s * t + 2.0 * k * c * p.sech2 - 2.0 * p.s * t * p.sech2 - k**3 * c
    v = 2.0 * (p.du / p.u) ** 2 - d2u / p.u + eps_val
    return _as_returned(v, x)


def separatrix_energy(eps: float) -> float:
    """Barrier-top energy s = V(0) = 2 eps + 2 (closed form)."""
    return 2.0 * _epsilon(eps) + 2.0


def curvature_at_origin(eps: float) -> float:
    """V''(0) = 4 (3 + 4 eps + eps^2); negative exactly for -3 < eps < -1."""
    eps_val = _epsilon(eps)
    return 4.0 * (3.0 + 4.0 * eps_val + eps_val * eps_val)


def _check_samples(samples: np.ndarray, what: str, partner: "Partner") -> np.ndarray:
    """samples, the state on x >= 0; GridTooNarrow or GridTooCoarse unless
    the grid holds it."""
    grid = partner.grid
    peak = np.max(np.abs(samples))
    if peak == 0.0:
        raise GridTooNarrow(
            f"{what} is zero on every node of {grid}; the nodes miss the "
            "state, use more points or a smaller x_max"
        )
    tail = abs(samples[-1])  # the sample at x = -x_max mirrors it
    if tail > TAIL_TOL * peak:
        raise GridTooNarrow(
            f"{what} has not decayed at the grid edge "
            f"(|psi(x_max)|/peak = {float(tail / peak)!r} > {TAIL_TOL:.0e}); "
            "increase x_max"
        )
    kh = grid.h * max(1.0, np.sqrt(-partner.epsilon))
    if kh > COARSE_KH:
        raise GridTooCoarse(
            f"{grid} is too coarse for the {what}: h * max(1, sqrt(-eps)) = "
            f"{float(kh)!r} > {COARSE_KH}; use more points or a smaller x_max"
        )
    return samples


def _mirrored(half: str, parity: int, doc: str) -> cached_property:
    """A cached field on the whole grid: the even (0) or odd (1) mirror of ``half``."""
    field = cached_property(lambda self: mirror(getattr(self, half), parity))
    field.__doc__ = doc
    return field


@dataclass(frozen=True)
class Partner:
    """The closed forms of the partner Hamiltonian at one eps on one grid.

    Every field is made on first use from one evaluation of the seed on
    x >= 0: a public field mirrors its private half there once, and the
    checks in ``wells`` read the halves.  Each state checks the grid once,
    when its half is made, so only the states and ``check_grid`` raise
    GridTooNarrow or GridTooCoarse.  Each field equals its closed form
    evaluated on the whole grid, bit for bit.
    """

    epsilon: float
    grid: Grid

    def __post_init__(self):
        object.__setattr__(self, "epsilon", _epsilon(self.epsilon))

    @cached_property
    def _seed(self) -> _SeedParts:
        return _seed_parts(self.epsilon, self.grid.x[self.grid.center_index:])

    @cached_property
    def _potential_half(self) -> np.ndarray:
        return _potential_values(self.epsilon, self._seed)

    @property
    def _w_half(self) -> np.ndarray:
        return self._seed.du / self._seed.u

    @property
    def _base_half(self) -> np.ndarray:
        return -2.0 * self._seed.sech2

    @cached_property
    def _psi0_half(self) -> np.ndarray:
        """Ground state, 1/u at unit norm: sqrt(k d / 2) / |u| with d = -1 - eps,
        as ||1/u||^2 = 2 / (k d) (Cooper, Khare and Sukhatme, Phys. Rep. 251,
        1995); d is exact near eps = -1 and k d <= |eps|^1.5 finite.  Even,
        strictly positive, energy eps.

        Raises GridTooNarrow when the grid does not contain the decay tails,
        GridTooCoarse when its spacing cannot resolve them: fewer than two
        nodes per decay length of psi0, or per unit width of the sech^2 well.
        """
        p, d = self._seed, -1.0 - self.epsilon
        # u < 0 everywhere, so 1/(-u) is the positive branch
        ground = _check_samples(np.exp(-p.growth) / -p.u, "ground state", self)
        return np.sqrt(np.sqrt(-self.epsilon) * d / 2.0) * ground

    @cached_property
    def _psi1_half(self) -> np.ndarray:
        """Excited state, A applied to the base ground state at unit norm:
        sqrt(d / 2) sech(x) sinh(kx) / (-u), energy -1.

        A [sech(x)] = sech(x) (tanh(x) + u'/u) = (1 + eps) sech(x) sinh(kx) / u,
        as tanh u + u' = (1 + eps) sinh(kx), and ||A sech||^2 = 2 d: one
        product, with no finite-difference error and no cancellation.  Odd,
        single node at x = 0, positive for x > 0.  Raises as ``_psi0_half`` does.
        """
        p = self._seed
        excited = _check_samples(p.s * p.sech / -p.u, "excited state", self)
        return np.sqrt((-1.0 - self.epsilon) / 2.0) * excited

    def check_grid(self) -> None:
        """GridTooNarrow or GridTooCoarse unless the grid holds both bound
        states, the ground state's error first, as ``psi0`` and ``psi1`` raise."""
        self._psi0_half, self._psi1_half  # each checks itself when made

    potential = _mirrored("_potential_half", 0, "The partner potential, 2 eps + 2 at x = 0.")
    w = _mirrored("_w_half", 1, "The superpotential u'/u; -0.0 at x = 0.")
    base_well = _mirrored("_base_half", 0, "The base potential -2 sech^2(x).")
    psi0 = _mirrored("_psi0_half", 0, "The ground state on the grid (``_psi0_half``).")
    psi1 = _mirrored("_psi1_half", 1, "The excited state on the grid (``_psi1_half``).")
