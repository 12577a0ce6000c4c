"""Shared fixtures and the references the tests check the package against.

The second derivative, the ladder operators A and A+, the base ground state
and the operator-level intertwining check that uses them live here, not in
the package, as does the two-level state built at each frame that the
dynamics tests take as the reference for ``evolve_series``'s closed form.
``run_fresh`` runs Python in a fresh process, as the console script runs,
and ``run`` runs the CLI in this one.
"""

import functools
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import settings

import shallowdw
from shallowdw import Grid, GridTooNarrow, Partner, oracle, wells
from shallowdw.grids import first_derivative, mirror
from shallowdw.transform import _sech

# every run draws the same examples, and none replays a failure that an
# earlier run stored: the suite's verdict depends on the code alone
settings.register_profile("repeatable", derandomize=True, database=None)
settings.load_profile("repeatable")


def run_fresh(*args, code=0, **env):
    """``python *args`` in a fresh interpreter that imports this package, under
    tier-1's warning policy and with ``env`` set; asserts its exit code and
    returns its stdout and stderr."""
    src = os.path.dirname(os.path.dirname(shallowdw.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, *args], capture_output=True, text=True, timeout=120,
                          env={**os.environ, **env, "PYTHONPATH": path,
                               "PYTHONWARNINGS": "error::RuntimeWarning,error::DeprecationWarning"})
    assert done.returncode == code, done.stderr
    return done.stdout, done.stderr


def run(args):
    """Exit code of one in-process CLI run; each argument is passed as its str."""
    from shallowdw.cli import main
    return main([str(a) for a in args])


def bits(values):
    """The IEEE bit patterns of float values, as a list."""
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


@pytest.fixture(scope="session")
def default_grid():
    return Grid.default()


@functools.lru_cache(maxsize=None)
def cached_report(eps: float, x_max: float = 20.0, n_points: int = 4001):
    """Share eigensolver runs between test modules."""
    return wells.verify(Partner(eps, Grid(x_max, n_points)))


def normalized(samples: np.ndarray, h: float) -> np.ndarray:
    """samples scaled to unit trapezoid norm on a grid of spacing h."""
    return samples / np.sqrt(np.trapezoid(samples**2, dx=h))


def lowest_eigenpairs(H, k):
    """k smallest eigenpairs of H, ascending; eigenvectors mirrored onto the
    whole grid and trapezoid-normalized.

    Deterministic: each level is stepped by twisted factorizations with
    Newton shifts from min V, a shift every V has, one parity sector per
    level, and kept only where Sturm counts certify it; otherwise it is
    bisected.  Only low-lying states are meaningful under the Dirichlet
    truncation, hence k <= 6.
    """
    if not 1 <= k <= min(6, H.grid.n_points):
        raise ValueError("k must be between 1 and min(6, n_points)")
    v_min = float(H.edge_min[0])
    pairs = (oracle.sector_eigenpair(H, level % 2, level // 2, v_min) for level in range(k))
    return [(energy, normalized(mirror(y, level % 2), H.grid.h))
            for level, (energy, y) in enumerate(pairs)]


def half(samples: np.ndarray, grid: Grid) -> np.ndarray:
    """samples on the nodes x >= 0, the half that ``TridiagonalHamiltonian`` takes."""
    return samples[grid.center_index:]


def apply_h(H, y: np.ndarray, energy: float) -> np.ndarray:
    """(H - E) y in Numerov form, -D2 y + B((V - E) y), with Dirichlet walls,
    y on the whole grid and V mirrored from the half that H holds."""
    return oracle._numerov(y, mirror(H.potential, 0) - energy, H.grid.h)


def overlap(a: np.ndarray, b: np.ndarray, grid: Grid) -> float:
    """Trapezoid inner product <a, b> of real samples on grid."""
    return float(np.trapezoid(a * b, dx=grid.h))


def numerov_matrix(grid: Grid, potential) -> np.ndarray:
    """The dense matrix-Numerov operator -B^{-1} D2 + diag(V), Dirichlet walls.

    D2 = tridiag(1, -2, 1) / h^2 and B = tridiag(1, 10, 1) / 12 commute, so
    B^{-1} D2 is symmetric; it is symmetrized against rounding so that
    ``eigh`` applies (Pillai, Goglio and Walker, Am. J. Phys. 80, 1017 (2012)).
    """
    n = grid.n_points
    unit = np.eye(n)
    second = (np.eye(n, k=1) + np.eye(n, k=-1) - 2.0 * unit) / grid.h**2
    mass = (np.eye(n, k=1) + np.eye(n, k=-1) + 10.0 * unit) / 12.0
    matrix = -np.linalg.solve(mass, second)
    return 0.5 * (matrix + matrix.T) + np.diag(potential)


def dense_sector_levels(H):
    """Dense matrix-Numerov levels of the even and of the odd sector.

    V is even, so the matrix maps even vectors to even ones and odd to odd:
    each sector's levels are those of the matrix in an orthonormal basis of
    its vectors.
    """
    n, c = H.grid.n_points, H.grid.center_index
    even, odd = np.zeros((n, c + 1)), np.zeros((n, c))
    even[c, 0] = 1.0
    for j in range(1, c + 1):
        even[c + j, j] = even[c - j, j] = odd[c + j, j - 1] = np.sqrt(0.5)
        odd[c - j, j - 1] = -np.sqrt(0.5)
    matrix = numerov_matrix(H.grid, mirror(H.potential, 0))
    return [np.linalg.eigvalsh(basis.T @ matrix @ basis) for basis in (even, odd)]


def norm_squared(psi: np.ndarray, grid: Grid) -> float:
    """Trapezoid norm of complex samples on grid."""
    return float(np.trapezoid(np.abs(psi) ** 2, dx=grid.h))


def lc_state(eps, grid, t) -> np.ndarray:
    """Complex samples of the equal-weight superposition of the two bound
    states at time t.

    Normalized for every t (orthonormal components, unitary phases), which
    is asserted.  With left_well_probability, the frame-by-frame reference
    for evolve_series.
    """
    partner = Partner(eps, grid)
    psi = np.sqrt(0.5) * (np.exp(-1j * partner.epsilon * t) * partner.psi0
                          + np.exp(1j * t) * partner.psi1)
    assert abs(norm_squared(psi, grid) - 1.0) <= 1e-10, f"lc_state norm at t={t}"
    return psi


def left_well_probability(psi: np.ndarray, grid: Grid) -> float:
    """Probability of finding the particle at x <= 0.

    Trapezoid rule over [-x_max, 0]; the node at x = 0 naturally carries
    half weight as the subinterval endpoint.
    """
    mid = grid.center_index
    return float(np.trapezoid(np.abs(psi[: mid + 1]) ** 2, dx=grid.h))


def base_ground_state(grid: Grid) -> np.ndarray:
    """Ground state sqrt(1/2) sech(x) of the base sech^2 well, energy -1."""
    # analytic L2 norm over R is 1; grid truncation must be negligible
    if 2.0 * (1.0 - np.tanh(grid.x_max)) > 1e-10:
        raise GridTooNarrow("grid too narrow for sech(x) normalization")
    return normalized(np.sqrt(0.5) * _sech(grid.x), grid.h)


def second_derivative(samples: np.ndarray, h: float) -> np.ndarray:
    """d2/dx2 of sampled data: 4th-order central interior, 2nd-order edges."""
    f = np.asarray(samples, dtype=float)
    h2 = h * h
    g = np.empty_like(f)
    g[2:-2] = (-f[:-4] + 16 * f[1:-3] - 30 * f[2:-2] + 16 * f[3:-1] - f[4:]) / (12 * h2)
    g[1] = (f[0] - 2 * f[1] + f[2]) / h2
    g[-2] = (f[-3] - 2 * f[-2] + f[-1]) / h2
    g[0] = (2 * f[0] - 5 * f[1] + 4 * f[2] - f[3]) / h2
    g[-1] = (2 * f[-1] - 5 * f[-2] + 4 * f[-3] - f[-4]) / h2
    return g


def _apply(partner: Partner, f: np.ndarray, sign: float) -> np.ndarray:
    if np.shape(f) != (partner.grid.n_points,):
        raise ValueError("f is not sampled on the partner's grid")
    return sign * first_derivative(f, partner.grid.h) + partner.w * f


def apply_a(partner: Partner, f: np.ndarray) -> np.ndarray:
    """Apply A = -d/dx + u'/u to samples on the partner's grid.

    The derivative uses 4th-order central differences (one-sided at the
    edges); the superpotential term is the partner's closed-form u'/u.
    """
    return _apply(partner, f, -1.0)


def apply_a_dagger(partner: Partner, f: np.ndarray) -> np.ndarray:
    """Apply A+ = +d/dx + u'/u to samples on the partner's grid.

    A+ annihilates 1/u, which is how the partner ground state inherits
    eigenvalue eps from Xi = A A+ + eps.
    """
    return _apply(partner, f, 1.0)


def check_intertwining(partner: Partner, f: np.ndarray) -> float:
    """Relative max-norm residual of (Xi A - A eta) f over interior nodes.

    Applies the operators themselves to a test function: an independent
    cross-check of the two pointwise Darboux identities that ``verify``
    tests.  Both sides come from sampled stencils, so the result is
    discretization-limited (~1e-8 for smooth decaying f on the default
    grid).  ``f`` must be sampled on the partner's grid.
    """
    af = apply_a(partner, f)
    h = partner.grid.h
    sl = slice(4, -4)  # chained stencils spoil one more node than eigen_residual drops
    w, v_base = partner.w, partner.base_well

    eta_f = -second_derivative(f, h) + v_base * f
    rhs = apply_a(partner, eta_f)
    # lhs - rhs without D2(D1 f) - D1(D2 f): on these nodes both are the same
    # interior convolutions, so that term is 0 but for roundoff ~ eps_mach/h^3
    diff = (-second_derivative(w * f, h) + partner.potential * af
            + first_derivative(v_base * f, h) - w * eta_f)

    err = float(np.max(np.abs(diff[sl])))
    scale = float(np.max(np.abs(rhs[sl])))
    return err / scale if scale else err


def zero_energy_top(H):
    """T, the last row where 2 + a_i != 2 at lam = 0; 0 if there is none."""
    a = oracle._sector_rows(H, 0.0, 0)
    return max([i for i in range(1, len(a)) if 2.0 + a[i] != 2.0], default=0)
