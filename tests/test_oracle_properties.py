"""Property tests: the parity-split eigensolver against dense matrix Numerov."""

import numpy as np
import pytest
from hypothesis import assume, given, reject, settings, strategies as st

from shallowdw import (Grid, GridTooCoarse, GridTooNarrow, Partner,
                       TridiagonalHamiltonian, eigen_residual, oracle, sturm_count, wells)
from shallowdw.grids import mirror
from shallowdw.oracle import EPS_MACH
from shallowdw.transform import EPSILON_MAX

from conftest import apply_h, dense_sector_levels, half, lowest_eigenpairs, numerov_matrix

SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def even_hamiltonians(draw, max_half=100):
    """Random even potential on a grid of n = 2 m + 1 <= 201 nodes, given by
    its x >= 0 half.

    |V| <= min(1e3, 5 / h^2), so h^2 (max V - min V) <= 10 stays below the
    Numerov pole at 12 that ``TridiagonalHamiltonian`` rejects.
    """
    m = draw(st.integers(1, max_half))
    grid = Grid(draw(st.floats(0.5, 20.0)), 2 * m + 1)
    drawn = draw(st.lists(st.floats(-1.0, 1.0), min_size=m + 1, max_size=m + 1))
    return TridiagonalHamiltonian(grid, min(1e3, 5.0 / grid.h**2) * np.array(drawn))


@st.composite
def tailed_wells(draw):
    """Even wells or barriers with a weak decaying tail, on n = 2 m + 1 <= 301
    nodes: a Gaussian core of height in [-8, -0.1] or [0.1, 2] and width w,
    and c e^(-|x|/l) with 1e-6 <= |c| <= 1e-2 and l a 80th to a 40th of
    x_max >= 8 w.  The tail rounds away (2 + a_i == 2) short of the edge,
    but long after the core, so the zero-energy count starts from a row T
    between the two.  V is scaled down where needed so that
    h^2 (max V - min V) <= 5, below the Numerov pole.
    """
    m, width = draw(st.integers(30, 150)), draw(st.floats(0.3, 3.0))
    grid = Grid(draw(st.floats(8.0 * width, 30.0)), 2 * m + 1)
    x = half(grid.x, grid)
    decay = grid.x_max * draw(st.floats(1 / 80, 1 / 40))
    height = draw(st.floats(-8.0, -0.1) | st.floats(0.1, 2.0))
    weight = draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(1e-6, 1e-2))
    values = height * np.exp(-(x / width) ** 2) + weight * np.exp(-x / decay)
    values *= min(1.0, 5.0 / (grid.h**2 * np.ptp(values) or 1.0))
    return TridiagonalHamiltonian(grid, values)


def dense_levels(H):
    return np.linalg.eigvalsh(numerov_matrix(H.grid, mirror(H.potential, 0)))


def norm_bound(H):
    # the Numerov kinetic term reaches 6/h^2
    return 6.0 / H.grid.h**2 + np.max(np.abs(H.potential))


def check_sturm_count(H, where):
    levels = dense_levels(H)
    low = np.min(H.potential)
    # no level lies below min V, not even past max V - 12/h^2, where the
    # Numerov a_i pass their pole
    below = low - where * 1e3 * norm_bound(H)
    assert sturm_count(H, below, 0) == sturm_count(H, below, 1) == 0
    lam = low + where * (levels[-1] + 1.0 - low)
    # within roundoff of a level the count may go either way
    assume(np.min(np.abs(levels - lam)) > 1e-9 * norm_bound(H))
    assert sturm_count(H, lam, 0) + sturm_count(H, lam, 1) == np.count_nonzero(levels < lam)


def check_lowest_eigenpairs(H, k):
    k = min(k, H.grid.n_points)
    levels = dense_levels(H)
    pairs = lowest_eigenpairs(H, k)
    scale = norm_bound(H)
    for j, (energy, v) in enumerate(pairs):
        assert energy == pytest.approx(levels[j], rel=1e-9, abs=1e-12 * scale)
        assert np.array_equal(v[::-1], v if j % 2 == 0 else -v)
        residual = np.linalg.norm(apply_h(H, v, energy))
        assert residual <= 1e-10 * scale * np.linalg.norm(v)


@SETTINGS
@given(even_hamiltonians(), st.floats(0.0, 1.0))
def test_sturm_count_matches_dense(H, where):
    check_sturm_count(H, where)


@SETTINGS
@given(even_hamiltonians())
def test_bound_counts_match_sturm_and_dense(H):
    # one backward pass counts both sectors below 0 as two Sturm counts do
    sectors = dense_sector_levels(H)
    assume(all(np.min(np.abs(levels)) > 1e-9 * norm_bound(H)
               for levels in sectors))
    counts = tuple(int(np.count_nonzero(levels < 0.0)) for levels in sectors)
    assert H.bound_counts == (sturm_count(H, 0.0, 0), sturm_count(H, 0.0, 1)) == counts


@SETTINGS
@given(tailed_wells())
def test_tailed_bound_counts_match_sturm_and_dense(H):
    # the zero-energy count starts from T, behind the free rows of the tail
    sectors = dense_sector_levels(H)
    assume(all(np.min(np.abs(levels)) > 1e-9 * norm_bound(H) for levels in sectors))
    dense = tuple(int(np.count_nonzero(levels < 0.0)) for levels in sectors)
    assert H.bound_counts == (sturm_count(H, 0.0, 0), sturm_count(H, 0.0, 1)) == dense


@SETTINGS
@given(even_hamiltonians(), st.integers(1, 6))
def test_lowest_eigenpairs_match_dense(H, k):
    check_lowest_eigenpairs(H, k)


@SETTINGS
@given(even_hamiltonians(max_half=3), st.floats(0.0, 1.0), st.integers(1, 6))
def test_tiny_grids(H, where, k):
    # n = 3, 5, 7: sectors of one to four nodes
    check_lowest_eigenpairs(H, k)
    check_sturm_count(H, where)


@settings(max_examples=20, deadline=None)
@given(st.floats(-3.0, EPSILON_MAX, exclude_min=True), st.integers(250, 2000))
def test_a_finer_grid_keeps_a_pass(eps, m):
    # for eps in the paper's double-well range, a verify that passes on n
    # nodes passes on 2 n - 1, the grid of half the spacing
    n = 2 * m + 1
    try:
        coarse = wells.verify(Partner(eps, Grid(20.0, n)))
    except (GridTooNarrow, GridTooCoarse):
        reject()  # a grid error on n nodes is no pass to keep
    assume(coarse.passed)
    assert wells.verify(Partner(eps, Grid(20.0, 2 * n - 1))).passed


@settings(max_examples=30, deadline=None)
@given(st.floats(-3.0, EPSILON_MAX, exclude_min=True), st.sampled_from([401, 4001, 16001]))
def test_eigen_residual_is_that_of_the_mirrored_state(eps, n):
    # eigen_residual of a closed-form state's x >= 0 half against the
    # full-grid Numerov stencil on the state, over |x| <= x_max - 3h.  They
    # differ only where a node x < 0 rounds its stencil in the other order
    # from its mirror: at most 0.081 eps_mach / h^2 over 4,800 states, eps
    # uniform in (-3, -1) at n = 401, 4001 and 16001
    grid = Grid(20.0, n)
    partner = Partner(eps, grid)
    try:
        partner.check_grid()
    except (GridTooNarrow, GridTooCoarse):
        reject()  # no state to measure
    H = TridiagonalHamiltonian(grid, partner._potential_half)
    for parity, psi, energy in ((0, partner.psi0, eps), (1, partner.psi1, -1.0)):
        r = apply_h(H, psi, energy)[3:-3]
        full = np.sqrt(np.sum(r * r) / np.sum(psi[3:-3] ** 2))
        got = eigen_residual(H, psi[grid.center_index:], parity, energy)
        assert abs(got - full) <= 0.25 * EPS_MACH / grid.h**2, (got, full)


def dense_numerov_residual(H, psi, energy):
    """(-D2 / h^2 + B diag(V - E)) psi from dense whole-grid matrices, V the
    mirror of the half that H holds."""
    n = H.grid.n_points
    off = np.eye(n, k=1) + np.eye(n, k=-1)
    second = (off - 2.0 * np.eye(n)) / H.grid.h**2
    mass = (off + 10.0 * np.eye(n)) / 12.0
    return (-second + mass @ np.diag(mirror(H.potential, 0) - energy)) @ psi


@SETTINGS
@pytest.mark.parametrize("max_half", [2, 100])
@given(data=st.data())
def test_ghost_node_residual_matches_the_dense_matrix(max_half, data):
    # the sector residual takes the ghost node at -h from V(h) and y(h);
    # for random even V and random y it is the residual of mirror(y) under
    # the dense whole-grid matrices, to rounding in ||H|| ||y||, on every
    # grid (3 and 5 nodes among them) and, on the nodes |x| <= x_max - 3h,
    # as eigen_residual from n = 7 on
    H = data.draw(even_hamiltonians(max_half=max_half))
    parity = data.draw(st.integers(0, 1))
    m = H.grid.center_index
    y = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=m + 1, max_size=m + 1)))
    y[0] *= 1 - parity  # an odd vector is 0 at x = 0
    energy = data.draw(st.floats(-10.0, 10.0))
    psi = mirror(y, parity)
    assume(np.any(psi[3:-3] != 0.0) if H.grid.n_points >= 7 else np.any(psi != 0.0))
    full = dense_numerov_residual(H, psi, energy)
    rounding = 1e-12 * (norm_bound(H) + abs(energy))
    got = np.sqrt(oracle._sector_residual(H, y, parity, energy))
    assert abs(got - np.linalg.norm(full)) <= rounding * np.linalg.norm(psi)
    if H.grid.n_points >= 7:
        want = np.linalg.norm(full[3:-3]) / np.linalg.norm(psi[3:-3])
        assert abs(eigen_residual(H, y, parity, energy) - want) <= rounding
    else:
        with pytest.raises(ValueError, match="at least 7 points"):
            eigen_residual(H, y, parity, energy)
