"""Property tests: the parity-split eigensolver against dense matrix Numerov."""

import numpy as np
import pytest
from hypothesis import assume, given, reject, settings, strategies as st

from shallowdw import (Grid, GridTooCoarse, GridTooNarrow, Partner,
                       TridiagonalHamiltonian, sturm_count, wells)
from shallowdw.transform import EPSILON_MAX

from conftest import apply_h, dense_sector_levels, lowest_eigenpairs, numerov_matrix

SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def even_hamiltonians(draw, max_half=100):
    """Random even potential on a grid of n = 2 m + 1 <= 201 nodes.

    |V| <= min(1e3, 5 / h^2), so h^2 (max V - min V) <= 10 stays below the
    Numerov pole at 12 that ``TridiagonalHamiltonian`` rejects.
    """
    m = draw(st.integers(1, max_half))
    grid = Grid(draw(st.floats(0.5, 20.0)), 2 * m + 1)
    half = draw(st.lists(st.floats(-1.0, 1.0), min_size=m + 1, max_size=m + 1))
    values = min(1e3, 5.0 / grid.h**2) * np.concatenate((half[:0:-1], half))
    return TridiagonalHamiltonian(grid, values)


def dense_levels(H):
    return np.linalg.eigvalsh(numerov_matrix(H.grid, H.potential))


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
