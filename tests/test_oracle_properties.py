"""Property tests: the parity-split eigensolver against dense eigvalsh."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from shallowdw import Grid, TridiagonalHamiltonian, lowest_eigenpairs, sturm_count

SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def even_hamiltonians(draw, max_half=100):
    """Random even potential on a grid of n = 2 m + 1 <= 201 nodes."""
    m = draw(st.integers(1, max_half))
    x_max = draw(st.floats(0.5, 20.0))
    half = draw(st.lists(st.floats(-1e3, 1e3), min_size=m + 1, max_size=m + 1))
    values = np.concatenate((half[:0:-1], half))
    return TridiagonalHamiltonian(Grid(x_max, 2 * m + 1), values)


def dense_levels(H):
    h2 = H.grid.h**2
    off = np.full(H.grid.n_points - 1, -1.0 / h2)
    diagonal = 2.0 / h2 + H.potential
    return np.linalg.eigvalsh(np.diag(diagonal) + np.diag(off, 1) + np.diag(off, -1))


def norm_bound(H):
    return 4.0 / H.grid.h**2 + np.max(np.abs(H.potential))


def check_sturm_count(H, where):
    levels = dense_levels(H)
    lam = levels[0] - 1.0 + where * (levels[-1] - levels[0] + 2.0)
    # within roundoff of a level the count may go either way
    assume(np.min(np.abs(levels - lam)) > 1e-9 * norm_bound(H))
    assert sturm_count(H, lam, 0) + sturm_count(H, lam, 1) == np.count_nonzero(levels < lam)


def check_lowest_eigenpairs(H, k):
    k = min(k, H.grid.n_points)
    levels = dense_levels(H)
    pairs = lowest_eigenpairs(H, k)
    scale = norm_bound(H)
    for j, (energy, wave) in enumerate(pairs):
        assert energy == pytest.approx(levels[j], rel=1e-9, abs=1e-12 * scale)
        v = wave.samples
        assert np.array_equal(v[::-1], v if j % 2 == 0 else -v)
        residual = np.linalg.norm(H.apply(v) - energy * v)
        assert residual <= 1e-10 * scale * np.linalg.norm(v)


@SETTINGS
@given(even_hamiltonians(), st.floats(0.0, 1.0))
def test_sturm_count_matches_dense(H, where):
    check_sturm_count(H, where)


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
