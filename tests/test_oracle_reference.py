"""Turning-point Sturm passes and twisted eigenvectors against what they replaced.

The reference count below is the full-length scaled Sturm loop the oracle
ran before its passes stopped past the outer turning point.  The early exit
is exact: past the turning point every a_i >= 0, so once r leaves (-1, 0)
no later pivot is negative.  The counts must therefore agree at every lam,
rounding included.
"""

import numpy as np
import pytest

from shallowdw import Grid, Partner, TridiagonalHamiltonian, oracle, verify_spectrum
from shallowdw.oracle import PIVMIN, lowest_eigenpairs, sturm_count

from conftest import counting_view

EPS_VALUES = (-1.05, -1.5, -2.95)


def ref_scaled_sector(H, lam, parity):
    a = (H.grid.h**2 * (H.potential[H.grid.center_index:] - lam)).tolist()
    if parity == 0:
        return 0.5 * a[0], a[1:]
    return 1.0 + a[1], a[2:]


def ref_negative_pivots(r, rest):
    count = 0
    for a in rest:
        q = 1.0 + r
        if q <= 0.0:
            count += 1
            if q == 0.0:
                q = -PIVMIN
        r = a + r / q
    return count + (r <= -1.0)


def ref_count(H, lam, parity):
    return ref_negative_pivots(*ref_scaled_sector(H, lam, parity))


def dense_sector_counts(H, lam):
    """Levels below lam of the even and of the odd sector, from the dense matrix."""
    h2 = H.grid.h**2
    off = np.full(H.grid.n_points - 1, -1.0 / h2)
    levels, vectors = np.linalg.eigh(np.diag(2.0 / h2 + H.potential)
                                     + np.diag(off, 1) + np.diag(off, -1))
    odd = np.sum(vectors * vectors[::-1], axis=0) < 0.0
    below = levels < lam
    return int(np.sum(below & ~odd)), int(np.sum(below & odd))


def assert_counts_match(H, lams):
    for lam in lams:
        for parity in (0, 1):
            assert sturm_count(H, lam, parity) == ref_count(H, lam, parity), (lam, parity)


def partner(eps, n=4001):
    p = Partner(eps, Grid(20.0, n))
    return TridiagonalHamiltonian(p.grid, p.potential)


def near(levels):
    """lam at, and within 1e-12 of, each level."""
    return [lam for e in levels
            for lam in (e, e - 1e-12, e + 1e-12, np.nextafter(e, -np.inf),
                        np.nextafter(e, np.inf))]


class TestTurningPointCount:
    @pytest.mark.parametrize("eps", EPS_VALUES)
    def test_lam_equal_to_potential_values(self, eps):
        H = partner(eps)
        half = H.potential[H.grid.center_index:]
        picks = np.unique(np.concatenate((half[::97], [half.min(), half.max()])))
        assert_counts_match(H, picks.tolist())

    @pytest.mark.parametrize("eps", EPS_VALUES)
    def test_continuum_edge_and_above_max_v(self, eps):
        H = partner(eps)
        top = float(np.max(H.potential))
        assert_counts_match(H, [0.0, top + 1.0, top + 4.0 / H.grid.h**2])

    @pytest.mark.parametrize("eps", EPS_VALUES)
    def test_within_1e_12_of_both_levels(self, eps):
        H = partner(eps)
        levels = [e for e, _ in lowest_eigenpairs(H, 2)]
        assert_counts_match(H, near(levels))

    def test_deep_well(self):
        grid = Grid(15.0, 4001)
        H = TridiagonalHamiltonian(grid, grid.x**2 - 1e4)
        levels = [e for e, _ in lowest_eigenpairs(H, 2)]
        half = H.potential[grid.center_index:]
        assert_counts_match(H, near(levels) + [0.0, -1e4, float(half[1000])])

    def test_passes_stop_short_of_the_edge(self, monkeypatch):
        # rows each count converts to floats: only the counts at lam = 0
        # convert the whole sector
        read, made = [], []
        rows, count = oracle._sector_rows, oracle.sturm_count

        def recording_rows(H, lam, parity):
            made.append(counting_view(rows(H, lam, parity)))
            return made[-1]

        def measuring(H, lam, parity):
            made.clear()
            result = count(H, lam, parity)
            (a,) = made
            read.append(sum(a.lengths) / (len(a) - 1))  # row 0 is never converted
            return result

        monkeypatch.setattr(oracle, "_sector_rows", recording_rows)
        monkeypatch.setattr(oracle, "sturm_count", measuring)
        verify_spectrum(Partner(-1.5, Grid(20.0, 4001)))
        full = [f for f in read if f == 1.0]
        assert len(full) == 2  # both sectors at lam = 0, counted once each
        assert np.mean(read) < 0.5

    def test_exact_zero_pivot_past_the_turning_row(self):
        # h = 1 and lam = 0: the even sector's rows are a = -1, 0, 1, 2 with
        # its turn at row 1, so r_0 = -0.5 and r_1 = -1.0 exactly, a zero
        # pivot 1 + r_1 on the first row past the turn
        H = TridiagonalHamiltonian(Grid(3.0, 7), [2, 1, 0, -1, 0, 1, 2])
        assert oracle._turning_row(H, 0.0, 0) == 1
        dense = dense_sector_counts(H, 0.0)
        assert dense == (1, 0)
        for parity in (0, 1):
            assert sturm_count(H, 0.0, parity) == ref_count(H, 0.0, parity) == dense[parity]
        assert sturm_count(H, 0.0, 0) + sturm_count(H, 0.0, 1) == 1


class TestBoundCounts:
    def test_zero_counted_once_per_sector(self, monkeypatch):
        calls = []
        counted = oracle.sturm_count

        def counting(H, lam, parity):
            calls.append((lam, parity))
            return counted(H, lam, parity)

        monkeypatch.setattr(oracle, "sturm_count", counting)
        verify_spectrum(Partner(-1.5, Grid(20.0, 4001)))
        assert sorted(c for c in calls if c[0] == 0.0) == [(0.0, 0), (0.0, 1)]


class TestTwistedVector:
    @pytest.mark.parametrize("n", [4001, 16001])
    @pytest.mark.parametrize("eps", EPS_VALUES)
    def test_at_most_three_steps_per_level(self, eps, n, monkeypatch):
        steps = []
        original = oracle._twisted_vector

        def counting(*args):
            steps.append(args)
            return original(*args)

        monkeypatch.setattr(oracle, "_twisted_vector", counting)
        H = partner(eps, n)
        for parity in (0, 1):
            steps.clear()
            oracle._sector_eigenpair(H, parity, 0)
            assert 1 <= len(steps) <= 3

    def test_one_row_sector(self):
        # n = 3: the odd sector is the single node x = h
        a = np.array([0.25])
        assert np.array_equal(oracle._twisted_vector(a, 1.0 + a[0], 0), [1.0])
        grid = Grid(1.0, 3)
        pairs = lowest_eigenpairs(TridiagonalHamiltonian(grid, np.zeros(3)), 3)
        assert [e for e, _ in pairs] == pytest.approx([2 - np.sqrt(2), 2.0, 2 + np.sqrt(2)])
        odd = pairs[1][1].samples
        assert odd[1] == 0.0 and odd[0] == -odd[2]

    @pytest.mark.parametrize("parity", [0, 1])
    def test_first_row_twist(self, parity):
        # rows 1.. have a_i = 1, and a_0 makes gamma_0 = D_0 - 1 / (1 + s_1)
        # equal 1e-3: the vector peaks on the first row, the twist goes there
        a = np.ones(6)
        s = 1.0 + a[-1]
        for ai in a[-2:0:-1]:
            s = ai + s / (1.0 + s)
        d0 = 1e-3 + 1.0 / (1.0 + s)  # D_0: 1 + a_0 / 2 even, 2 + a_0 odd
        a[0] = 2.0 * (d0 - 1.0) if parity == 0 else d0 - 2.0
        r0 = oracle._first_pivot(a[0], parity)
        M = np.diag(np.concatenate(([1.0 + r0], 2.0 + a[1:])))
        M -= np.eye(6, k=1) + np.eye(6, k=-1)
        z = oracle._twisted_vector(a, r0, 5)
        w = M @ z
        assert z[0] == 1.0 and np.all(np.abs(z[1:]) < 1.0)
        assert np.allclose(w[1:], 0.0, atol=1e-15)
        assert w[0] == pytest.approx(1e-3, rel=1e-9)
