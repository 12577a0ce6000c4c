"""Turning-point Sturm passes and twisted eigenvectors against what they replaced.

The reference count below is the full-length scaled Sturm loop the oracle
ran before its passes stopped at the outer turning point.  The early exit is
exact: past the turning point every a_i >= 0, so once r >= 0 the remaining
pivots are all positive.  The counts must therefore agree at every lam,
rounding included.
"""

import numpy as np
import pytest

from shallowdw import Grid, Partner, TridiagonalHamiltonian, oracle, verify_spectrum
from shallowdw.oracle import PIVMIN, build_hamiltonian, lowest_eigenpairs, sturm_count
from shallowdw.transform import Partner

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


def assert_counts_match(H, lams):
    for lam in lams:
        for parity in (0, 1):
            assert sturm_count(H, lam, parity) == ref_count(H, lam, parity), (lam, parity)


def partner(eps, n=4001):
    return build_hamiltonian(Partner(eps, Grid(20.0, n)))


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
        # rows each count reads: only the counts at lam = 0 run the full sector
        read = []
        original = oracle._negative_pivots

        def measuring(r, rows, turn):
            rows = list(rows)
            rest = iter(rows)
            count = original(r, rest, turn)
            read.append((len(rows) - len(list(rest))) / len(rows))
            return count

        monkeypatch.setattr(oracle, "_negative_pivots", measuring)
        verify_spectrum(Partner(-1.5, Grid(20.0, 4001)))
        full = [f for f in read if f == 1.0]
        assert len(full) == 2  # both sectors at lam = 0, counted once each
        assert np.mean(read) < 0.5


class TestBoundCounts:
    def test_zero_counted_once_per_sector(self, monkeypatch):
        calls = []
        counted = oracle.sturm_count

        def counting(H, lam, parity=None):
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
