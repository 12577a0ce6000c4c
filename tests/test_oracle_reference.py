"""Turning-point Sturm passes and twisted eigenvectors against what they replaced.

The reference count below is the full-length scaled Sturm loop the oracle
ran before its passes stopped past the outer turning point, on the Numerov
rows a_i = q_i / (1 - q_i/12).  The early exit is exact: past the turning
point every a_i >= 0, so once r leaves (-1, 0) no later pivot is negative.
The counts must therefore agree at every lam, rounding included.
"""

import numpy as np
import pytest

from shallowdw import Grid, Partner, TridiagonalHamiltonian, oracle, wells
from shallowdw.oracle import PIVMIN, sturm_count

from conftest import counting_view, dense_sector_levels, drawn_rows, lowest_eigenpairs

EPS_VALUES = (-1.05, -1.5, -2.95)


def ref_scaled_sector(H, lam, parity):
    q = H.grid.h**2 * (H.potential[H.grid.center_index:] - lam)
    a = (q / (1.0 - q / 12.0)).tolist()
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
    return tuple(int(np.count_nonzero(levels < lam)) for levels in dense_sector_levels(H))


def assert_counts_match(H, lams):
    for lam in lams:
        for parity in (0, 1):
            assert sturm_count(H, lam, parity) == ref_count(H, lam, parity), (lam, parity)


def bits(values):
    """The IEEE bit patterns of float values."""
    return np.fromiter(values, float).view(np.uint64).tolist()


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
        # the bracket's ceiling for an unbound level, where every pivot is negative
        ceiling = top + 6.0 / H.grid.h**2
        assert_counts_match(H, [0.0, top + 1.0, ceiling])
        for parity in (0, 1):
            assert sturm_count(H, ceiling, parity) == H.grid.center_index + 1 - parity

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
        # the a_i each count draws: none walks the whole sector.  Bisection
        # of both levels at n = 1999 counts on 1000 rows (even) or 999 (odd)
        read, count = [], oracle.sturm_count
        drawn = drawn_rows(monkeypatch)

        def measuring(H, lam, parity):
            drawn.clear()
            result = count(H, lam, parity)
            # a count at lam <= min V draws no row
            read.append(len(drawn) / (H.grid.center_index + 1 - parity))
            return result

        monkeypatch.setattr(oracle, "sturm_count", measuring)
        H = partner(-1.5, 1999)
        for parity in (0, 1):
            oracle._bracket(H, parity, 0)
        # the levels below 0 come from bound_counts, not from a count at
        # lam = 0, so every count stops short of the edge
        assert read and all(f < 0.6 for f in read)

    @pytest.mark.parametrize("make, lams", [
        # a 251-node grid and two finer ones: lam at min V, below, between
        # and above the levels -1.5 and -1
        (lambda: partner(-1.5, 251), (None, -1.8, -1.25, -0.5)),
        (lambda: partner(-1.5), (None, -1.8, -1.25, -0.5)),
        (lambda: partner(-1.5, 16001), (None, -1.8, -1.25, -0.5)),
        # h = 1: even levels -1.37 and 3.76, odd level 2.4, min V = -3
        (lambda: TridiagonalHamiltonian(Grid(1.0, 3), [0.0, -3.0, 0.0]),
         (None, -2.0, 0.0, 3.0, 5.0)),
    ], ids=["251", "4001", "16001", "3"])
    @pytest.mark.parametrize("parity", [0, 1])
    def test_drawn_rows_are_the_sector_rows(self, make, lams, parity, monkeypatch):
        # the a_i a count computes from V's floats are _sector_rows' a_i, bit
        # for bit; at lam <= min V (None) and at a non-finite lam it draws none
        H, rows = make(), oracle._count_rows
        drawn = drawn_rows(monkeypatch)
        for lam in lams:
            lam = H.edge_min[0] if lam is None else lam
            drawn.clear()
            sturm_count(H, lam, parity)
            whole = bits(oracle._sector_rows(H, lam, parity).tolist())
            assert bits(drawn) == whole[:len(drawn)]
            assert bits(rows(H, lam, parity)) == whole
            assert (not drawn) == (lam <= H.edge_min[0]), lam
        drawn.clear()
        with pytest.raises(ValueError, match="finite lam"):
            sturm_count(H, float("nan"), parity)
        assert not drawn

    def test_exact_zero_pivot_past_the_turning_row(self):
        # h = 1 and lam = 0: the even sector's rows are q = -12/11, 0, 1, 2
        # with its turn at row 1; a_0 = q_0 / (1 - q_0/12) rounds to -1
        # exactly, so r_0 = -0.5 and r_1 = -1.0, a zero pivot 1 + r_1 on the
        # first row past the turn
        H = TridiagonalHamiltonian(Grid(3.0, 7), [2, 1, 0, -12 / 11, 0, 1, 2])
        assert oracle._turning_row(H.edge_min, 0.0, 0) == 1
        a = oracle._sector_rows(H, 0.0, 0)
        assert a[0] == -1.0 and a[1] == 0.0
        dense = dense_sector_counts(H, 0.0)
        assert dense == (1, 0)
        for parity in (0, 1):
            assert sturm_count(H, 0.0, parity) == ref_count(H, 0.0, parity) == dense[parity]
        assert sturm_count(H, 0.0, 0) + sturm_count(H, 0.0, 1) == 1


class TestBoundCounts:
    def test_zero_counted_once_for_both_sectors(self, monkeypatch):
        # one pass at lam = 0 reads the rows of x >= 0 once and counts both
        # sectors; with it and min V, both levels stepped from eps and -1
        # are isolated without a Sturm count
        passes, lams = [], []
        rows, count = oracle._sector_rows, oracle.sturm_count

        def recording_rows(H, lam, parity):
            a = counting_view(rows(H, lam, parity))
            if lam == 0.0:
                passes.append((H.grid.n_points, parity, a))
            return a

        def recording_count(H, lam, parity):
            lams.append(lam)
            return count(H, lam, parity)

        monkeypatch.setattr(oracle, "_sector_rows", recording_rows)
        monkeypatch.setattr(oracle, "sturm_count", recording_count)
        for n in (4001, 4003):
            passes.clear()
            lams.clear()
            wells.bound_levels(Partner(-1.5, Grid(20.0, n)))
            assert [(m, parity) for m, parity, _ in passes] == [(n, 0)]
            assert all(a.lengths == [len(a)] for _, _, a in passes)
            assert lams == []

    @pytest.mark.parametrize("values, counts", [
        # the grid of test_exact_zero_pivot_past_the_turning_row
        ((2.0, 1.0, 0.0, -12 / 11, 0.0, 1.0, 2.0), (1, 0)),
        # h = 1: q = -2.4 on the edge row gives a = -2 exactly, so the
        # backward pass starts on an exact-zero pivot
        ((-2.4, 0.0, -3.0, 0.0, -2.4), (2, 1)),
        # n = 3, h = 1: the odd sector is the node x = 1 alone
        ((0.0, -3.0, 0.0), (1, 0)),
        ((-3.0, -3.0, -3.0), (1, 1)),
        ((0.0, 0.0, 0.0), (0, 0)),
    ])
    def test_pinned_counts(self, values, counts):
        n = len(values)
        H = TridiagonalHamiltonian(Grid((n - 1) / 2, n), values)
        assert H.bound_counts == counts
        assert (sturm_count(H, 0.0, 0), sturm_count(H, 0.0, 1)) == counts
        assert dense_sector_counts(H, 0.0) == counts


class TestTwistedVector:
    @pytest.mark.parametrize("n", [4001, 4003, 16001, 16003])
    @pytest.mark.parametrize("eps", EPS_VALUES)
    def test_at_most_three_steps_per_level(self, eps, n, monkeypatch):
        # stepped from eps or -1, every step is on the grid itself, and at
        # most two per level meet the target, within the bound of three
        steps = []
        original = oracle._twisted_vector

        def counting(a, r0, turn):
            steps.append(len(a))
            return original(a, r0, turn)

        monkeypatch.setattr(oracle, "_twisted_vector", counting)
        H = partner(eps, n)
        for parity, sigma in ((0, eps), (1, -1.0)):
            steps.clear()
            oracle.sector_eigenpair(H, parity, 0, sigma)
            rows = H.grid.center_index + 1 - parity
            assert steps in ([rows], [rows] * 2)

    def test_deep_well_takes_one_step_per_grid(self, monkeypatch):
        # eps = -50 at n = 64001: one step per level from eps and -1, on the
        # one grid there is
        steps = []
        original = oracle._twisted_vector

        def counting(a, r0, turn):
            steps.append(len(a))
            return original(a, r0, turn)

        monkeypatch.setattr(oracle, "_twisted_vector", counting)
        H = partner(-50.0, 64001)
        for parity, sigma in ((0, -50.0), (1, -1.0)):
            steps.clear()
            oracle.sector_eigenpair(H, parity, 0, sigma)
            assert steps == [32001 - parity]

    @pytest.mark.parametrize("eps, n, steps", [
        (-30.0, 4001, 4), (-50.0, 8001, 4), (-100.0, 16001, 4),
        (-200.0, 32001, 3), (-200.0, 64001, 2)])
    def test_deep_well_steps_per_bound_levels(self, eps, n, steps, monkeypatch):
        # the closed forms are farther from the grid's levels in a deep
        # well, so a level may take two steps; none is bisected
        stepped, step = [], oracle._twisted_step
        monkeypatch.setattr(oracle, "_twisted_step",
                            lambda H, *args: stepped.append(H.grid.n_points) or step(H, *args))
        monkeypatch.setattr(oracle, "_bracket", None)
        wells.bound_levels(Partner(eps, Grid(20.0, n)))
        assert stepped == [n] * steps

    @pytest.mark.parametrize("eps", [-50.0, -200.0])
    def test_deep_well_passes_on_the_fine_grid(self, eps):
        report = wells.verify(Partner(eps, Grid(20.0, 64001)))
        assert report.passed, [check for check in report.checks if not check.passed]

    def test_one_row_sector(self):
        # n = 3: the odd sector is the single node x = h
        a = np.array([0.25])
        z, gamma = oracle._twisted_vector(a, 1.0 + a[0], 0)
        assert np.array_equal(z, [1.0]) and gamma == 2.25
        grid = Grid(1.0, 3)
        pairs = lowest_eigenpairs(TridiagonalHamiltonian(grid, np.zeros(3)), 3)
        # -D2 has levels mu = 2 - sqrt(2), 2, 2 + sqrt(2) at h = 1; Numerov
        # divides each by its mass-matrix level 1 - mu/12
        mu = np.array([2 - np.sqrt(2), 2.0, 2 + np.sqrt(2)])
        assert [e for e, _ in pairs] == pytest.approx(mu / (1.0 - mu / 12.0))
        odd = pairs[1][1]
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
        z, gamma = oracle._twisted_vector(a, r0, 5)
        w = M @ z
        assert z[0] == 1.0 and np.all(np.abs(z[1:]) < 1.0)
        assert np.allclose(w[1:], 0.0, atol=1e-15)
        assert w[0] == pytest.approx(1e-3, rel=1e-9)
        assert gamma == pytest.approx(1e-3, rel=1e-9)
