"""Sturm counts and twisted eigenvectors against reference passes.

The reference count below is the full-length scaled Sturm loop on the
Numerov rows a_i = q_i / (1 - q_i/12), written out from V here rather than
taken from the oracle's ``_sector_rows``.  The counts must agree at every
lam, rounding included.

The full walks below are the zero-energy pass and the twisted steps as they
ran before they took the rows at the grid edge as free rows in closed form:
``ref_bound_counts`` runs the backward pass at lam = 0 in from the edge, and
``full_walk`` makes every twisted step walk in from the edge.
"""

import numpy as np
import pytest

from shallowdw import Grid, Partner, TridiagonalHamiltonian, oracle, wells
from shallowdw.grids import mirror
from shallowdw.oracle import EPS_MACH, PIVMIN, sturm_count

from conftest import (apply_h, bits, dense_sector_levels, half, lowest_eigenpairs,
                      zero_energy_top)

EPS_VALUES = (-1.05, -1.5, -2.95)


def ref_scaled_sector(H, lam, parity):
    q = H.grid.h**2 * (H.potential - lam)
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


def ref_bound_counts(H):
    """bound_counts by the backward pass at lam = 0 over every row, from the edge."""
    q = H.grid.h**2 * H.potential
    a = (q / (1.0 - q / 12.0)).tolist()
    count, s = 0, 1.0 + a[-1]
    for a_i in a[-2:0:-1]:
        pivot = 1.0 + s
        if pivot <= 0.0:
            count += 1
            if pivot == 0.0:
                pivot = -PIVMIN
        s = a_i + s / pivot
    odd = count + (s <= -1.0)
    return odd + (0.5 * a[0] + s / (1.0 + s or -PIVMIN) <= 0.0), odd


def spy_passes(monkeypatch):
    """A list that receives (start, rows) of every ``_negative_pivots`` pass."""
    passes, original = [], oracle._negative_pivots

    def spying(r, rows):
        rows = list(rows)
        passes.append((r, len(rows)))
        return original(r, rows)

    monkeypatch.setattr(oracle, "_negative_pivots", spying)
    return passes


def full_walk(monkeypatch):
    """Every twisted step from here on walks in from the grid edge."""
    monkeypatch.setattr(oracle, "_free_tail", lambda a, turn, rho, mu: len(a) - 1)


def spy_tails(monkeypatch):
    """A list that receives (rows, tail) of every twisted vector."""
    tails, original = [], oracle._twisted_vector

    def spying(a, r0, turn, tail):
        tails.append((len(a), tail))
        return original(a, r0, turn, tail)

    monkeypatch.setattr(oracle, "_twisted_vector", spying)
    return tails


def level_pairs(H, sigmas):
    """Level 0 of each sector, stepped from the shifts sigmas (even, odd), its
    vector mirrored onto the whole grid."""
    pairs = (oracle.sector_eigenpair(H, parity, 0, sigma) for parity, sigma in enumerate(sigmas))
    return [(energy, mirror(y, parity)) for parity, (energy, y) in enumerate(pairs)]


def dense_sector_counts(H, lam):
    """Levels below lam of the even and of the odd sector, from the dense matrix."""
    return tuple(int(np.count_nonzero(levels < lam)) for levels in dense_sector_levels(H))


def assert_counts_match(H, lams):
    for lam in lams:
        for parity in (0, 1):
            assert sturm_count(H, lam, parity) == ref_count(H, lam, parity), (lam, parity)


def partner(eps, n=4001):
    p = Partner(eps, Grid(20.0, n))
    return TridiagonalHamiltonian(p.grid, p._potential_half)


def near(levels):
    """lam at, and within 1e-12 of, each level."""
    return [lam for e in levels
            for lam in (e, e - 1e-12, e + 1e-12, np.nextafter(e, -np.inf),
                        np.nextafter(e, np.inf))]


class TestTurningPointCount:
    @pytest.mark.parametrize("eps", EPS_VALUES)
    def test_continuum_edge_and_above_max_v(self, eps):
        H = partner(eps)
        top = float(np.max(H.potential))
        # the bracket's ceiling for an unbound level, where every pivot is negative
        ceiling = top + 6.0 / H.grid.h**2
        assert_counts_match(H, [0.0, top + 1.0, ceiling])
        for parity in (0, 1):
            assert sturm_count(H, ceiling, parity) == H.grid.center_index + 1 - parity

    def test_deep_well(self):
        grid = Grid(15.0, 4001)
        H = TridiagonalHamiltonian(grid, half(grid.x, grid) ** 2 - 1e4)
        levels = [e for e, _ in lowest_eigenpairs(H, 2)]
        assert_counts_match(H, near(levels) + [0.0, -1e4, float(H.potential[1000])])

    @pytest.mark.parametrize("make, lams", [
        # a 251-node grid and two finer ones: lam at min V, below, between
        # and above the levels -1.5 and -1
        (lambda: partner(-1.5, 251), (None, -1.8, -1.25, -0.5)),
        (lambda: partner(-1.5), (None, -1.8, -1.25, -0.5)),
        (lambda: partner(-1.5, 16001), (None, -1.8, -1.25, -0.5)),
        # h = 1: even levels -1.37 and 3.76, odd level 2.4, min V = -3
        (lambda: TridiagonalHamiltonian(Grid(1.0, 3), [-3.0, 0.0]),
         (None, -2.0, 0.0, 3.0, 5.0)),
    ], ids=["251", "4001", "16001", "3"])
    @pytest.mark.parametrize("parity", [0, 1])
    def test_drawn_rows_are_the_sector_rows(self, make, lams, parity, monkeypatch):
        # a count draws its rows from one _sector_rows pass at (lam, parity);
        # at lam <= min V (None) and at a non-finite lam it makes none
        passes, rows = [], oracle._sector_rows
        monkeypatch.setattr(oracle, "_sector_rows",
                            lambda *args: passes.append(args[1:]) or rows(*args))
        H = make()
        for lam in lams:
            lam = H.edge_min[0] if lam is None else lam
            passes.clear()
            sturm_count(H, lam, parity)
            assert passes == ([] if lam <= H.edge_min[0] else [(lam, parity)]), lam
        passes.clear()
        for lam in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="finite lam"):
                sturm_count(H, lam, parity)
        assert passes == []

    # edge_min of V = (-3, -1, 0, 2): a sector's first row from which on
    # V >= lam, 0 below min V, and its last row where V < lam at the edge
    @pytest.mark.parametrize("lam, rows", [(-5.0, (0, 0)), (-0.5, (2, 1)), (3.0, (3, 2))])
    def test_turning_row_of_each_sector(self, lam, rows):
        edge_min = np.array([-3.0, -1.0, 0.0, 2.0])
        assert tuple(oracle._turning_row(edge_min, lam, parity) for parity in (0, 1)) == rows

    def test_exact_zero_pivot_past_the_turning_row(self):
        # h = 1 and lam = 0: the even sector's rows are q = -12/11, 0, 1, 2
        # with its turn at row 1; a_0 = q_0 / (1 - q_0/12) rounds to -1
        # exactly, so r_0 = -0.5 and r_1 = -1.0, a zero pivot 1 + r_1 on the
        # first row past the turn
        H = TridiagonalHamiltonian(Grid(3.0, 7), [-12 / 11, 0, 1, 2])
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
        # one count at lam = 0 draws the rows of x >= 0 once and counts both
        # sectors in one pass from T, behind the free rows at the edge; with
        # it and min V, both levels stepped from eps and -1 are isolated
        # without a Sturm count
        drawn, lams = [], []
        rows, count = oracle._sector_rows, oracle.sturm_count

        def recording_rows(H, lam, parity):
            if lam == 0.0:
                drawn.append((H.grid.n_points, parity))
            return rows(H, lam, parity)

        def recording_count(H, lam, parity):
            lams.append(lam)
            return count(H, lam, parity)

        monkeypatch.setattr(oracle, "_sector_rows", recording_rows)
        monkeypatch.setattr(oracle, "sturm_count", recording_count)
        passes = spy_passes(monkeypatch)
        for n in (4001, 4003):
            drawn.clear()
            lams.clear()
            passes.clear()
            H = wells.bound_levels(Partner(-1.5, Grid(20.0, n))).H
            assert drawn == [(n, 0)] and lams == []
            assert H.bound_counts == ref_bound_counts(H) == (1, 1)
            top = zero_energy_top(H)
            assert 0 < top < H.grid.center_index
            assert passes == [(1.0 / (H.grid.center_index - top), top)]


class TestTwistedVector:
    @pytest.mark.parametrize("n", [4001, 4003, 16001, 16003])
    @pytest.mark.parametrize("eps", EPS_VALUES)
    def test_at_most_three_steps_per_level(self, eps, n, monkeypatch):
        # stepped from eps or -1, every step is on the grid itself, and at
        # most two per level meet the target, within the bound of three
        tails = spy_tails(monkeypatch)
        H = partner(eps, n)
        for parity, sigma in ((0, eps), (1, -1.0)):
            tails.clear()
            oracle.sector_eigenpair(H, parity, 0, sigma)
            rows = H.grid.center_index + 1 - parity
            assert [m for m, _ in tails] in ([rows], [rows] * 2)

    def test_deep_well_takes_one_step_per_level(self, monkeypatch):
        # eps = -50 at n = 64001: one step per level from eps and -1, on the
        # one grid there is
        tails = spy_tails(monkeypatch)
        H = partner(-50.0, 64001)
        for parity, sigma in ((0, -50.0), (1, -1.0)):
            tails.clear()
            oracle.sector_eigenpair(H, parity, 0, sigma)
            assert [m for m, _ in tails] == [32001 - parity]

    @pytest.mark.parametrize("eps, n, steps", [
        (-30.0, 4001, 4), (-50.0, 8001, 4), (-100.0, 16001, 4),
        (-200.0, 32001, 3), (-200.0, 64001, 2), (-1e4, 16001, 6)])
    def test_deep_well_steps_per_bound_levels(self, eps, n, steps, monkeypatch):
        # the closed forms are farther from the grid's levels in a deep
        # well, so a level may take two steps; none is bisected, and none
        # needs a Sturm count, as E -+ the residual target stays below 0.
        # At eps = -1e4 min V is near -2e4: a window that grew with E - min V
        # would reach the box states above 0
        stepped, counted = [], []
        step, count = oracle._twisted_step, oracle.sturm_count
        monkeypatch.setattr(oracle, "_twisted_step",
                            lambda H, *args: stepped.append(H.grid.n_points) or step(H, *args))
        monkeypatch.setattr(oracle, "sturm_count",
                            lambda H, lam, parity: counted.append(lam) or count(H, lam, parity))
        monkeypatch.setattr(oracle, "_bracket", None)
        wells.bound_levels(Partner(eps, Grid(20.0, n)))
        assert stepped == [n] * steps and counted == []

    @pytest.mark.parametrize("eps", [-50.0, -200.0])
    def test_deep_well_passes_on_the_fine_grid(self, eps):
        report = wells.verify(Partner(eps, Grid(20.0, 64001)))
        assert report.passed, [check for check in report.checks if not check.passed]

    def test_one_row_sector(self):
        # n = 3: the odd sector is the single node x = h
        a = np.array([0.25])
        z, gamma = oracle._twisted_vector(a, 1.0 + a[0], 0, 0)
        assert np.array_equal(z, [1.0]) and gamma == 2.25
        grid = Grid(1.0, 3)
        pairs = lowest_eigenpairs(TridiagonalHamiltonian(grid, np.zeros(2)), 3)
        # -D2 has levels mu = 2 - sqrt(2), 2, 2 + sqrt(2) at h = 1; Numerov
        # divides each by its mass-matrix level 1 - mu/12
        mu = np.array([2 - np.sqrt(2), 2.0, 2 + np.sqrt(2)])
        assert [e for e, _ in pairs] == pytest.approx(mu / (1.0 - mu / 12.0))
        odd = pairs[1][1]
        assert odd[1] == 0.0 and odd[0] == -odd[2]

    @pytest.mark.parametrize("r, rows", [
        (0.0, [-1.0, 0.5, 0.3]),  # r_1 = -1: an exact-zero pivot mid-run
        (-1.0, [0.5, 0.3]),  # on the first pivot
        (0.25, [0.5, 0.3]),  # none
    ])
    def test_pivot_run_reads_an_exact_zero_pivot_as_pivmin(self, r, rows):
        ref = [r]
        for a in rows:
            q = 1.0 + r
            r = a + r / (q if q != 0.0 else -PIVMIN)
            ref.append(r)
        assert bits(oracle._pivot_run(ref[0], rows)) == bits(ref)

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
        z, gamma = oracle._twisted_vector(a, r0, 5, 5)
        w = M @ z
        assert z[0] == 1.0 and np.all(np.abs(z[1:]) < 1.0)
        assert np.allclose(w[1:], 0.0, atol=1e-15)
        assert w[0] == pytest.approx(1e-3, rel=1e-9)
        assert gamma == pytest.approx(1e-3, rel=1e-9)


def partners(n):
    """The 39 eps of the default-grid work counts and two deep wells, with
    each level's shift: its closed form, eps or -1."""
    for eps in (*np.linspace(-2.95, -1.05, 39).tolist(), -30.0, -50.0):
        yield partner(eps, n), (eps, -1.0)


def random_even_bumps(seed):
    """Even wells and barriers of a few Gaussian and sech^2 bumps on grids of
    5 to 1201 nodes; a Gaussian's tail rounds to 0, sech^2's decays like
    e^-2|x|, so most have free rows at the edge and some levels near 0."""
    rng = np.random.default_rng(seed)
    grid = Grid(float(rng.uniform(2.0, 30.0)), 2 * int(rng.integers(2, 601)) + 1)
    x = half(grid.x, grid)
    values = np.zeros(len(x))
    for _ in range(int(rng.integers(1, 4))):
        depth, centre, width = rng.uniform(-8.0, 2.0), rng.uniform(0.0, 5.0), rng.uniform(0.3, 3.0)
        shape = np.exp(-((x - centre) / width) ** 2) if rng.random() < 0.5 else \
            np.cosh((x - centre) / width) ** -2.0
        values += depth * shape
    values *= min(1.0, 5.0 / (grid.h**2 * np.ptp(values) or 1.0))
    return TridiagonalHamiltonian(grid, values)


ROUNDING_EDGE_WELLS = [
    (2.0, 1.0, 0.0, -12 / 11, 0.0, 1.0, 2.0), (-2.4, 0.0, -3.0, 0.0, -2.4), (0.0, -3.0, 0.0)]


class TestFreeTail:
    @pytest.mark.parametrize("n", [2001, 4001, 4003, 16001, 64001])
    def test_bound_counts_match_the_full_pass_on_the_eps_grid(self, n):
        for H, _ in partners(n):
            assert H.bound_counts == ref_bound_counts(H) == (1, 1)

    def test_bound_counts_match_the_full_pass_on_random_bumps(self):
        free, counts = 0, set()
        for seed in range(300):
            H = random_even_bumps(seed)
            assert H.bound_counts == ref_bound_counts(H), seed
            q = H.grid.h**2 * H.potential[-1]
            free += 2.0 + q / (1.0 - q / 12.0) == 2.0
            counts.add(H.bound_counts)
        # most draws start the pass short of the edge; the counts vary
        assert free > 60 and len(counts) > 5

    @pytest.mark.parametrize("values", [
        (2.0, 1.0, 0.0, -12 / 11, 0.0, 1.0, 2.0),
        (-2.4, 0.0, -3.0, 0.0, -2.4),
        # the exact-zero pivot of the first grid, behind free rows of V = 0
        (0.0, 0.0, 2.0, 1.0, 0.0, -12 / 11, 0.0, 1.0, 2.0, 0.0, 0.0),
        (0.0, -3.0, 0.0), (0.0, 0.0, 0.0), (0.0,) * 9,
    ])
    def test_bound_counts_on_the_exact_zero_pivot_grids(self, values):
        n = len(values)
        H = TridiagonalHamiltonian(Grid((n - 1) / 2, n), values[n // 2:])
        assert H.bound_counts == ref_bound_counts(H) == dense_sector_counts(H, 0.0)

    def test_bound_counts_with_an_exact_zero_last_pivot(self):
        # h = 1 and V_1 = -12/7 make a_1 = -1.5, so behind the free edge row
        # s_1 = a_1 + 1/2 = -1: the odd level sits at 0 exactly, and the
        # backward pass counts it as the forward one does, its zero pivot
        # read as -PIVMIN
        H = TridiagonalHamiltonian(Grid(2.0, 5), (0.0, -12 / 7, 0.0))
        assert H.bound_counts == ref_bound_counts(H) == (1, 1)
        assert (sturm_count(H, 0.0, 0), sturm_count(H, 0.0, 1)) == (1, 1)

    @pytest.mark.parametrize("rows, top, a_top", [(1000, 997, 3e-16), (3000, 2997, -1.2e-16)])
    def test_bound_counts_behind_one_row_at_the_rounding_floor(self, rows, top, a_top):
        # h = 1, a well on rows 0 and 1, and one row T at the rounding floor
        # with only a = 0 rows between: the pass from T runs its pivot down
        # thousands of rows of a = 0.  The dense count of n = 6001 takes
        # 20 s and 2 GB on a 2-vCPU host, so it is checked on n = 2001 alone
        values = np.zeros(rows + 1)
        values[:2] = -1.0, -0.5
        values[top] = a_top
        H = TridiagonalHamiltonian(Grid(rows, 2 * rows + 1), values)
        assert zero_energy_top(H) == top
        assert H.bound_counts == ref_bound_counts(H) == (1, 0)
        if rows <= 1000:
            assert dense_sector_counts(H, 0.0) == (1, 0)

    def test_bound_counts_of_a_square_well_behind_a_barrier(self):
        # a square well of depth 2.5 on |x| <= 1 and a barrier of 0.05 out
        # to |x| = 3: the odd level sits just above 0, at 0.008
        grid = Grid(20.0, 801)
        x = half(grid.x, grid)
        H = TridiagonalHamiltonian(grid, np.where(x <= 1.0, -2.5, np.where(x <= 3.0, 0.05, 0.0)))
        assert H.bound_counts == ref_bound_counts(H) == dense_sector_counts(H, 0.0) == (1, 0)

    # 2 + a rounds to 2 at a = eps_mach and -eps_mach / 2, ties to even, and
    # not at the next float outward of either
    @pytest.mark.parametrize("edge, free", [
        (EPS_MACH, True), (-EPS_MACH / 2, True),
        (np.nextafter(EPS_MACH, np.inf), False), (np.nextafter(-EPS_MACH / 2, -np.inf), False)])
    @pytest.mark.parametrize("well", ROUNDING_EDGE_WELLS)
    def test_bound_counts_behind_rows_at_the_rounding_edge(self, well, edge, free,
                                                           monkeypatch):
        # h = 1 and |V| tiny, so a_i = V_i exactly on the trailing rows.
        # Where 2 + a_i rounds to 2 the pass starts behind T, the well's last
        # row, or at no row where V = 0 there too; elsewhere it walks every
        # row from the wall
        values = (edge,) * 5 + well + (edge,) * 5
        n = len(values)
        H = TridiagonalHamiltonian(Grid((n - 1) / 2, n), values[n // 2:])
        assert oracle._sector_rows(H, 0.0, 0)[-1] == edge
        passes = spy_passes(monkeypatch)
        assert H.bound_counts == ref_bound_counts(H) == dense_sector_counts(H, 0.0)
        top = len(well) // 2 if well[-1] else 0
        walked = [rows for _, rows in passes]
        assert walked == ([top] if free else [H.grid.center_index - 1])

    @pytest.mark.parametrize("n", [2001, 4001, 16001, 64001])
    def test_eigenpairs_match_the_full_walk(self, n, monkeypatch):
        # bit-identical levels; vectors whose difference has a residual
        # within the residual target
        grid = Grid(15.0, n)
        deep = TridiagonalHamiltonian(grid, half(grid.x, grid) ** 2 - 1e4)
        cases = [*partners(n), (deep, (-1e4, -1e4))]
        tails = spy_tails(monkeypatch)
        tailed = [level_pairs(H, sigmas) for H, sigmas in cases]
        # every grid takes a free tail on most steps
        assert sum(tail < rows - 1 for rows, tail in tails) > 0.9 * len(tails)
        full_walk(monkeypatch)
        for (H, sigmas), pairs in zip(cases, tailed):
            for (e, y), (e_ref, y_ref) in zip(pairs, level_pairs(H, sigmas)):
                assert bits([e]) == bits([e_ref])
                gap = np.linalg.norm(apply_h(H, y - y_ref, e)) / np.linalg.norm(y_ref)
                assert gap <= H.residual_target, gap

    @pytest.mark.parametrize("delta, walked", [(1e-8, False), (1.0, True)])
    def test_non_free_edge_is_walked(self, delta, walked, monkeypatch):
        # V += delta on the edge node: the rows at lam = 0 are no longer
        # free, so the zero-energy pass walks every row from the edge; the
        # twisted steps take their tail farther out, or at delta = 1 none
        clean, planted = partner(-1.5), partner(-1.5)
        values = planted.potential.copy()
        values[-1] += delta
        planted = TridiagonalHamiltonian(planted.grid, values)
        passes = spy_passes(monkeypatch)
        assert planted.bound_counts == ref_bound_counts(planted) == (1, 1)
        a_edge = float(oracle._sector_rows(planted, 0.0, 0)[-1])
        assert passes == [(1.0 + a_edge, planted.grid.center_index - 1)]
        tails = spy_tails(monkeypatch)
        level_pairs(clean, (-1.5, -1.0))
        clean_tails = list(tails)
        tails.clear()
        pairs = level_pairs(planted, (-1.5, -1.0))
        assert len(tails) == len(clean_tails)
        edge = [rows_n - 1 for rows_n, _ in tails]
        moved = [tail for _, tail in tails]
        if walked:
            assert moved == edge
        else:
            clean = [tail for _, tail in clean_tails]
            assert all(c <= t < e for c, t, e in zip(clean, moved, edge)) and moved != clean
        full_walk(monkeypatch)
        for (e, y), (e_ref, y_ref) in zip(pairs, level_pairs(planted, (-1.5, -1.0))):
            assert e == e_ref
            gap = np.linalg.norm(apply_h(planted, y - y_ref, e)) / np.linalg.norm(y_ref)
            assert gap <= planted.residual_target

    def test_failed_recheck_walks_every_row(self, monkeypatch):
        # a step whose computed z fails the tail's bound is taken again on
        # every row, and gives the full walk's pair bit for bit; the recheck
        # reads z on the first free row, T + 1
        H = partner(-1.5)
        checked, vectors, walk = [], [], oracle._twisted_vector
        monkeypatch.setattr(oracle, "_tail_holds", lambda *args: checked.append(args) and False)
        monkeypatch.setattr(oracle, "_twisted_vector",
                            lambda *args: vectors.append(walk(*args)) or vectors[-1])
        tails = spy_tails(monkeypatch)
        pairs = level_pairs(H, (-1.5, -1.0))
        assert checked and len(tails) == 2 * len(checked)
        assert [z_free for _, _, z_free, *_ in checked] == [
            z[tail + 1] for (z, _), (_, tail, *_) in zip(vectors[::2], checked)]
        for (rows_n, tail), (_, again) in zip(tails[::2], tails[1::2]):
            assert tail < rows_n - 1 and again == rows_n - 1
        full_walk(monkeypatch)
        for (e, y), (e_ref, y_ref) in zip(pairs, level_pairs(H, (-1.5, -1.0))):
            assert e == e_ref and np.array_equal(y, y_ref)

    @pytest.mark.parametrize("a_edge", [1e-7, 1e-4, 0.3, 5.0])
    @pytest.mark.parametrize("tail", [3, 40, 400])
    def test_closed_forms_on_free_rows(self, a_edge, tail):
        # rows past the tail equal the edge row: the closed-form pivot and
        # decay give the walked z, entry by entry, to rounding (and to the
        # subnormals far out in the steepest tail)
        a = np.full(801, a_edge)
        a[:3] = -0.02  # a well of three rows, its turn at row 3
        r0 = oracle._first_pivot(a[0], 0)
        z, gamma = oracle._twisted_vector(a, r0, 3, tail)
        z_ref, gamma_ref = oracle._twisted_vector(a, r0, 3, 800)
        assert gamma == pytest.approx(gamma_ref, rel=1e-13)
        assert np.all(np.abs(z - z_ref) <= 1e-12 * np.abs(z_ref) + PIVMIN)

    def test_zero_energy_pass_starts_on_the_walked_pivot(self, monkeypatch):
        # V = 0 past |x| = 7, the outer 151 rows: the pass starts on the
        # last row where V is not, T = 349, from the pivot the walk over the
        # free rows reaches
        grid = Grid(10.0, 1001)
        x = half(grid.x, grid)
        values = np.where(x < 7.0, -2.0 / np.cosh(x) ** 2, 0.0)
        H = TridiagonalHamiltonian(grid, values)
        passes = spy_passes(monkeypatch)
        assert H.bound_counts == ref_bound_counts(H)
        s = 1.0  # s_N = 1 + a_N, a_N = 0
        for _ in range(499 - 349):
            s = s / (1.0 + s)
        assert zero_energy_top(H) == 349
        assert passes == [(1.0 / (500 - 349), 349)]
        assert passes[0][0] == pytest.approx(s, rel=1e-13)
