"""Finite-difference eigensolver checks, including its own self-tests."""

import json
import warnings
from dataclasses import fields

import numpy as np
import pytest

from shallowdw import (
    BoundStateCountMismatch,
    ConvergenceFailure,
    Grid,
    Partner,
    TridiagonalHamiltonian,
    eigen_residual,
    sturm_count,
)

from shallowdw import oracle, transform, wells
from shallowdw.cli import main
from shallowdw.grids import mirror
from conftest import (apply_h, base_ground_state, cached_report, check_intertwining,
                      half, lowest_eigenpairs, normalized, numerov_matrix, overlap)

# eigenvalue errors of the partner levels stop falling near 1e-14
ROUNDING_FLOOR = 1e-13


class TestBuildHamiltonian:
    def test_free_laplacian_stencil(self):
        grid = Grid(1.0, 3)  # h = 1
        H = TridiagonalHamiltonian(grid, np.zeros(2))
        matrix = np.column_stack([apply_h(H, e, 0.0) for e in np.eye(3)])
        assert np.array_equal(matrix, [[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]])
        # V - E enters through the Numerov mass matrix B = tridiag(1, 10, 1) / 12
        shifted = np.column_stack([apply_h(H, e, -12.0) for e in np.eye(3)])
        assert np.array_equal(shifted - matrix, [[10.0, 1.0, 0.0], [1.0, 10.0, 1.0], [0.0, 1.0, 10.0]])

    def test_center_diagonal_entry(self, default_grid):
        H = TridiagonalHamiltonian(default_grid, Partner(-1.5, default_grid)._potential_half)
        h2 = default_grid.h**2
        mid = default_grid.center_index
        unit = np.zeros(default_grid.n_points)
        unit[mid] = 1.0
        # V(0) = 2 eps + 2 = -1, weighted 10/12 by the Numerov mass matrix
        assert apply_h(H, unit, 0.0)[mid] == pytest.approx(2.0 / h2 - 10.0 / 12.0, rel=1e-15)

    def test_free_particle_box_edge(self, default_grid):
        # V = 0: no bound state; lowest level is the box ground state
        H = TridiagonalHamiltonian(default_grid, np.zeros(default_grid.center_index + 1))
        (e0, _), = lowest_eigenpairs(H, 1)
        assert e0 >= 0.0
        box = np.pi**2 / (2.0 * default_grid.x_max) ** 2
        assert e0 == pytest.approx(box, abs=2e-5)


class TestEigensolverSelfTests:
    def test_harmonic_oscillator(self):
        # hbar = 2m = 1 units: E_n = 2n + 1 for V = x^2
        grid = Grid(15.0, 4001)
        H = TridiagonalHamiltonian(grid, half(grid.x, grid) ** 2)
        pairs = lowest_eigenpairs(H, 3)
        for n, (energy, _) in enumerate(pairs):
            assert energy == pytest.approx(2 * n + 1, abs=1e-4)

    def test_base_sech_well(self, default_grid):
        x = half(default_grid.x, default_grid)
        H = TridiagonalHamiltonian(default_grid, -2.0 / np.cosh(x) ** 2)
        (e0, psi), = lowest_eigenpairs(H, 1)
        assert e0 == pytest.approx(-1.0, abs=1e-5)
        assert abs(overlap(psi, base_ground_state(default_grid), default_grid)) > 0.999999

    def test_deep_well(self):
        # bisection tolerance is relative: an absolute 1e-12 is below
        # ulp(1e4) and stalls
        grid = Grid(15.0, 4001)
        H = TridiagonalHamiltonian(grid, half(grid.x, grid) ** 2 - 1e4)
        (e0, _), (e1, _) = lowest_eigenpairs(H, 2)
        assert e0 == pytest.approx(-1e4 + 1, abs=1e-4)
        assert e1 == pytest.approx(-1e4 + 3, abs=1e-4)

    def test_k_out_of_range(self, default_grid):
        H = TridiagonalHamiltonian(default_grid, np.zeros(default_grid.center_index + 1))
        with pytest.raises(ValueError):
            lowest_eigenpairs(H, 7)

    def test_k_beyond_tiny_grid(self):
        grid = Grid(1.0, 3)  # three levels in all
        with pytest.raises(ValueError):
            lowest_eigenpairs(TridiagonalHamiltonian(grid, np.zeros(2)), 4)

    @pytest.mark.parametrize("n", [3, 5, 4001])
    def test_half_of_the_wrong_length_rejected(self, n):
        # H holds V on x >= 0 alone, so V is even by construction: a whole-grid
        # V, and a half one node short or long, are refused
        grid = Grid(20.0, n)
        TridiagonalHamiltonian(grid, np.zeros(grid.center_index + 1))
        for length in (n, grid.center_index, grid.center_index + 2):
            with pytest.raises(ValueError, match="x >= 0 nodes"):
                TridiagonalHamiltonian(grid, np.zeros(length))

    def test_non_finite_potential_rejected(self, default_grid):
        values = np.zeros(default_grid.center_index + 1)
        for bad in (np.nan, np.inf, -np.inf):
            values[-1] = bad
            with pytest.raises(ValueError, match="finite"):
                TridiagonalHamiltonian(default_grid, values)

    def test_levels_closer_than_the_residual_target(self):
        # four identical wells far apart: each sector holds two levels that
        # no bisection separates, so every bracket ends at the residual target
        grid = Grid(14.0, 1401)
        V = sum(-60.0 * np.exp(-((np.abs(grid.x) - c) / 0.4) ** 2) for c in (3.0, 9.0))
        H = TridiagonalHamiltonian(grid, half(V, grid))
        energies = [energy for energy, _ in lowest_eigenpairs(H, 4)]
        dense = np.linalg.eigvalsh(numerov_matrix(grid, V))
        assert np.allclose(energies, dense[:4], rtol=0.0, atol=1e-10)

    def test_missed_residual_target_raises(self, default_grid, monkeypatch):
        # the steps from the shift and those from the bracket share the cap
        monkeypatch.setattr(oracle, "INVERSE_ITERATION_MAX_STEPS", 0)
        H = TridiagonalHamiltonian(default_grid, Partner(-1.5, default_grid)._potential_half)
        with pytest.raises(ConvergenceFailure, match="inverse iteration"):
            lowest_eigenpairs(H, 1)

    def test_deterministic(self, default_grid):
        H = TridiagonalHamiltonian(default_grid, Partner(-2.25, default_grid)._potential_half)
        a = lowest_eigenpairs(H, 2)
        b = lowest_eigenpairs(H, 2)
        for (ea, wa), (eb, wb) in zip(a, b):
            assert ea == eb
            assert np.array_equal(wa, wb)


class TestNumerovSafety:
    def test_pole_rejected(self):
        # a_i = q_i / (1 - q_i/12) changes sign through its pole at q_i = 12
        grid = Grid(1.0, 3)  # h = 1
        TridiagonalHamiltonian(grid, [0.0, 11.5])
        # a barrier or a well as high: the pole is met by the spread of V
        for values in ([0.0, 12.0], [-12.0, 0.0]):
            with pytest.raises(ValueError, match="pole"):
                TridiagonalHamiltonian(grid, values)

    def test_unbound_levels_below_the_ceiling(self):
        # V = 0 binds nothing, so bisection brackets with max V + 6/h^2; the
        # top Numerov level, 21.67 at h = 0.5, lies above 4/h^2 = 16
        grid = Grid(1.0, 5)
        H = TridiagonalHamiltonian(grid, np.zeros(3))
        ceiling = 6.0 / grid.h**2
        assert [sturm_count(H, ceiling, parity) for parity in (0, 1)] == [3, 2]
        dense = np.linalg.eigvalsh(numerov_matrix(grid, np.zeros(5)))
        assert 4.0 / grid.h**2 < dense[-1] < ceiling
        energies = [energy for energy, _ in lowest_eigenpairs(H, 5)]
        assert energies == pytest.approx(dense, rel=1e-12)

    @pytest.mark.parametrize("eps", [-1e4, -3000.0])
    def test_deep_well_steps_on_its_own_grid(self, eps):
        # h^2 (max V - min V) = 0.12 and 0.04, far below the pole: both
        # levels come from the grid itself, stepped from eps and -1
        partner = Partner(eps, Grid(20.0, 16001))
        H = TridiagonalHamiltonian(partner.grid, partner._potential_half)
        assert sum(H.bound_counts) == 2
        # k h = 0.25 and 0.14 under-resolve psi0: the solve itself is checked
        levels = wells.bound_levels(partner)
        assert levels.e0_error < 1.0 and levels.e1_error < 1e-2

    def test_failed_steps_fall_back_to_bisection(self, default_grid, monkeypatch):
        # a ConvergenceFailure in the steps from the shift, the level's coarse
        # estimate, falls back to bisection, which steps from its bracket
        H = TridiagonalHamiltonian(default_grid, Partner(-1.5, default_grid)._potential_half)
        expected = [bisection_only(H, parity, 0) for parity in (0, 1)]
        steps, bracket = oracle._inverse_iteration, oracle._bracket
        shifts = []

        def failing(H_, parity, index, sigma):
            shifts.append(sigma)
            if len(shifts) % 2:
                raise ConvergenceFailure("planted")
            return steps(H_, parity, index, sigma)

        monkeypatch.setattr(oracle, "_inverse_iteration", failing)
        got = [oracle.sector_eigenpair(H, parity, 0, sigma)
               for parity, sigma in ((0, -1.5), (1, -1.0))]
        assert same_pairs(got, expected)
        assert shifts[::2] == [-1.5, -1.0]
        assert shifts[1::2] == [bracket(H, parity, 0) for parity in (0, 1)]


def bisection_only(H, parity, index):
    """(E, y) of one sector's level from its Sturm bracket alone, as the
    solver's fallback finds it; y on x >= 0."""
    return oracle._inverse_iteration(H, parity, index, oracle._bracket(H, parity, index))


def same_pairs(a, b):
    return all(ea == eb and np.array_equal(wa, wb)
               for (ea, wa), (eb, wb) in zip(a, b))


def within_rounding(a, b):
    """Levels equal to 1e-13 max(1, |E|), and eigenvectors of overlap 1 - 1e-12."""
    return all(abs(ea - eb) <= ROUNDING_FLOOR * max(1.0, abs(eb))
               and abs(np.dot(wa, wb)) > (1.0 - 1e-12) * np.linalg.norm(wa) * np.linalg.norm(wb)
               for (ea, wa), (eb, wb) in zip(a, b))


class TestCoarseToFine:
    """Each level stepped from its shift on the one grid, and the fallback
    that a misleading shift takes."""

    def test_default_grid_work_counts(self, monkeypatch):
        # 39 eps in [-2.95, -1.05] at n = 4001 and 16001, each level stepped
        # from eps or -1: at most 3 full-grid steps per bound_levels, no
        # other grid, and the Python pivot rows (rows handed to _pivot_run
        # and _negative_pivots) pinned from above: measured 4,627 and 16,981
        # a bound_levels, as the passes stop short of the free rows at the
        # edge (6,759 and 25,492 walking every row).  The zero-energy
        # count's own rows, those of its one _negative_pivots pass from T,
        # are measured 1,581 and 5,772
        steps, rows, counted = [], [], []
        step, pivot_run, negative_pivots = (oracle._twisted_step, oracle._pivot_run,
                                            oracle._negative_pivots)

        def stepping(H, *args):
            steps.append(H.grid.n_points)
            return step(H, *args)

        def counting(run, *tallies):
            def spying(r, rows_in):
                rows_in = list(rows_in)
                for tally in tallies:
                    tally.append(len(rows_in))
                return run(r, rows_in)
            return spying

        monkeypatch.setattr(oracle, "_twisted_step", stepping)
        monkeypatch.setattr(oracle, "_pivot_run", counting(pivot_run, rows))
        monkeypatch.setattr(oracle, "_negative_pivots", counting(negative_pivots, rows, counted))
        epsilons = np.linspace(-2.95, -1.05, 39)
        for n, mean_rows, mean_counted in ((4001, 4860, 1660), (16001, 17830, 6060)):
            rows.clear()
            counted.clear()
            for eps in epsilons:
                steps.clear()
                wells.bound_levels(Partner(float(eps), Grid(20.0, n)))
                assert set(steps) == {n} and 2 <= len(steps) <= 3, (n, eps)
            assert sum(rows) / len(epsilons) <= mean_rows, n
            assert sum(counted) / len(epsilons) <= mean_counted, n

    @pytest.mark.parametrize("n", [4001, 4003, 16001, 16003, 64001])
    @pytest.mark.parametrize("eps", [-1.05, -2.0, -2.95])
    def test_agrees_with_bisection_only(self, eps, n):
        levels = wells.bound_levels(Partner(eps, Grid(20.0, n)))
        H = levels.H
        target = oracle.RESIDUAL_TOL * (4.0 / H.grid.h**2 + np.max(np.abs(H.potential)))
        for parity, ea, wa in ((0, levels.e0_numeric, levels.y0),
                               (1, levels.e1_numeric, levels.y1)):
            eb, wb = bisection_only(H, parity, 0)
            assert abs(ea - eb) <= target
            wa, wb = mirror(wa, parity), mirror(wb, parity)
            assert abs(overlap(normalized(wa, H.grid.h), normalized(wb, H.grid.h),
                               H.grid)) > 1.0 - 1e-12

    def test_misleading_shift_falls_back(self, monkeypatch):
        # harmonic well, levels 2m + 1: a shift at level 1 of a sector (5 for
        # the even, 7 for the odd) leads the steps there, Sturm counts refuse
        # it, and bisection takes over with the answer it gives alone
        grid = Grid(15.0, 4001)
        H = TridiagonalHamiltonian(grid, half(grid.x, grid) ** 2)
        expected = [bisection_only(H, parity, 0) for parity in (0, 1)]
        isolated, bracket = oracle._isolated, oracle._bracket
        verdicts, bisecting = [], []

        def recording(H_, *args):
            verdict = isolated(H_, *args)
            if not bisecting:  # the shifted path's verdicts
                verdicts.append(verdict)
            return verdict

        def marked(*args):
            bisecting.append(True)
            bracketed = bracket(*args)
            bisecting.pop()
            return bracketed

        monkeypatch.setattr(oracle, "_isolated", recording)
        monkeypatch.setattr(oracle, "_bracket", marked)
        got = [oracle.sector_eigenpair(H, parity, 0, sigma)
               for parity, sigma in ((0, 5.0), (1, 7.0))]
        assert same_pairs(got, expected)
        assert verdicts == [False, False]

    def test_every_shift_gives_the_bisected_level(self, default_grid):
        # no shift changes the level: in the partner wells the closed form,
        # eps + 0.3, min V, 0.5 above the continuum and -1e3 far below min V,
        # and in the harmonic well the closed form 2m + 1, 0, 3.7, -1e3 and
        # 500, all give the level that bisection gives alone
        for eps in (-1.05, -1.5, -2.95):
            partner = Partner(eps, default_grid)
            H = TridiagonalHamiltonian(partner.grid, partner._potential_half)
            expected = [bisection_only(H, parity, 0) for parity in (0, 1)]
            v_min = float(H.edge_min[0])
            for shifts in ((eps, -1.0), (eps + 0.3,) * 2, (v_min,) * 2, (0.5,) * 2,
                           (-1e3,) * 2):
                got = [oracle.sector_eigenpair(H, parity, 0, sigma)
                       for parity, sigma in zip((0, 1), shifts)]
                assert within_rounding(got, expected), (eps, shifts)
        grid = Grid(15.0, 4001)
        H = TridiagonalHamiltonian(grid, half(grid.x, grid) ** 2)
        for parity, index in ((0, 0), (1, 0), (0, 1), (1, 1)):
            expected = [bisection_only(H, parity, index)]
            for sigma in (4 * index + 2 * parity + 1, 0.0, 3.7, -1e3, 500.0):
                got = [oracle.sector_eigenpair(H, parity, index, float(sigma))]
                assert within_rounding(got, expected), (parity, index, sigma)


class TestBracket:
    """The fallback bisects by Sturm counts alone until its bracket is no
    wider than the residual target."""

    @staticmethod
    def assert_brackets(H, parity, index):
        lo = oracle._bracket(H, parity, index)
        hi = lo + H.residual_target
        assert sturm_count(H, lo, parity) <= index < sturm_count(H, hi, parity), (parity, index)

    @pytest.mark.parametrize("n", [2001, 4001])
    @pytest.mark.parametrize("eps", [-1.05, -1.5, -2.95, -30.0])
    def test_brackets_level_zero(self, eps, n):
        partner = Partner(eps, Grid(20.0, n))
        H = TridiagonalHamiltonian(partner.grid, partner._potential_half)
        for parity in (0, 1):
            self.assert_brackets(H, parity, 0)

    def test_brackets_levels_above_zero(self):
        # harmonic well, V >= 0: every bracket starts at [min V, the top of
        # the spectrum]
        grid = Grid(8.0, 401)
        H = TridiagonalHamiltonian(grid, half(grid.x, grid) ** 2)
        for parity in (0, 1):
            for index in (0, 1, 2):
                self.assert_brackets(H, parity, index)


class TestSturmCount:
    @pytest.mark.parametrize("eps", [-1.05, -1.5, -2.25, -2.95])
    def test_two_bound_states(self, eps, default_grid):
        H = TridiagonalHamiltonian(default_grid, Partner(eps, default_grid)._potential_half)
        assert sturm_count(H, 0.0, 0) + sturm_count(H, 0.0, 1) == 2

    def test_count_brackets_eigenvalues(self, default_grid):
        H = TridiagonalHamiltonian(default_grid, Partner(-1.5, default_grid)._potential_half)
        assert sturm_count(H, -1.6, 0) + sturm_count(H, -1.6, 1) == 0
        assert sturm_count(H, -1.2, 0) + sturm_count(H, -1.2, 1) == 1
        assert sturm_count(H, -0.5, 0) + sturm_count(H, -0.5, 1) == 2

    def test_sectors_split_the_count(self, default_grid):
        # ground state even, excited state odd
        H = TridiagonalHamiltonian(default_grid, Partner(-1.5, default_grid)._potential_half)
        assert sturm_count(H, -1.2, parity=0) == 1
        assert sturm_count(H, -1.2, parity=1) == 0
        assert sturm_count(H, -0.5, parity=1) == 1

    @pytest.mark.parametrize("lam", [np.inf, -np.inf, np.nan])
    def test_non_finite_lam_is_rejected(self, lam, default_grid):
        H = TridiagonalHamiltonian(default_grid, Partner(-1.5, default_grid)._potential_half)
        for parity in (0, 1):
            with pytest.raises(ValueError, match="finite lam"):
                sturm_count(H, lam, parity)

    @pytest.mark.parametrize("eps", [-1.05, -1.5, -2.95])
    def test_calls_per_verify(self, eps, default_grid, monkeypatch):
        # bound_counts and min V isolate both levels stepped from eps and -1,
        # so a verify makes no Sturm count
        calls, counted = [], oracle.sturm_count
        monkeypatch.setattr(oracle, "sturm_count",
                            lambda *args: calls.append(args) or counted(*args))
        wells.verify(Partner(eps, default_grid))
        assert calls == []


class TestEigenResidual:
    def test_analytic_states_are_near_eigenvectors(self, default_grid):
        # O(h^2) stencil error of the exact states at h = 0.01
        partner = Partner(-1.5, default_grid)
        H = TridiagonalHamiltonian(partner.grid, partner._potential_half)
        assert eigen_residual(H, half(partner.psi0, default_grid), 0, -1.5) < 5e-5
        assert eigen_residual(H, half(partner.psi1, default_grid), 1, -1.0) < 5e-5

    def test_energy_shift_shows_up_directly(self, default_grid):
        partner = Partner(-1.5, default_grid)
        H = TridiagonalHamiltonian(partner.grid, partner._potential_half)
        y = half(partner.psi0, default_grid)
        assert eigen_residual(H, y, 0, -1.5 + 0.1) == pytest.approx(0.1, rel=1e-3)

    @pytest.mark.parametrize("n", [3, 5])
    def test_grid_without_interior_nodes_rejected(self, n):
        # edge exclusion leaves no node to measure: raise, do not return NaN
        grid = Grid(3.0, n)
        H = TridiagonalHamiltonian(grid, np.zeros(grid.center_index + 1))
        for parity in (0, 1):
            with pytest.raises(ValueError, match="at least 7 points"):
                eigen_residual(H, np.ones(grid.center_index + 1), parity, 0.0)

    def test_smallest_measurable_grid(self):
        grid = Grid(3.0, 7)
        H = TridiagonalHamiltonian(grid, np.zeros(4))
        assert eigen_residual(H, np.ones(4), 0, 0.0) == 0.0


class TestSectorResidual:
    @pytest.mark.parametrize("parity", [0, 1])
    @pytest.mark.parametrize("n", [3, 5, 2001, 4001, 16001])
    def test_equals_the_full_grid_residual(self, n, parity):
        # a rough vector keeps the residual far above the rounding in which
        # the stencils of the mirrored rows differ from the sector's
        grid = Grid(20.0 if n > 5 else 1.0, n)
        H = TridiagonalHamiltonian(grid, Partner(-1.5, grid)._potential_half)
        y = np.random.default_rng(n).standard_normal(grid.center_index + 1)  # on x >= 0
        y[0] *= 1 - parity  # an odd vector is 0 at x = 0
        v = mirror(y, parity)
        norm2 = oracle._sum_sq(v)
        sector = np.sqrt(oracle._sector_residual(H, y, parity, -1.25) / norm2)
        full = np.sqrt(oracle._sum_sq(apply_h(H, v, -1.25)) / norm2)
        assert sector == pytest.approx(full, rel=1e-12)

    @pytest.mark.parametrize("n", [1999, 4001, 16001])
    def test_bound_levels_applies_no_full_grid_operator(self, n, monkeypatch):
        calls = []
        numerov = oracle._numerov
        monkeypatch.setattr(oracle, "_numerov",
                            lambda y, *args: calls.append(len(y)) or numerov(y, *args))
        partner = Partner(-2.5, Grid(20.0, n))
        wells.bound_levels(partner)
        assert calls.count(n) == 0
        solves = len(calls)
        calls.clear()
        # the closed-form states' residuals, on x >= 0 and one ghost node
        wells.verify(partner)
        assert calls.count(n) == 0
        assert calls == [partner.grid.center_index + 2] * (solves + 2)

    @pytest.mark.parametrize("n", [1999, 4001, 16001])
    def test_bound_levels_builds_no_whole_grid_state(self, n):
        # the grid checks run on the states' x >= 0 samples, H holds V's
        # half, and verify's checks read the halves of every field
        partner = Partner(-2.5, Grid(20.0, n))
        wells.bound_levels(partner)
        assert not {"potential", "psi0", "psi1"} & set(vars(partner))
        wells.verify(partner)
        assert not {"potential", "psi0", "psi1", "w", "base_well"} & set(vars(partner))

    @pytest.mark.parametrize("n", [3, 1999, 4001, 16001])
    def test_solver_returns_halves(self, n):
        # y on x >= 0; the odd half starts with its node at x = 0, exactly +0.0
        partner = Partner(-2.5, Grid(20.0 if n > 3 else 1.0, n))
        H = TridiagonalHamiltonian(partner.grid, partner._potential_half)
        y0, y1 = (oracle.sector_eigenpair(H, parity, 0, sigma)[1]
                  for parity, sigma in ((0, -2.5), (1, -1.0)))
        assert len(y0) == len(y1) == partner.grid.center_index + 1
        assert y1[0] == 0.0 and not np.signbit(y1[0])
        if n > 3:
            levels = wells.bound_levels(partner)
            assert np.array_equal(levels.y0, y0) and np.array_equal(levels.y1, y1)


class TestIntertwining:
    """The two Darboux identities V + V0 = 2 w^2 + 2 eps and V - V0 = -2 w'."""

    # the operator-level cross-check (Xi A - A eta) f of the same identities
    def test_gaussian(self, default_grid):
        bump = np.exp(-default_grid.x**2)
        assert check_intertwining(Partner(-1.5, default_grid), bump) < 1e-4

    def test_random_bump_family(self, default_grid):
        rng = np.random.default_rng(7)
        for _ in range(10):
            center = rng.uniform(-3.0, 3.0)
            width = rng.uniform(0.5, 2.0)
            bump = np.exp(-((default_grid.x - center) / width) ** 2)
            assert check_intertwining(Partner(-1.5, default_grid), bump) < 1e-4

    def test_base_ground_state_input(self, default_grid):
        # eta phi0 = -phi0, so both sides equal -(unnormalized psi1)
        assert check_intertwining(Partner(-1.5, default_grid), base_ground_state(default_grid)) < 1e-4

    def test_zero_input(self, default_grid):
        zero = np.zeros(default_grid.n_points)
        assert check_intertwining(Partner(-1.5, default_grid), zero) == 0.0

    def test_grid_without_interior_nodes_rejected(self):
        # four nodes are dropped at each edge: none left of 7
        grid = Grid(3.0, 7)
        with pytest.raises(ValueError, match="at least 9 points"):
            wells._intertwining_residual(Partner(-1.5, grid))

    def test_smallest_measurable_grid(self):
        assert np.isfinite(wells._intertwining_residual(Partner(-1.5, Grid(3.0, 9))))

    @pytest.mark.parametrize("eps", [-5.0, -50.0])
    def test_falls_at_fourth_order(self, eps):
        # the algebraic identity sits at rounding level; w' is 4th-order
        values = [wells._intertwining_residual(Partner(eps, Grid(20.0, n)))
                  for n in (4001, 8001, 16001)]
        for coarse, fine in zip(values, values[1:]):
            assert 12.0 <= coarse / fine <= 20.0

    def test_finite_and_quiet_at_the_most_negative_eps(self):
        # w^2 <= |eps| <= sqrt(DBL_MAX) / 2: the algebraic identity cannot overflow
        eps = transform.EPSILON_MIN
        grid = Grid(15.0 / np.sqrt(-eps), 1001)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert wells._intertwining_residual(Partner(eps, grid)) < 1e-4


class TestVerifySpectrum:
    @pytest.mark.parametrize("eps", [-1.10, -2.25])
    def test_figure_regimes(self, eps):
        report = cached_report(eps)
        assert report.e0_error < 1e-4
        assert report.e1_error < 1e-4

    def test_near_degenerate_gap(self):
        # needs a wider box: the intermediate e^{(2-k)x} growth of psi0
        # pushes the turning point out to |x| ~ 5.3
        report = cached_report(-1.0001, x_max=30.0, n_points=6001)
        gap = report.e1_numeric - report.e0_numeric
        assert gap == pytest.approx(1e-4, abs=1e-5)
        assert report.e0_error < 1e-4 and report.e1_error < 1e-4

    def test_convergence_is_fourth_order(self):
        # Numerov: errors near 1e-10 at n = 4001, well above the rounding floor
        eps = -1.5
        coarse = cached_report(eps)
        fine = cached_report(eps, n_points=8001)
        for attr in ("e0_error", "e1_error"):
            order = np.log2(getattr(coarse, attr) / getattr(fine, attr))
            assert 3.8 <= order <= 4.2

    @pytest.mark.parametrize("eps", [-1.10, -1.5, -2.25])
    def test_eigenvectors_overlap_the_closed_forms(self, eps, default_grid):
        # the solver's raw vectors, mirrored and normalized, against the
        # closed-form states
        partner = Partner(eps, default_grid)
        levels = wells.bound_levels(partner)
        for parity, y, psi in ((0, levels.y0, partner.psi0), (1, levels.y1, partner.psi1)):
            y = mirror(y, parity)
            value = abs(overlap(normalized(y, default_grid.h), psi, default_grid))
            assert 1.0 - 1e-8 < value <= 1.0 + 1e-12

    def test_bound_state_count_guard(self, monkeypatch, default_grid):
        # a grid too narrow for two levels fails its tail check first, so a
        # wrong count is planted to reach the solver's own consistency check
        monkeypatch.setattr(oracle.TridiagonalHamiltonian, "bound_counts", (1, 0))
        with pytest.raises(BoundStateCountMismatch, match="found 1"):
            wells.bound_levels(Partner(-1.05, default_grid))


class TestVerify:
    @pytest.mark.parametrize("eps", [-1.5, -2.25])
    def test_finer_grids_pass_with_falling_errors(self, eps):
        # a finer grid must never turn a pass into a fail; the errors fall
        # like h^4 under Numerov, 256x per fourfold refinement, until they
        # reach the rounding floor of about 1e-14 (below ROUNDING_FLOOR)
        sizes = (4001, 16001, 64001, 256001)
        reports = [wells.verify(Partner(eps, Grid(20.0, n))) for n in sizes]
        assert [(n, c.name) for n, report in zip(sizes, reports)
                for c in report.checks if not c.passed] == []
        for attr in ("e0_error", "e1_error"):
            errors = [getattr(report, attr) for report in reports]
            assert all(b < max(a / 200.0, ROUNDING_FLOOR)
                       for a, b in zip(errors, errors[1:])), (attr, errors)

    @pytest.mark.parametrize("widen", [1, 2])
    @pytest.mark.parametrize("j", range(3, 10))
    def test_near_degenerate_pass_holds_on_finer_grids(self, j, widen):
        # as eps -> -1 the wells move out to x = ln(4 / |1 + eps|) / 2, and both
        # states decay to TAIL_TOL within 16 more units; the closed forms are
        # sums of like-signed terms, so a finer grid adds no cancellation
        eps = -1.0 - 10.0 ** -j
        x_max = widen * float(np.ceil(np.log(4.0 * 10.0 ** j) / 2.0 + 16.0))

        def passed(intervals):
            return wells.verify(Partner(eps, Grid(x_max, intervals + 1))).passed

        coarsest = next((m for m in (400, 800, 1600, 3200) if passed(m)), None)
        assert coarsest is not None
        assert passed(4 * coarsest) and passed(16 * coarsest)

    @pytest.mark.parametrize("eps, failed", [
        (-1.5, []),
        (-2.0, []),
        (-2.6, []),
        (-3.5, []),
        # the default grid under-resolves the deep well: truncation, not a defect
        (-50.0, ["psi0_residual", "psi1_residual", "bimodality_rel_err"]),
    ])
    def test_check_records(self, eps, failed, default_grid, capsys):
        report = wells.verify(Partner(eps, default_grid))
        names = list(wells.VERIFY_TOLERANCES)
        if eps == -2.0:
            # ground level on the barrier top: rho''(0) = 0, check skipped
            assert report.bimodality_rel_err > 1.0
            names.remove("bimodality_rel_err")
        assert [c.name for c in report.checks] == names
        assert [c.name for c in report.checks if not c.passed] == failed
        assert report.passed is (not failed)
        for check in report.checks:
            assert check.value == getattr(report, check.name)
            assert check.tolerance == wells.VERIFY_TOLERANCES[check.name][0]
        # each row is two numbers, the tolerance and the skip band or None
        assert all(type(tolerance) is float and (band is None or type(band) is float)
                   for tolerance, band in wells.VERIFY_TOLERANCES.values())
        # the table's order is the report's field order, and so the JSON's
        checked = [f.name for f in fields(wells.VerifyReport)
                   if f.name in wells.VERIFY_TOLERANCES]
        assert list(wells.VERIFY_TOLERANCES) == checked
        assert main(["verify", "--epsilon", str(eps)]) == (1 if failed else 0)
        assert list(json.loads(capsys.readouterr().out)) == [
            "epsilon", "e0_analytic", "e1_analytic", "e0_numeric", "e1_numeric",
            "e0_error", "e1_error", "psi0_residual", "psi1_residual", "gap_numeric",
            "intertwining_residual", "bimodality_lhs", "bimodality_rhs",
            "bimodality_rel_err", "passed"]

    @pytest.mark.parametrize("eps, n", [(-1.5, 4001), (-1.5, 101), (-2.9, 4001)])
    def test_report_holds_python_floats_and_bools(self, eps, n):
        # a numpy scalar would print as np.float64(...) in a failed check's line
        partner = Partner(eps, Grid(20.0, n))
        levels = wells.bound_levels(partner)
        assert all(type(v) is float for v in levels[:4])
        report = wells.verify(partner)
        assert all(type(getattr(report, f.name)) is float for f in fields(report))
        assert all(type(check.passed) is bool for check in report.checks)
        assert type(report.passed) is bool
