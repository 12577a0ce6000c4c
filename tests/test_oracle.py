"""Finite-difference eigensolver checks, including its own self-tests."""

import numpy as np
import pytest

from shallowdw import (
    BoundStateCountMismatch,
    ConvergenceFailure,
    Grid,
    Partner,
    RealWave,
    TridiagonalHamiltonian,
    base_ground_state,
    build_hamiltonian,
    check_intertwining,
    eigen_residual,
    lowest_eigenpairs,
    sturm_count,
    verify_spectrum,
)

from shallowdw import oracle
from conftest import cached_report


class TestBuildHamiltonian:
    def test_free_laplacian_stencil(self):
        grid = Grid(1.0, 3)  # h = 1
        H = TridiagonalHamiltonian(grid, np.zeros(3))
        matrix = np.column_stack([H.apply(e) for e in np.eye(3)])
        assert np.array_equal(matrix, [[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]])

    def test_center_diagonal_entry(self, default_grid):
        H = build_hamiltonian(Partner(-1.5, default_grid))
        h2 = default_grid.h**2
        mid = default_grid.center_index
        unit = np.zeros(default_grid.n_points)
        unit[mid] = 1.0
        assert H.apply(unit)[mid] == pytest.approx(2.0 / h2 - 1.0, rel=1e-15)

    def test_free_particle_box_edge(self, default_grid):
        # V = 0: no bound state; lowest level is the box ground state
        H = TridiagonalHamiltonian(default_grid, np.zeros(default_grid.n_points))
        (e0, _), = lowest_eigenpairs(H, 1)
        assert e0 >= 0.0
        box = np.pi**2 / (2.0 * default_grid.x_max) ** 2
        assert e0 == pytest.approx(box, abs=2e-5)


class TestEigensolverSelfTests:
    def test_harmonic_oscillator(self):
        # hbar = 2m = 1 units: E_n = 2n + 1 for V = x^2
        grid = Grid(15.0, 4001)
        H = TridiagonalHamiltonian(grid, grid.x**2)
        pairs = lowest_eigenpairs(H, 3)
        for n, (energy, _) in enumerate(pairs):
            assert energy == pytest.approx(2 * n + 1, abs=1e-4)

    def test_base_sech_well(self, default_grid):
        H = TridiagonalHamiltonian(default_grid, -2.0 / np.cosh(default_grid.x) ** 2)
        (e0, psi), = lowest_eigenpairs(H, 1)
        assert e0 == pytest.approx(-1.0, abs=1e-5)
        assert abs(psi.overlap(base_ground_state(default_grid))) > 0.999999

    def test_deep_well(self):
        # bisection tolerance is relative: an absolute 1e-12 is below
        # ulp(1e4) and stalls
        grid = Grid(15.0, 4001)
        H = TridiagonalHamiltonian(grid, grid.x**2 - 1e4)
        (e0, _), (e1, _) = lowest_eigenpairs(H, 2)
        assert e0 == pytest.approx(-1e4 + 1, abs=1e-4)
        assert e1 == pytest.approx(-1e4 + 3, abs=1e-4)

    def test_k_out_of_range(self, default_grid):
        H = TridiagonalHamiltonian(default_grid, np.zeros(default_grid.n_points))
        with pytest.raises(ValueError):
            lowest_eigenpairs(H, 7)

    def test_k_beyond_tiny_grid(self):
        grid = Grid(1.0, 3)  # three levels in all
        with pytest.raises(ValueError):
            lowest_eigenpairs(TridiagonalHamiltonian(grid, np.zeros(3)), 4)

    def test_uneven_potential_rejected(self, default_grid):
        # the solver only reads x >= 0
        with pytest.raises(ValueError, match="even"):
            TridiagonalHamiltonian(default_grid, default_grid.x)

    def test_missed_residual_target_raises(self, default_grid, monkeypatch):
        monkeypatch.setattr(oracle, "INVERSE_ITERATION_MAX_STEPS", 0)
        H = build_hamiltonian(Partner(-1.5, default_grid))
        with pytest.raises(ConvergenceFailure, match="inverse iteration"):
            lowest_eigenpairs(H, 1)

    def test_deterministic(self, default_grid):
        H = build_hamiltonian(Partner(-2.25, default_grid))
        a = lowest_eigenpairs(H, 2)
        b = lowest_eigenpairs(H, 2)
        for (ea, wa), (eb, wb) in zip(a, b):
            assert ea == eb
            assert np.array_equal(wa.samples, wb.samples)


class TestSturmCount:
    @pytest.mark.parametrize("eps", [-1.05, -1.5, -2.25, -2.95])
    def test_two_bound_states(self, eps, default_grid):
        H = build_hamiltonian(Partner(eps, default_grid))
        assert sturm_count(H, 0.0) == 2

    def test_count_brackets_eigenvalues(self, default_grid):
        H = build_hamiltonian(Partner(-1.5, default_grid))
        assert sturm_count(H, -1.6) == 0
        assert sturm_count(H, -1.2) == 1
        assert sturm_count(H, -0.5) == 2

    def test_sectors_split_the_count(self, default_grid):
        # ground state even, excited state odd
        H = build_hamiltonian(Partner(-1.5, default_grid))
        assert sturm_count(H, -1.2, parity=0) == 1
        assert sturm_count(H, -1.2, parity=1) == 0
        assert sturm_count(H, -0.5, parity=1) == 1

    @pytest.mark.parametrize("eps", [-1.05, -1.5, -2.95])
    def test_calls_per_verify(self, eps, default_grid, monkeypatch):
        # every Sturm evaluation goes through the module-level name
        calls = []
        counted = oracle.sturm_count

        def counting(*args, **kwargs):
            calls.append(args)
            return counted(*args, **kwargs)

        monkeypatch.setattr(oracle, "sturm_count", counting)
        verify_spectrum(Partner(eps, default_grid))
        assert 0 < len(calls) <= 40


class TestEigenResidual:
    def test_analytic_states_are_near_eigenvectors(self, default_grid):
        # O(h^2) stencil error of the exact states at h = 0.01
        partner = Partner(-1.5, default_grid)
        H = build_hamiltonian(partner)
        assert eigen_residual(H, partner.psi0, -1.5) < 5e-5
        assert eigen_residual(H, partner.psi1, -1.0) < 5e-5

    def test_energy_shift_shows_up_directly(self, default_grid):
        partner = Partner(-1.5, default_grid)
        H = build_hamiltonian(partner)
        psi = partner.psi0
        assert eigen_residual(H, psi, -1.5 + 0.1) == pytest.approx(0.1, rel=1e-3)

    @pytest.mark.parametrize("n", [3, 5])
    def test_grid_without_interior_nodes_rejected(self, n):
        # edge exclusion leaves no node to measure: raise, do not return NaN
        grid = Grid(3.0, n)
        H = TridiagonalHamiltonian(grid, np.zeros(n))
        with pytest.raises(ValueError, match="at least 7 points"):
            eigen_residual(H, RealWave(grid, np.ones(n)), 0.0)

    def test_smallest_measurable_grid(self):
        grid = Grid(3.0, 7)
        H = TridiagonalHamiltonian(grid, np.zeros(7))
        assert eigen_residual(H, RealWave(grid, np.ones(7)), 0.0) == 0.0


class TestIntertwining:
    def test_gaussian(self, default_grid):
        bump = RealWave(default_grid, np.exp(-default_grid.x**2))
        assert check_intertwining(Partner(-1.5, default_grid), bump) < 1e-4

    def test_random_bump_family(self, default_grid):
        rng = np.random.default_rng(7)
        for _ in range(10):
            center = rng.uniform(-3.0, 3.0)
            width = rng.uniform(0.5, 2.0)
            bump = RealWave(default_grid,
                            np.exp(-((default_grid.x - center) / width) ** 2))
            assert check_intertwining(Partner(-1.5, default_grid), bump) < 1e-4

    def test_base_ground_state_input(self, default_grid):
        # eta phi0 = -phi0, so both sides equal -(unnormalized psi1)
        assert check_intertwining(Partner(-1.5, default_grid), base_ground_state(default_grid)) < 1e-4

    def test_zero_input(self, default_grid):
        zero = RealWave(default_grid, np.zeros(default_grid.n_points))
        assert check_intertwining(Partner(-1.5, default_grid), zero) == 0.0

    def test_grid_without_interior_nodes_rejected(self):
        # chained stencils drop four nodes at each edge: none left of 7
        grid = Grid(3.0, 7)
        with pytest.raises(ValueError, match="at least 9 points"):
            check_intertwining(Partner(-1.5, grid), RealWave(grid, np.exp(-grid.x**2)))

    def test_smallest_measurable_grid(self):
        grid = Grid(3.0, 9)
        assert np.isfinite(check_intertwining(Partner(-1.5, grid), RealWave(grid, np.exp(-grid.x**2))))


class TestVerifySpectrum:
    @pytest.mark.parametrize("eps", [-1.10, -2.25])
    def test_figure_regimes(self, eps):
        report = cached_report(eps)
        assert report.e0_error < 1e-4
        assert report.e1_error < 1e-4
        assert report.psi0_overlap > 0.99999
        assert report.psi1_overlap > 0.99999
        assert 1.0 - report.psi0_overlap < 1e-8
        assert 1.0 - report.psi1_overlap < 1e-8

    def test_near_degenerate_gap(self):
        # needs a wider box: the intermediate e^{(2-k)x} growth of psi0
        # pushes the turning point out to |x| ~ 5.3
        report = cached_report(-1.0001, x_max=30.0, n_points=6001)
        gap = report.e1_numeric - report.e0_numeric
        assert gap == pytest.approx(1e-4, abs=1e-5)
        assert report.e0_error < 1e-4 and report.e1_error < 1e-4

    def test_convergence_is_second_order(self):
        eps = -1.5
        coarse = cached_report(eps)
        fine = cached_report(eps, n_points=8001)
        for attr in ("e0_error", "e1_error"):
            order = np.log2(getattr(coarse, attr) / getattr(fine, attr))
            assert 1.8 <= order <= 2.2

    def test_overlap_range(self):
        report = cached_report(-1.5)
        for overlap in (report.psi0_overlap, report.psi1_overlap):
            assert 0.0 <= overlap <= 1.0 + 1e-12

    def test_bound_state_count_guard(self, monkeypatch, default_grid):
        # a grid too narrow for two levels fails its tail check first, so a
        # wrong count is planted to reach the solver's own consistency check
        monkeypatch.setattr(oracle.TridiagonalHamiltonian, "bound_counts", (1, 0))
        with pytest.raises(BoundStateCountMismatch, match="found 1"):
            verify_spectrum(Partner(-1.05, default_grid))


class TestVerify:
    @pytest.mark.parametrize("eps", [-1.5, -2.25])
    def test_finer_grids_pass_with_falling_errors(self, eps):
        # a finer grid must never turn a pass into a fail; the errors fall
        # like h^2 under the 3-point stencil
        sizes = (4001, 16001, 64001, 256001)
        reports = [oracle.verify(Partner(eps, Grid(20.0, n))) for n in sizes]
        assert [(n, c.name) for n, report in zip(sizes, reports)
                for c in report.checks if not c.passed] == []
        for attr in ("e0_error", "e1_error"):
            errors = [getattr(report, attr) for report in reports]
            assert all(a > b for a, b in zip(errors, errors[1:])), (attr, errors)

    @pytest.mark.parametrize("eps, failed", [
        (-1.5, []),
        (-2.0, []),
        (-2.6, ["psi1_residual"]),
        (-3.5, ["psi0_residual", "psi1_residual"]),
    ])
    def test_check_records(self, eps, failed, default_grid):
        report = oracle.verify(Partner(eps, default_grid))
        names = list(oracle.VERIFY_TOLERANCES)
        if eps == -2.0:
            # ground level on the barrier top: rho''(0) = 0, check skipped
            assert report.bimodality_rel_err > 1.0
            names.remove("bimodality_rel_err")
        assert [c.name for c in report.checks] == names
        assert [c.name for c in report.checks if not c.passed] == failed
        assert report.passed is (not failed)
        for check in report.checks:
            assert check.value == getattr(report, check.name)
            assert check.tolerance == oracle.VERIFY_TOLERANCES[check.name][0]
