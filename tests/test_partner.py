"""Partner as the one source of the closed forms: one evaluation per
(eps, grid), the lazy fields' error order, and the invariants of its
potential."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import shallowdw

from shallowdw import (
    Grid,
    InvalidEpsilon,
    Partner,
    RealWave,
    base_ground_state,
    check_intertwining,
    log_derivative_of_seed,
    oracle,
    potential,
    transform,
)
from shallowdw.cli import main

SWEEP_ALL = "separatrix,curvature,gap,maxima_count,e0_error,e1_error"


def run(args):
    return main([str(a) for a in args])


@pytest.fixture
def seed_calls(monkeypatch):
    """Counts every evaluation of the closed-form seed."""
    calls = []
    real = transform._seed_parts

    def counting(eps_val, x):
        calls.append(eps_val)
        return real(eps_val, x)

    monkeypatch.setattr(transform, "_seed_parts", counting)
    return calls


class TestOneSeedEvaluation:
    @pytest.mark.parametrize("args", [
        ["verify", "--epsilon", -1.5],
        ["states", "--epsilon", -1.5],
        ["potential", "--epsilon", -1.5],
        ["classify", "--epsilon", -1.5],
        ["evolve", "--epsilon", -1.5, "--frames", 11],
    ])
    def test_one_per_command(self, args, seed_calls, tmp_path):
        assert run(args + ["--out", tmp_path / "out"]) == 0
        assert seed_calls == [-1.5]

    def test_one_per_sweep_row(self, seed_calls, tmp_path):
        assert run(["sweep", "--eps-start", -2.5, "--eps-end", -1.5, "--steps", 3,
                    "--quantities", SWEEP_ALL, "--out", tmp_path / "out"]) == 0
        assert seed_calls == [-2.5, -2.0, -1.5]

    def test_closed_form_columns_need_no_seed(self, seed_calls, tmp_path):
        assert run(["sweep", "--eps-start", -2.5, "--eps-end", -1.5, "--steps", 3,
                    "--out", tmp_path / "out"]) == 0
        assert seed_calls == []


class TestLazyFields:
    def test_fields_match_the_pointwise_functions(self, default_grid):
        partner = Partner(-1.37, default_grid)
        x = default_grid.x
        assert np.array_equal(partner.potential, potential(-1.37, x))
        assert np.array_equal(partner.w, log_derivative_of_seed(-1.37, x))
        q1 = np.exp(-np.abs(x))
        assert np.array_equal(partner.base_well, -2.0 * (2.0 * q1 / (1.0 + q1 * q1)) ** 2)
        # the scaled sech^2 and 1/cosh^2 differ only by rounding
        np.testing.assert_allclose(partner.base_well, -2.0 / np.cosh(x) ** 2,
                                   rtol=2e-15, atol=0.0)

    def test_invalid_epsilon_rejected_on_construction(self, default_grid):
        with pytest.raises(InvalidEpsilon):
            Partner(-0.5, default_grid)

    def test_curve_runs_no_tail_check(self):
        partner = Partner(-1.05, Grid(6.0, 601))
        assert partner.potential[300] == 2.0 * -1.05 + 2.0
        with pytest.raises(transform.GridTooNarrow, match="ground state"):
            partner.psi0

    @pytest.mark.parametrize("state", ["psi0", "psi1"])
    def test_spacing_checked_against_the_decay_length(self, state):
        # eps = -4: k = 2, so h = 0.25 is exactly two nodes per decay length
        assert getattr(Partner(-4.0, Grid(25.0, 201)), state).norm_squared() == (
            pytest.approx(1.0, abs=1e-10))
        with pytest.raises(transform.GridTooCoarse, match="too coarse"):
            getattr(Partner(-4.0, Grid(25.0, 199)), state)

    def test_wide_grid_overflows_nothing(self):
        grid = Grid(800.0, 16001)
        partner = Partner(-1.5, grid)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert partner.psi1.samples[-1] == 0.0
            assert partner.base_well[-1] == 0.0
            assert base_ground_state(grid).samples[-1] == 0.0

    def test_narrow_potential_exits_0(self, tmp_path):
        assert run(["potential", "--epsilon", -1.05, "--x-max", 3, "--points", 601,
                    "--out", tmp_path / "pot.csv"]) == 0

    def test_narrow_verify_reports_the_tail_before_the_count(self, capsys):
        # the box holds one bound state, but the tail check comes first
        assert run(["verify", "--epsilon", -1.05, "--x-max", 3, "--points", 601]) == 3
        assert capsys.readouterr().err == (
            "error: ground state has not decayed at the grid edge "
            "(|psi(x_max)|/peak = 8.83e-01 > 1e-06); increase x_max\n")

    def test_narrow_verify_reports_the_ground_state_tail(self, capsys):
        assert run(["verify", "--epsilon", -1.05, "--x-max", 6, "--points", 601]) == 3
        assert capsys.readouterr().err == (
            "error: ground state has not decayed at the grid edge "
            "(|psi(x_max)|/peak = 5.61e-02 > 1e-06); increase x_max\n")

    def test_tail_checks_run_before_the_solver(self, monkeypatch, capsys):
        monkeypatch.setattr(oracle, "INVERSE_ITERATION_MAX_STEPS", 0)
        assert run(["verify", "--epsilon", -1.05, "--x-max", 6, "--points", 601]) == 3
        assert capsys.readouterr().err.startswith(
            "error: ground state has not decayed at the grid edge")

    def test_tiny_grid_fails_before_any_solver_arithmetic(self, capsys):
        # 2/h^2 ~ 1e158 overflowed the solver's residual sums when it ran first
        assert run(["verify", "--epsilon", -3, "--x-max", 4.47e-79, "--points", 39]) == 3
        assert capsys.readouterr().err == (
            "error: ground state has not decayed at the grid edge "
            "(|psi(x_max)|/peak = 1.00e+00 > 1e-06); increase x_max\n")


def test_intertwining_rejects_a_wave_on_another_grid(default_grid):
    grid = Grid(10.0, default_grid.n_points)
    with pytest.raises(ValueError, match="partner's grid"):
        check_intertwining(Partner(-1.5, default_grid),
                           RealWave(grid, np.exp(-grid.x**2)))


@pytest.mark.parametrize("operator", [transform.apply_a, transform.apply_a_dagger])
def test_ladder_operators_reject_a_wave_on_another_grid(operator, default_grid):
    grid = Grid(10.0, default_grid.n_points)
    with pytest.raises(ValueError, match="partner's grid"):
        operator(Partner(-1.5, default_grid), RealWave(grid, np.exp(-grid.x**2)))


def test_intertwining_applies_a_through_transform(monkeypatch, default_grid):
    calls = []

    def counting(partner, f):
        calls.append(partner)
        return transform.apply_a(partner, f)

    monkeypatch.setattr(oracle, "apply_a", counting)
    partner = Partner(-1.5, default_grid)
    check_intertwining(partner, RealWave(default_grid, np.exp(-default_grid.x**2)))
    assert calls == [partner, partner]


@settings(max_examples=200, deadline=None)
@given(st.floats(-50.0, -1.0001), st.integers(1, 1000), st.floats(0.5, 800.0))
def test_potential_is_finite_even_and_exact_at_the_centre(eps, half, x_max):
    grid = Grid(x_max, 2 * half + 1)
    v = Partner(eps, grid).potential
    assert np.all(np.isfinite(v))
    assert np.array_equal(v, v[::-1])
    assert v[grid.center_index] == 2.0 * eps + 2.0


@pytest.mark.parametrize("eps, x_max", [(-1e300, 1e-150), (-1e154, 1.0), (-8.98e307, 1.0)])
def test_potential_of_a_huge_eps_overflows_nothing(eps, x_max):
    grid = Grid(x_max, 5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v = Partner(eps, grid).potential
    assert np.all(np.isfinite(v)) and np.all(v < 0.0)
    assert v[grid.center_index] == 2.0 * eps + 2.0


def test_eps_whose_barrier_top_overflows_is_invalid(capsys):
    with pytest.raises(InvalidEpsilon, match="overflows"):
        Partner(-9e307, Grid(1.0, 5))
    assert run(["potential", "--epsilon=-9e307", "--x-max", 1, "--points", 3]) == 2
    assert capsys.readouterr().err == (
        "error: barrier top 2 eps + 2 overflows at eps = -9e+307\n")


def test_exports_resolve_and_the_wrapper_layer_is_gone():
    assert len(set(shallowdw.__all__)) == len(shallowdw.__all__)
    for name in shallowdw.__all__:
        assert hasattr(shallowdw, name), name
    for name in ("PotentialCurve", "FactorizationEnergy", "EpsilonLike",
                 "potential_curve", "ground_state", "excited_state", "ComplexWave"):
        assert name not in shallowdw.__all__
        assert not hasattr(shallowdw, name) and not hasattr(transform, name)
