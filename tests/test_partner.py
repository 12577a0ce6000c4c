"""One closed-form evaluation per (eps, grid), and the lazy fields' error order."""

import numpy as np
import pytest

from shallowdw import (
    Grid,
    InvalidEpsilon,
    Partner,
    RealWave,
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
        assert np.array_equal(partner.curve.values, potential(-1.37, x))
        assert np.array_equal(partner.w, log_derivative_of_seed(-1.37, x))
        assert np.array_equal(partner.base_well, -2.0 / np.cosh(x) ** 2)

    def test_invalid_epsilon_rejected_on_construction(self, default_grid):
        with pytest.raises(InvalidEpsilon):
            Partner(-0.5, default_grid)

    def test_curve_runs_no_tail_check(self):
        partner = Partner(-1.05, Grid.symmetric(6.0, 601))
        assert partner.curve.values[300] == 2.0 * -1.05 + 2.0
        with pytest.raises(transform.GridTooNarrow, match="ground state"):
            partner.psi0

    def test_narrow_potential_exits_0(self, tmp_path):
        assert run(["potential", "--epsilon", -1.05, "--x-max", 3, "--points", 601,
                    "--out", tmp_path / "pot.csv"]) == 0

    def test_narrow_verify_counts_bound_states_first(self, capsys):
        assert run(["verify", "--epsilon", -1.05, "--x-max", 3, "--points", 601]) == 3
        assert capsys.readouterr().err == (
            "error: expected 2 bound states for eps=-1.05, found 1\n")

    def test_narrow_verify_reports_the_ground_state_tail(self, capsys):
        assert run(["verify", "--epsilon", -1.05, "--x-max", 6, "--points", 601]) == 3
        assert capsys.readouterr().err == (
            "error: ground state has not decayed at the grid edge "
            "(|psi(x_max)|/peak = 5.61e-02 > 1e-06); increase x_max\n")

    def test_solver_runs_before_the_tail_checks(self, monkeypatch, capsys):
        monkeypatch.setattr(oracle, "INVERSE_ITERATION_MAX_STEPS", 0)
        assert run(["verify", "--epsilon", -1.05, "--x-max", 6, "--points", 601]) == 4
        assert "inverse iteration" in capsys.readouterr().err


def test_intertwining_rejects_a_wave_on_another_grid(default_grid):
    grid = Grid.symmetric(10.0, default_grid.n_points)
    with pytest.raises(ValueError, match="partner's grid"):
        check_intertwining(Partner(-1.5, default_grid),
                           RealWave(grid, np.exp(-grid.x**2)))
