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
    grids,
    oracle,
    potential,
    potential_log_form,
    transform,
    wells,
)
from shallowdw.cli import main

from conftest import (apply_a, apply_a_dagger, base_ground_state, check_intertwining,
                      norm_squared)

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


SIGN_BIT = np.uint64(1 << 63)


def bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


def holds(samples, grid, eps):
    """The closed-form states' grid checks, made on the whole grid."""
    peak = np.max(np.abs(samples))
    tail = max(abs(samples[0]), abs(samples[-1]))
    return (peak > 0.0 and tail <= transform.TAIL_TOL * peak
            and grid.h * max(1.0, np.sqrt(-eps)) <= transform.COARSE_KH)


class TestLazyFields:
    @pytest.mark.parametrize("eps", [-1.05, -2.95, -50.0])
    @pytest.mark.parametrize("x_max", [1.0, 20.0])
    @pytest.mark.parametrize("n", [3, 5, 39, 2001, 4001, 64001])
    def test_fields_match_the_pointwise_functions(self, n, x_max, eps, monkeypatch):
        # each field is evaluated on x >= 0 and mirrored, and must equal its
        # closed form evaluated on the whole grid, bit for bit
        grid = Grid(x_max, n)
        x = grid.x
        seed = transform._seed_parts(eps, x)
        states = {"psi0": np.exp(-seed.growth) / -seed.u,
                  "psi1": seed.s * seed.sech / -seed.u}
        # the closed-form norms: ||1/u||^2 = 2 / (k d), ||A sech||^2 = 2 d
        d = -1.0 - eps
        scales = {"psi0": np.sqrt(np.sqrt(-eps) * d / 2.0), "psi1": np.sqrt(d / 2.0)}
        for name, samples in states.items():
            # checked on x >= 0, a grid is judged as on the whole grid
            if holds(samples, grid, eps):
                getattr(Partner(eps, grid), name)
            else:
                with pytest.raises((transform.GridTooNarrow, transform.GridTooCoarse)):
                    getattr(Partner(eps, grid), name)
        # without the grid checks, the states of every grid can be compared
        monkeypatch.setattr(transform, "_check_samples", lambda samples, *args: samples)
        partner = Partner(eps, grid)
        expected = {"potential": potential(eps, x), "w": seed.du / seed.u,
                    "base_well": -2.0 * seed.sech2,
                    **{name: scales[name] * samples for name, samples in states.items()}}
        for name, values in expected.items():
            got = bits(getattr(partner, name))
            assert np.array_equal(got, bits(values)), name
            # row i against row n-1-i: w(0) is -0.0, and odd fields keep it
            before, after = got[:n // 2], got[:n // 2:-1]
            if name in ("w", "psi1"):
                after = after ^ SIGN_BIT
            assert np.array_equal(before, after), name
        q1 = np.exp(-np.abs(x))
        assert np.array_equal(partner.base_well, -2.0 * (2.0 * q1 / (1.0 + q1 * q1)) ** 2)
        # the scaled sech^2 and 1/cosh^2 differ only by rounding
        np.testing.assert_allclose(partner.base_well, -2.0 / np.cosh(x) ** 2,
                                   rtol=2e-15, atol=0.0)

    @pytest.mark.parametrize("eps, x_max, n", [
        (-1.5, 20.0, 4001), (-50.0, 20.0, 4001), (-1.05, 6.0, 601), (-1.05, 3.0, 601),
        (-1.5, 1000.0, 3), (-4.0, 25.0, 199), (-4.0, 25.0, 201), (-1.5, 800.0, 16001),
    ])
    def test_check_grid_raises_what_the_states_raise(self, eps, x_max, n):
        def outcome(read):
            try:
                read(Partner(eps, Grid(x_max, n)))
            except (transform.GridTooNarrow, transform.GridTooCoarse) as exc:
                return type(exc), str(exc)
            return None

        assert outcome(Partner.check_grid) == outcome(lambda p: (p.psi0, p.psi1))

    def test_verify_checks_each_state_once(self, default_grid, monkeypatch):
        # each state checks the grid when its half is first made, and only then
        checked = []
        real = transform._check_samples
        monkeypatch.setattr(transform, "_check_samples",
                            lambda samples, what, partner:
                            checked.append(what) or real(samples, what, partner))
        wells.verify(Partner(-1.5, default_grid))
        assert checked == ["ground state", "excited state"]

    def test_invalid_epsilon_rejected_on_construction(self, default_grid):
        with pytest.raises(InvalidEpsilon):
            Partner(-0.5, default_grid)

    def test_curve_runs_no_tail_check(self):
        partner = Partner(-1.05, Grid(6.0, 601))
        assert partner.potential[300] == 2.0 * -1.05 + 2.0
        # a cached_property that raises caches nothing: every read raises
        for read in (lambda p: p.psi0, Partner.check_grid, lambda p: p.psi0):
            with pytest.raises(transform.GridTooNarrow, match="ground state"):
                read(partner)

    def test_excited_state_zero_on_every_node(self):
        # nodes at 0 and +-1000: psi1 is 0 at the centre and underflows at
        # the edges; the CLI never gets here, since it reads psi0 first
        with pytest.raises(transform.GridTooNarrow,
                           match="excited state is zero on every node"):
            Partner(-1.5, Grid(1000.0, 3)).psi1

    @pytest.mark.parametrize("state", ["psi0", "psi1"])
    def test_spacing_checked_against_the_decay_length(self, state):
        # eps = -4: k = 2, so h = 0.25 is exactly two nodes per decay length
        grid = Grid(25.0, 201)
        assert norm_squared(getattr(Partner(-4.0, grid), state), grid) == (
            pytest.approx(1.0, abs=1e-10))
        with pytest.raises(transform.GridTooCoarse, match="too coarse"):
            getattr(Partner(-4.0, Grid(25.0, 199)), state)

    def test_wide_grid_overflows_nothing(self):
        grid = Grid(800.0, 16001)
        partner = Partner(-1.5, grid)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert partner.psi1[-1] == 0.0
            assert partner.base_well[-1] == 0.0
            assert base_ground_state(grid)[-1] == 0.0

    def test_narrow_potential_exits_0(self, tmp_path):
        assert run(["potential", "--epsilon", -1.05, "--x-max", 3, "--points", 601,
                    "--out", tmp_path / "pot.csv"]) == 0

    def test_narrow_verify_reports_the_tail_before_the_count(self, capsys):
        # the box holds one bound state, but the tail check comes first
        assert run(["verify", "--epsilon", -1.05, "--x-max", 3, "--points", 601]) == 3
        assert capsys.readouterr().err == (
            "error: ground state has not decayed at the grid edge "
            "(|psi(x_max)|/peak = 0.8831430314361943 > 1e-06); increase x_max\n")

    def test_narrow_verify_reports_the_ground_state_tail(self, capsys):
        # the ratios here and above are the exact ratios of 1/u, correctly rounded
        assert run(["verify", "--epsilon", -1.05, "--x-max", 6, "--points", 601]) == 3
        assert capsys.readouterr().err == (
            "error: ground state has not decayed at the grid edge "
            "(|psi(x_max)|/peak = 0.05609481227775603 > 1e-06); increase x_max\n")

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
            "(|psi(x_max)|/peak = 1.0 > 1e-06); increase x_max\n")


def test_intertwining_rejects_a_wave_on_another_grid(default_grid):
    # samples carry no grid: one of another node count is what can be caught
    grid = Grid(10.0, default_grid.n_points + 2)
    with pytest.raises(ValueError, match="partner's grid"):
        check_intertwining(Partner(-1.5, default_grid), np.exp(-grid.x**2))


@pytest.mark.parametrize("operator", [apply_a, apply_a_dagger])
def test_ladder_operators_reject_a_wave_on_another_grid(operator, default_grid):
    grid = Grid(10.0, default_grid.n_points + 2)
    with pytest.raises(ValueError, match="partner's grid"):
        operator(Partner(-1.5, default_grid), np.exp(-grid.x**2))


@settings(max_examples=200, deadline=None)
@given(st.floats(-50.0, -1.0001), st.integers(1, 1000), st.floats(0.5, 800.0))
def test_potential_is_finite_even_and_exact_at_the_centre(eps, half, x_max):
    grid = Grid(x_max, 2 * half + 1)
    v = Partner(eps, grid).potential
    assert np.all(np.isfinite(v))
    assert np.array_equal(v, v[::-1])
    assert v[grid.center_index] == 2.0 * eps + 2.0


# every verify check is scale-invariant, so this alone pins the closed-form
# norms.  x_max >= 30 leaves tails below eps_mach from eps = -1.01 on; the
# largest gap in 3000 draws was 5 eps_mach, at eps = -1.01 and h = 0.25
@settings(max_examples=200, deadline=None)
@given(st.floats(-50.0, -1.01), st.floats(30.0, 60.0), st.floats(0.02, 0.25))
def test_states_have_unit_trapezoid_norm_on_resolving_grids(eps, x_max, kh):
    grid = Grid(x_max, 2 * int(np.ceil(x_max * max(1.0, np.sqrt(-eps)) / kh)) + 1)
    assert grid.h * max(1.0, np.sqrt(-eps)) <= 0.25
    partner = Partner(eps, grid)
    for state in (partner.psi0, partner.psi1):
        assert abs(norm_squared(state, grid) - 1.0) <= 8 * np.finfo(float).eps


# x_max 15/k holds the ground state of the most negative eps
@pytest.mark.parametrize("eps, x_max", [
    (transform.EPSILON_MIN, 15.0 / np.sqrt(-transform.EPSILON_MIN)),
    (transform.EPSILON_MIN, 1.0),
    (-1e150, 1.0),
], ids=["eps_min-15_over_k", "eps_min-1.0", "-1e150-1.0"])
def test_potential_of_a_huge_eps_overflows_nothing(eps, x_max):
    grid = Grid(x_max, 5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v = Partner(eps, grid).potential
        # the cross-check formula's k**3 stays finite inside the domain too
        assert np.all(np.isfinite(potential_log_form(eps, grid.x)))
    assert np.all(np.isfinite(v)) and np.all(v < 0.0)
    assert v[grid.center_index] == 2.0 * eps + 2.0


def test_curvature_is_finite_at_the_most_negative_eps():
    # eps^2 rounds near DBL_MAX / 4 here, so this pins the last valid float
    assert np.isfinite(transform.curvature_at_origin(transform.EPSILON_MIN))
    below = np.nextafter(transform.EPSILON_MIN, -np.inf)
    with pytest.raises(InvalidEpsilon, match="curvature"):
        Partner(below, Grid(1.0, 5))


# EPSILON_MIN itself, and -6.7e153 just inside it
@pytest.mark.parametrize("eps, x_max", [
    (transform.EPSILON_MIN, 15.0 / np.sqrt(-transform.EPSILON_MIN)),
    (-6.7e153, 1.8e-76),
], ids=["eps_min", "-6.7e153"])
def test_classify_at_the_most_negative_eps_prints_finite_numbers(eps, x_max, capsys):
    assert run(["classify", f"--epsilon={eps!r}", "--x-max", x_max, "--points", 1001]) == 0
    captured = capsys.readouterr()
    assert captured.err == "" and "inf" not in captured.out.lower()
    assert "curvature=1.79" in captured.out


def test_eps_whose_barrier_top_overflows_is_invalid(capsys):
    with pytest.raises(InvalidEpsilon, match="eps >= -6.70"):
        Partner(-9e307, Grid(1.0, 5))
    assert run(["potential", "--epsilon=-9e307", "--x-max", 1, "--points", 3]) == 2
    assert capsys.readouterr().err == (
        "error: factorization energy must satisfy eps >= -6.703903964971298e+153, "
        "where the curvature 4 (3 + 4 eps + eps^2) is still finite, got -9e+307\n")


@pytest.mark.parametrize("args", [
    ["classify", "--epsilon=-1e160", "--x-max", 2e-79, "--points", 1001],
    ["classify", "--epsilon=-1e300", "--x-max", 2e-149, "--points", 1001],
    ["sweep", "--eps-start=-1e200", "--eps-end=-1e199", "--steps", 2,
     "--quantities", "curvature"],
    ["potential", "--epsilon=-1e300", "--x-max", 1e-150, "--points", 5],
], ids=["classify-1e160", "classify-1e300", "sweep-1e200", "potential-1e300"])
def test_eps_below_the_domain_exits_2(args, capsys):
    assert run(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: factorization energy must satisfy eps >= ")
    assert captured.err.count("\n") == 1


def test_exports_resolve_and_the_wrapper_layer_is_gone():
    assert len(set(shallowdw.__all__)) == len(shallowdw.__all__)
    for name in shallowdw.__all__:
        assert hasattr(shallowdw, name), name
    for name in ("PotentialCurve", "FactorizationEnergy", "EpsilonLike",
                 "potential_curve", "ground_state", "excited_state", "ComplexWave",
                 "seed_function", "log_derivative_of_seed"):
        assert name not in shallowdw.__all__
        assert not hasattr(shallowdw, name) and not hasattr(transform, name)
    # verify checks the Darboux identities; the operator-level check is a test
    assert "check_intertwining" not in shallowdw.__all__
    assert not hasattr(shallowdw, "check_intertwining")
    assert not hasattr(oracle, "check_intertwining")
    # eigen_residual applies the full-grid operator itself; the tests' apply_h
    assert not hasattr(oracle.TridiagonalHamiltonian, "apply")
    # the solver is built from a grid and V directly
    assert "build_hamiltonian" not in shallowdw.__all__
    assert not hasattr(shallowdw, "build_hamiltonian")
    assert not hasattr(oracle, "build_hamiltonian")
    # nothing in the package applies the ladder operators: the tests do
    for name in ("apply_a", "apply_a_dagger", "base_ground_state", "_apply"):
        assert name not in shallowdw.__all__ and not hasattr(transform, name)
    # one solve result and one report; states are plain arrays, and only the
    # tests ask for more than the two bound levels
    for name in ("RealWave", "SpectrumReport", "verify_spectrum", "lowest_eigenpairs"):
        assert name not in shallowdw.__all__ and not hasattr(shallowdw, name)
        assert not hasattr(oracle, name) and not hasattr(grids, name)
    assert len(shallowdw.__all__) == 22
