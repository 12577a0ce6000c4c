"""Closed-form seed, potential and bound-state checks."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from shallowdw import (
    Grid,
    GridTooCoarse,
    GridTooNarrow,
    InvalidEpsilon,
    Partner,
    curvature_at_origin,
    potential,
    potential_log_form,
    separatrix_energy,
    transform,
)
from shallowdw.grids import first_derivative

from conftest import (apply_a, apply_a_dagger, base_ground_state, norm_squared, normalized,
                      overlap)

EPS_SWEEP = [-1.05, -1.5, -2.0, -2.25, -2.95, -3.7, -6.0, -10.0]

# extended-precision evaluation of the seed (mpmath, 50 digits), frozen
SEED_AT_225_15 = -2.948648496052271925


def seed_function(eps, x):
    """The seed u(x) at arbitrary x, from the package's scaled seed parts."""
    p = transform._seed_parts(eps, x)
    return p.u * np.exp(p.growth)


def log_derivative_of_seed(eps, x):
    """u'/u at arbitrary x, as ``Partner.w`` samples it on a grid."""
    p = transform._seed_parts(eps, x)
    return p.du / p.u


class TestEpsilonValidation:
    def test_accepts_below_threshold(self, default_grid):
        assert Partner(-1.0001, default_grid).epsilon == -1.0001

    @pytest.mark.parametrize("bad", [-1.0, -0.5, 0.0, 2.0, -1.0 - 1e-10,
                                     float("nan"), float("inf"), float("-inf")])
    def test_rejects_invalid(self, bad, default_grid):
        # a non-finite eps is named as such, not as out of range
        match = None if np.isfinite(bad) else "finite"
        with pytest.raises(InvalidEpsilon, match=match):
            Partner(bad, default_grid)
        with pytest.raises(InvalidEpsilon, match=match):
            potential(bad, 0.0)


class TestGrid:
    def test_defaults(self, default_grid):
        assert default_grid.n_points == 4001
        assert default_grid.h == pytest.approx(0.01)
        assert default_grid.x[default_grid.center_index] == 0.0

    # spacing 1.35e154 squares to inf, 1e-200 to 0
    @pytest.mark.parametrize("args", [(20.0, 4000), (1.0, 2), (2.7e154, 5), (1e-200, 3)])
    def test_rejects_bad_meshes(self, args):
        with pytest.raises(ValueError):
            Grid(*args)

    @pytest.mark.parametrize("x_max", [float("inf"), float("nan"), 0.0, -2.0])
    def test_rejects_non_finite_or_non_positive_x_max(self, x_max):
        with pytest.raises(ValueError, match="x_max must be finite and positive"):
            Grid(x_max, 5)

    def test_first_derivative_is_exact_on_a_quadratic_at_every_node(self):
        # the 4th-order interior stencil, and the 2nd-order rows at each edge
        grid = Grid(2.0, 9)
        slope = first_derivative(3.0 * grid.x**2 - grid.x + 1.0, grid.h)
        assert np.allclose(slope, 6.0 * grid.x - 1.0, rtol=0.0, atol=1e-12)


class TestSeedFunction:
    def test_value_at_origin(self):
        # sinh(0) tanh(0) = 0 forces u(0) = -sqrt(|eps|)
        assert seed_function(-1.10, 0.0) == pytest.approx(-np.sqrt(1.10), abs=1e-15)

    def test_near_degenerate_limit_is_minus_sech(self):
        # at eps -> -1 the seed collapses to -sech(x)
        x = np.linspace(-5.0, 5.0, 101)
        u = seed_function(-1.0 - 1e-9, x)
        assert np.max(np.abs(u + 1.0 / np.cosh(x))) < 1e-7

    def test_frozen_high_precision_value(self):
        assert seed_function(-2.25, 1.5) == pytest.approx(SEED_AT_225_15, rel=1e-14)

    @pytest.mark.parametrize("eps", EPS_SWEEP)
    def test_even_and_node_free(self, eps, default_grid):
        u = seed_function(eps, default_grid.x)
        assert np.max(np.abs(u - u[::-1])) <= 1e-12 * np.max(np.abs(u))
        assert np.min(np.abs(u)) > 0.0

    def test_no_overflow_far_out(self):
        # scaled exponentials keep the ratio forms finite well past x ~ 700
        w = Partner(-9.0, Grid(500.0, 3)).w
        assert np.all(np.isfinite(w)) and w[-1] == pytest.approx(3.0, abs=1e-12)


class TestLogDerivative:
    @pytest.mark.parametrize("eps", EPS_SWEEP)
    def test_zero_at_origin(self, eps):
        assert log_derivative_of_seed(eps, 0.0) == 0.0

    def test_matches_finite_difference(self):
        h = 1e-5
        for x in [-3.2, -0.7, 0.4, 1.9, 6.0]:
            fd = (np.log(np.abs(seed_function(-1.10, x + h)))
                  - np.log(np.abs(seed_function(-1.10, x - h)))) / (2 * h)
            assert log_derivative_of_seed(-1.10, x) == pytest.approx(fd, abs=1e-8)

    def test_asymptote_is_sqrt_abs_eps(self):
        assert log_derivative_of_seed(-2.25, 20.0) == pytest.approx(1.5, abs=1e-6)
        assert log_derivative_of_seed(-2.25, -20.0) == pytest.approx(-1.5, abs=1e-6)

    def test_odd_parity(self, default_grid):
        v = Partner(-1.7, default_grid).w
        assert np.max(np.abs(v + v[::-1])) < 1e-12 * np.max(np.abs(v))


class TestPotential:
    def test_barrier_top_values(self):
        assert potential(-1.10, 0.0) == 2.0 * (1.0 + -1.10)
        assert potential(-2.25, 0.0) == -2.5

    def test_degenerate_limit_vanishes(self):
        # pointwise limit only: the residual wells migrate out to
        # |x| ~ -ln(delta)/2, so keep the window fixed while delta shrinks
        x = np.linspace(-5.0, 5.0, 201)
        v9 = np.max(np.abs(potential(-1.0 - 1e-9, x)))
        v6 = np.max(np.abs(potential(-1.0 - 1e-6, x)))
        assert v9 < 1e-4
        assert v9 < 1e-2 * v6  # vanishes linearly in 1 + eps

    @pytest.mark.parametrize("eps", EPS_SWEEP)
    def test_even_and_flat_at_infinity(self, eps, default_grid):
        v = potential(eps, default_grid.x)
        assert np.max(np.abs(v - v[::-1])) < 1e-12
        assert abs(v[0]) < 1e-6 and abs(v[-1]) < 1e-6

    @pytest.mark.parametrize("eps", EPS_SWEEP)
    def test_two_formulas_agree(self, eps, default_grid):
        explicit = potential(eps, default_grid.x)
        log_form = potential_log_form(eps, default_grid.x)
        assert np.max(np.abs(explicit - log_form)) < 1e-9

    @pytest.mark.parametrize("eps", [-2.0, -50.0, -1e4, -1e8, -1e20, transform.EPSILON_MIN])
    def test_log_form_error_scales_with_eps(self, eps):
        # the log form cancels terms of size |eps|, so its absolute error
        # grows with |eps|, out to |x| = 20; at EPSILON_MIN it keeps no digit of V
        for grid in (Grid(1.0, 5), Grid(20.0, 4001)):
            err = np.max(np.abs(potential(eps, grid.x) - potential_log_form(eps, grid.x)))
            assert err <= 16.0 * np.finfo(float).eps * max(1.0, abs(eps))

    @pytest.mark.parametrize("eps", [-1.01, -1.0 - 1e-6, -1.0 - 1e-9])
    def test_log_form_error_grows_as_eps_nears_minus_one(self, eps):
        # between the wells its terms, of size 1, cancel to V ~ |1 + eps|
        grid = Grid(20.0, 4001)
        err = np.max(np.abs(potential(eps, grid.x) - potential_log_form(eps, grid.x)))
        assert err <= 8.0 * np.finfo(float).eps / abs(1.0 + eps)

    def test_curve_invariants(self, default_grid):
        v = Partner(-1.5, default_grid).potential
        assert v[default_grid.center_index] == -1.0


class TestSeparatrixAndCurvature:
    def test_separatrix_closed_form(self):
        assert separatrix_energy(-1.10) == 2.0 * (1.0 + -1.10)
        assert separatrix_energy(-2.25) == -2.5
        # eps = -2 is the degenerate boundary: 2 eps + 2 = eps
        assert separatrix_energy(-2.0) == -2.0

    def test_curvature_closed_form(self):
        assert curvature_at_origin(-2.0) == -4.0
        assert abs(curvature_at_origin(-3.0 + 1e-13)) < 1e-11
        assert curvature_at_origin(-1.0 - 1e-9) == pytest.approx(0.0, abs=1e-7)

    @pytest.mark.parametrize("eps", np.linspace(-3.9, -1.02, 25).tolist())
    def test_matches_numerical_derivatives(self, eps):
        h = 1e-4
        xs = np.array([-2 * h, -h, 0.0, h, 2 * h])
        v = potential(eps, xs)
        assert v[2] == pytest.approx(separatrix_energy(eps), abs=1e-8)
        d2 = (-v[0] + 16 * v[1] - 30 * v[2] + 16 * v[3] - v[4]) / (12 * h * h)
        assert d2 == pytest.approx(curvature_at_origin(eps), rel=1e-5)

    @pytest.mark.parametrize("eps", np.linspace(-4.0, -1.001, 41).tolist())
    def test_double_well_iff_interval(self, eps):
        if eps == -3.0:
            return
        assert (curvature_at_origin(eps) < 0) == (-3.0 < eps < -1.0)


class TestGroundState:
    @pytest.mark.parametrize("eps", [-1.05, -1.10, -2.0, -2.25, -3.5])
    def test_normalized_even_positive(self, eps, default_grid):
        psi = Partner(eps, default_grid).psi0
        assert norm_squared(psi, default_grid) == pytest.approx(1.0, abs=1e-10)
        assert np.all(psi > 0.0)
        assert np.max(np.abs(psi - psi[::-1])) < 1e-12

    def test_maxima_counts(self, default_grid):
        from shallowdw import count_density_maxima

        # the even densities' x >= 0 halves
        rho_bimodal = Partner(-1.10, default_grid)._psi0_half ** 2
        rho_central = Partner(-2.25, default_grid)._psi0_half ** 2
        assert count_density_maxima(rho_bimodal) == 2
        assert count_density_maxima(rho_central) == 1

    def test_grid_too_narrow(self):
        with pytest.raises(GridTooNarrow):
            Partner(-1.05, Grid(5.0, 1001)).psi0


class TestBaseGroundState:
    def test_center_value_and_parity(self, default_grid):
        phi = base_ground_state(default_grid)
        assert phi[default_grid.center_index] == pytest.approx(
            np.sqrt(0.5), abs=1e-12)
        # linspace nodes mirror only to rounding, so parity does too
        assert np.max(np.abs(phi - phi[::-1])) < 1e-15
        assert norm_squared(phi, default_grid) == pytest.approx(1.0, abs=1e-10)

    def test_narrow_grid_rejected(self):
        with pytest.raises(GridTooNarrow):
            base_ground_state(Grid(8.0, 1601))


class TestLadderOperators:
    def test_a_dagger_annihilates_inverse_seed(self, default_grid):
        partner = Partner(-1.5, default_grid)
        f = partner.psi0  # proportional to 1/u
        out = apply_a_dagger(partner, f)
        interior = slice(2, -2)
        assert np.max(np.abs(out[interior])) < 1e-8 * np.max(np.abs(f))

    def test_a_dagger_linearity_zero(self, default_grid):
        zero = np.zeros(default_grid.n_points)
        assert np.array_equal(apply_a_dagger(Partner(-1.5, default_grid), zero), zero)

    def test_factorization_recovers_base_eigenvalue(self, default_grid):
        # (A+ A + eps) phi0 = -phi0 for every eps
        eps = -1.5
        phi = base_ground_state(default_grid)
        out = apply_a_dagger(Partner(eps, default_grid), apply_a(Partner(eps, default_grid), phi)) + eps * phi
        interior = slice(4, -4)
        assert np.max(np.abs(out[interior] + phi[interior])) < 1e-6

    def test_a_phi0_is_excited_state(self, default_grid):
        eps = -1.5
        raw = apply_a(Partner(eps, default_grid), base_ground_state(default_grid))
        wave = normalized(raw, default_grid.h)
        psi1 = Partner(eps, default_grid).psi1
        sign = np.sign(wave[default_grid.center_index + 1])
        assert np.max(np.abs(sign * wave - psi1)) < 1e-8

    def test_parity_flip(self, default_grid):
        # odd input -> even output: both -d/dx and u'/u flip parity
        odd = np.sin(default_grid.x) * np.exp(-default_grid.x**2)
        out = apply_a(Partner(-2.25, default_grid), odd)
        interior = slice(3, -3)
        mirrored = out[::-1]
        assert np.max(np.abs(out[interior] - mirrored[interior])) < 1e-9


class TestExcitedState:
    @pytest.mark.parametrize("eps", [-1.05, -1.5, -2.25, -2.95])
    def test_odd_single_node_normalized(self, eps, default_grid):
        psi = Partner(eps, default_grid).psi1
        mid = default_grid.center_index
        assert psi[mid] == 0.0
        assert norm_squared(psi, default_grid) == pytest.approx(1.0, abs=1e-10)
        assert np.max(np.abs(psi + psi[::-1])) < 1e-12
        sign_changes = np.sum(np.diff(np.sign(psi[np.abs(psi) > 0])) != 0)
        assert sign_changes == 1
        assert psi[mid + 1] > 0.0  # sign convention

    @settings(max_examples=100, deadline=None)
    @given(st.floats(-50.0, -1.0001), st.floats(20.0, 60.0), st.integers(2000, 8000))
    def test_positive_on_the_right_half_line(self, eps, x_max, half):
        # the closed form itself has this sign; nothing flips it
        grid = Grid(x_max, 2 * half + 1)
        try:
            psi = Partner(eps, grid).psi1
        except (GridTooNarrow, GridTooCoarse):
            assume(False)
        right = psi[grid.center_index + 1:]
        assert np.all(right[right != 0.0] > 0.0)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(-1e4, -1.5))
    def test_matches_the_sum_form_within_its_rounding(self, eps):
        # psi1 = (1 + eps) sech s / u, one product, in place of the sum
        # sech (tanh + u'/u) with u = s t - k c and u' = k c t + s (sech^2 - k^2);
        # where |1 + eps| >= 1/2 they differ by at most the first-order rounding
        # of that sum's terms (measured: 1.19 times it over 1,200 eps)
        x = np.concatenate([np.linspace(-60.0, 60.0, 1201), np.linspace(-1e-3, 1e-3, 201)])
        p = transform._seed_parts(eps, x)
        k, c, s, t = np.sqrt(-eps), (1.0 + p.q) / 2.0, p.s, p.tanh
        u = s * t - k * c
        w = (k * c * t + s * (p.sech2 - k * k)) / u
        rounding = np.finfo(float).eps * p.sech * (
            np.abs(t) + np.abs(w) + (k * c * np.abs(t) + np.abs(s) * (p.sech2 + k * k)
                                     + np.abs(w) * (np.abs(s * t) + k * c)) / np.abs(u))
        product = (1.0 + eps) * s * p.sech / p.u
        assert np.all(np.abs((t + w) * p.sech - product) <= 2.0 * rounding)

    def test_orthogonal_to_ground(self, default_grid):
        partner = Partner(-1.5, default_grid)
        assert abs(overlap(partner.psi0, partner.psi1, default_grid)) < 1e-10
