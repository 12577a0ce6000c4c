"""Two-level oscillation of the equal-weight superposition."""

import numpy as np
import pytest

from shallowdw import (
    Grid,
    GridTooNarrow,
    Partner,
    analytic_period,
    evolve_series,
)
from shallowdw.grids import first_derivative
from conftest import lc_state, left_well_probability, norm_squared


def fit_period(times, values):
    """Period from linearly interpolated zero crossings of values - 1/2."""
    y = values - 0.5
    crossings = []
    for i in range(len(y) - 1):
        if y[i] == 0.0:
            crossings.append(times[i])
        elif y[i] * y[i + 1] < 0.0:
            frac = y[i] / (y[i] - y[i + 1])
            crossings.append(times[i] + frac * (times[i + 1] - times[i]))
    spacings = np.diff(crossings)
    return 2.0 * float(np.mean(spacings))


class TestLcState:
    def test_initial_state_is_real(self, default_grid):
        psi = lc_state(-1.5, default_grid, 0.0)
        assert np.max(np.abs(psi.imag)) == 0.0
        partner = Partner(-1.5, default_grid)
        expected = (partner.psi0 + partner.psi1) / np.sqrt(2)
        assert np.max(np.abs(psi.real - expected)) < 1e-14

    def test_norm_conserved(self, default_grid):
        rng = np.random.default_rng(3)
        for t in rng.uniform(0.0, 100.0, 20):
            psi = lc_state(-1.5, default_grid, float(t))
            assert norm_squared(psi, default_grid) == pytest.approx(1.0, abs=1e-10)

    def test_half_period_mirrors_density(self, default_grid):
        eps = -1.5
        half = np.pi / abs(1.0 + eps)
        d0 = np.abs(lc_state(eps, default_grid, 0.0)) ** 2
        dh = np.abs(lc_state(eps, default_grid, half)) ** 2
        assert np.max(np.abs(dh - d0[::-1])) < 1e-10


class TestLeftWellProbability:
    @pytest.mark.parametrize("state", ["psi0", "psi1"],
                             ids=["ground_state", "excited_state"])
    def test_stationary_states_sit_at_half(self, state, default_grid):
        wave = getattr(Partner(-1.5, default_grid), state)
        psi = wave.astype(complex)
        assert norm_squared(psi, default_grid) == pytest.approx(1.0, abs=1e-10)
        assert left_well_probability(psi, default_grid) == pytest.approx(0.5, abs=1e-10)

    def test_initial_superposition_leans_right(self, default_grid):
        # with psi1 > 0 for x > 0 the t=0 cross term is negative on the left
        p = left_well_probability(lc_state(-1.05, default_grid, 0.0), default_grid)
        assert p < 0.5
        partner = Partner(-1.05, default_grid)
        psi0, psi1 = partner.psi0, partner.psi1
        mid = default_grid.center_index
        cross = np.trapezoid((psi0 * psi1)[: mid + 1], dx=default_grid.h)
        assert p == pytest.approx(0.5 + cross, abs=1e-12)


class TestEvolveSeries:
    def test_fitted_period_matches_phase_arithmetic(self, default_grid):
        eps = -1.05
        period = analytic_period(eps)
        assert period == pytest.approx(2 * np.pi / 0.05, rel=1e-12)
        series = evolve_series(Partner(eps, default_grid), 3 * period, 600)
        fitted = fit_period(series.times, series.left_probability)
        assert abs(fitted - period) / period < 1e-3

    def test_pure_cosine(self, default_grid):
        # exact two-level dynamics admits no other harmonic
        eps = -1.5
        period = analytic_period(eps)
        series = evolve_series(Partner(eps, default_grid), 3 * period, 400)
        w = abs(1.0 + eps)
        basis = np.column_stack([
            np.cos(w * series.times),
            np.sin(w * series.times),
            np.ones_like(series.times),
        ])
        coeffs, *_ = np.linalg.lstsq(basis, series.left_probability, rcond=None)
        residual = series.left_probability - basis @ coeffs
        assert np.sqrt(np.mean(residual**2)) < 1e-8

        # fitted amplitude equals the half-line overlap -|eps|^(-1/4) / 2
        assert coeffs[0] == pytest.approx(-0.5 * abs(eps) ** -0.25, abs=1e-15)
        assert coeffs[2] == pytest.approx(0.5, abs=1e-15)

    def test_mirror_symmetry(self, default_grid):
        eps = -1.5
        half = analytic_period(eps) / 2.0
        for t in [0.0, 0.3, 1.7, 4.0]:
            p1 = left_well_probability(lc_state(eps, default_grid, t), default_grid)
            p2 = left_well_probability(lc_state(eps, default_grid, t + half),
                                       default_grid)
            assert p1 + p2 == pytest.approx(1.0, abs=1e-9)

    def test_probability_bounds_and_mean(self, default_grid):
        eps = -1.25
        period = analytic_period(eps)
        series = evolve_series(Partner(eps, default_grid), 2 * period, 401)
        assert np.all(series.left_probability >= 0.0)
        assert np.all(series.left_probability <= 1.0)
        # mean over an integer number of periods (drop duplicated endpoint)
        assert np.mean(series.left_probability[:-1]) == pytest.approx(0.5, abs=1e-6)

    def test_frame_validation(self, default_grid):
        with pytest.raises(ValueError):
            evolve_series(Partner(-1.5, default_grid), 1.0, 1)

    @pytest.mark.parametrize("t_max", [float("nan"), float("inf"), -float("inf"), -1.0, 0.0])
    def test_non_finite_t_max_rejected(self, default_grid, t_max):
        with pytest.raises(ValueError, match="t_max must be finite"):
            evolve_series(Partner(-1.5, default_grid), t_max, 3)

    def test_t_max_whose_phase_overflows_rejected(self, default_grid):
        # (1 + eps) t_max = -2 * 9e307 overflows; cos(inf) would be a NaN frame
        with pytest.raises(ValueError, match=r"as must \(1 \+ eps\) t_max"):
            evolve_series(Partner(-3.0, default_grid), 8.98846567431158e307, 3)

    # each bound is about twice the gap measured on the default grid
    @pytest.mark.parametrize("eps, bound", [
        (-1.05, 3e-12), (-1.5, 1e-11), (-2.5, 6e-11), (-30.0, 3e-8),
    ], ids=["-1.05", "-1.5", "-2.5", "-30.0"])
    def test_closed_form_matches_frame_by_frame_state(self, default_grid, eps, bound):
        # the trapezoid over x <= 0 is only O(h^2) at the cut x = 0, where the
        # density has a slope; the end term h^2 rho'(0) / 12 takes that out
        h, mid = default_grid.h, default_grid.center_index
        series = evolve_series(Partner(eps, default_grid), 2 * analytic_period(eps), 401)
        reference = []
        for t in series.times:
            psi = lc_state(eps, default_grid, float(t))
            slope = first_derivative(np.abs(psi) ** 2, h)[mid]
            reference.append(left_well_probability(psi, default_grid) - h * h * slope / 12)
        assert np.max(np.abs(series.left_probability - np.array(reference))) <= bound

    @pytest.mark.parametrize("eps", [-1.05, -1.5, -2.5, -30.0])
    def test_starts_at_the_closed_form_overlap(self, default_grid, eps):
        expected = 0.5 - 0.5 * abs(eps) ** -0.25
        first = evolve_series(Partner(eps, default_grid), 1.0, 2).left_probability[0]
        assert abs(first - expected) <= 2 * np.spacing(expected)

    def test_grid_that_misses_a_state_raises(self):
        with pytest.raises(GridTooNarrow, match="ground state has not decayed"):
            evolve_series(Partner(-1.05, Grid(6.0, 601)), 1.0, 3)
