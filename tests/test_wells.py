"""Interval taxonomy and the central-curvature law of the ground density."""

import numpy as np
import pytest
from hypothesis import given, reject, settings, strategies as st

from shallowdw import (
    Grid,
    GridTooCoarse,
    GridTooNarrow,
    InvalidEpsilon,
    Partner,
    WellKind,
    check_bimodality_relation,
    classify,
    count_density_maxima,
)
from shallowdw.grids import mirror
from shallowdw.transform import EPSILON_MAX
from shallowdw.wells import PLATEAU_TOL, verify, well_kind

from conftest import base_ground_state, cached_report


def partner(eps):
    return Partner(eps, Grid.default())


class TestClassify:
    def test_ground_below_separatrix(self):
        result = classify(partner(-1.10))
        assert result.kind is WellKind.DOUBLE_WELL_GROUND_BELOW_SEPARATRIX
        assert result.separatrix == pytest.approx(-0.2)
        assert result.density_maxima_count == 2

    def test_ground_above_separatrix(self):
        result = classify(partner(-2.25))
        assert result.kind is WellKind.DOUBLE_WELL_GROUND_ABOVE_SEPARATRIX
        assert result.separatrix == -2.5
        assert result.density_maxima_count == 1

    @pytest.mark.parametrize("eps", [-3.0, -2.0])
    def test_boundaries_surface_explicitly(self, eps):
        assert classify(partner(eps)).kind is WellKind.BOUNDARY

    # the kinds that meet at each boundary: above it, then below it
    @pytest.mark.parametrize("edge, above, below", [
        (-2.0, WellKind.DOUBLE_WELL_GROUND_BELOW_SEPARATRIX,
         WellKind.DOUBLE_WELL_GROUND_ABOVE_SEPARATRIX),
        (-3.0, WellKind.DOUBLE_WELL_GROUND_ABOVE_SEPARATRIX, WellKind.SINGLE_WELL)])
    def test_well_kind_one_ulp_from_a_boundary(self, edge, above, below):
        assert well_kind(edge) is WellKind.BOUNDARY
        assert well_kind(float(np.nextafter(edge, 0.0))) is above
        assert well_kind(float(np.nextafter(edge, -np.inf))) is below

    def test_boundary_curvatures(self):
        assert classify(partner(-3.0)).curvature_origin == 0.0
        assert classify(partner(-2.0)).curvature_origin == -4.0

    def test_single_well(self):
        result = classify(partner(-3.5))
        assert result.kind is WellKind.SINGLE_WELL
        assert result.curvature_origin > 0.0
        assert result.density_maxima_count == 1

    def test_rejects_invalid_epsilon(self):
        with pytest.raises(InvalidEpsilon):
            classify(partner(-0.5))

    def test_threshold_sweep(self):
        # transitions only where an interval endpoint is crossed
        eps_values = np.arange(-3.3, -1.05, 0.01)
        kinds = [classify(partner(float(e))).kind for e in eps_values]
        for a, b, ka, kb in zip(eps_values, eps_values[1:], kinds, kinds[1:]):
            if ka is not kb:
                assert any(a < t <= b for t in (-3.0, -2.0)), (a, b)


def whole_grid_count(rho: np.ndarray) -> int:
    """The maxima count over a whole-grid density, as the package counted
    before it took the x >= 0 half: the reference for the half rule."""
    diffs = np.diff(rho)
    signs = np.sign(diffs)
    signs[np.abs(diffs) <= PLATEAU_TOL * np.max(np.abs(rho), initial=0.0)] = 0
    signs = signs[signs != 0]
    return int(np.sum((signs[:-1] > 0) & (signs[1:] < 0)))


def assert_half_rule(rho_half: np.ndarray, expected=None):
    """The half rule's count of the even density with half ``rho_half`` is
    the whole-grid rule's on its mirror, and ``expected`` unless None."""
    count = count_density_maxima(rho_half)
    assert count == whole_grid_count(mirror(rho_half, 0)), rho_half
    assert expected is None or count == expected


class TestDensityMaxima:
    def test_base_well_density_is_unimodal(self, default_grid):
        phi = base_ground_state(default_grid)
        assert_half_rule(phi[default_grid.center_index:] ** 2, 1)

    def test_synthetic_bimodal(self, default_grid):
        x = default_grid.x[default_grid.center_index:]
        rho = np.exp(-((x - 1.5) ** 2)) + np.exp(-((x + 1.5) ** 2))
        assert_half_rule(rho, 2)

    def test_plateau_not_double_counted(self, default_grid):
        # perfectly flat top: one maximum, not two
        rho = np.minimum(np.exp(-default_grid.x[default_grid.center_index:] ** 2), 0.5)
        assert_half_rule(rho, 1)

    @pytest.mark.parametrize("rho, maxima", [
        ([0.0], 0), ([1.0, 1.0], 0), ([0.0, 0.0, 0.0], 0), ([1.0, 0.5], 1),
        ([0.5, 1.0], 0), ([0.5, 1.0, 1.0], 0), ([1.0, 1.0, 0.5], 1),
        ([0.2, 1.0, 0.3, 0.9, 0.1], 4), ([1.0, 0.3, 0.9, 0.1], 3)])
    def test_short_halves(self, rho, maxima):
        # the centre is a maximum when the first step that is not flat falls
        assert_half_rule(np.array(rho), maxima)

    @pytest.mark.parametrize("scale", [1e-20, 1e-12, 1e-10, 1.0, 1e20])
    @pytest.mark.parametrize("eps, maxima", [(-1.5, 2), (-2.5, 1)])
    def test_count_does_not_depend_on_the_density_scale(self, eps, maxima, scale):
        assert_half_rule(scale * partner(eps)._psi0_half ** 2, maxima)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(0.0, 1.0),
                    min_size=1, max_size=40))
    def test_random_even_densities(self, rho):
        # ties and flat runs included: the mirrored steps are the half's
        # negated, so the flat mask and the count agree exactly
        assert_half_rule(np.array(rho))

    @settings(max_examples=60, deadline=None)
    @given(st.floats(-3.5, EPSILON_MAX, exclude_min=True), st.integers(100, 20000))
    def test_ground_densities_match_the_whole_grid_rule(self, eps, m):
        try:
            rho = Partner(eps, Grid(20.0, 2 * m + 1))._psi0_half ** 2
        except (GridTooNarrow, GridTooCoarse):
            reject()  # no state on this grid
        # the paper's verdict, but just above -2, where the central dip is
        # too shallow for the coarser grids to resolve
        assert_half_rule(rho, None if -2.0 < eps < -1.95 else 1 if eps <= -2.0 else 2)

    @pytest.mark.parametrize("n", [201, 4001, 16001, 256001, 1024001])
    @pytest.mark.parametrize("eps, maxima", [
        # at eps = -2 the centre is quartic-flat: rounding wiggles there are
        # within PLATEAU_TOL, so one maximum; so is the dip at -2 + 1e-12
        (-2.0, 1), (-2.0 - 1e-12, 1), (-2.0 + 1e-12, 1), (-3.0, 1)])
    def test_rounding_edge_cases_up_to_a_million_nodes(self, eps, maxima, n):
        assert_half_rule(Partner(eps, Grid(20.0, n))._psi0_half ** 2, maxima)


class TestBimodalityRelation:
    def test_degenerate_boundary_is_flat(self):
        lhs, rhs, _ = check_bimodality_relation(partner(-2.0))
        assert rhs == 0.0
        assert abs(lhs) < 1e-6

    def test_bimodal_regime(self):
        lhs, rhs, rel_err = check_bimodality_relation(partner(-1.10))
        assert rel_err < 1e-5
        assert lhs > 0.0  # central density minimum

    def test_central_peak_regime(self):
        lhs, rhs, rel_err = check_bimodality_relation(partner(-2.25))
        assert rel_err < 1e-5
        assert lhs < 0.0  # central density maximum

    @pytest.mark.parametrize("eps", np.linspace(-2.9, -1.1, 19).tolist())
    def test_sign_law(self, eps):
        if abs(eps + 2.0) <= 1e-3:
            return
        lhs, _, _ = check_bimodality_relation(partner(eps))
        # s - eps = eps + 2
        assert np.sign(lhs) == np.sign(eps + 2.0)

    @pytest.mark.parametrize("eps", np.linspace(-2.9, -1.1, 19).tolist())
    def test_maxima_count_law(self, eps):
        if abs(eps + 2.0) <= 1e-3:
            return
        expected = 2 if eps > -2.0 else 1
        assert classify(partner(eps)).density_maxima_count == expected


class TestFinerGridKeepsThePass:
    # the rho''(0) stencil keeps its nodes at most BIMODALITY_SPACING apart in
    # the units of the well, so its rounding, eps_mach / spacing^2, stops
    # growing as the grid is refined, and deep wells keep their truncation
    # error; each eps starts from the coarsest grid it passes on
    @pytest.mark.parametrize("eps, points", [(-1.5, 4001), (-1.9989, 4001), (-2.0011, 4001),
                                             (-2.002, 4001), (-2.5, 4001), (-30, 16001),
                                             (-300, 24001), (-1000, 64001)])
    def test_pass_holds_on_finer_grids(self, eps, points):
        assert cached_report(eps, n_points=points).passed
        for n in (16001, 24001, 64001, 256001):
            if n <= points:
                continue
            report = verify(Partner(eps, Grid(20.0, n)))
            assert report.passed, (n, [check for check in report.checks if not check.passed])
        assert report.bimodality_rel_err <= 1e-7
