"""`verify` and `classify` output against the CLI code that once built it.

The reference functions below are the verdict, payload and text that
`cmd_verify` and `cmd_classify` assembled inline, by hand, from the library
results.  The CLI must still print the same stdout bytes and return the same
exit codes.
"""

import json

import numpy as np
import pytest

from shallowdw import oracle, wells
from shallowdw.cli import main
from shallowdw.grids import Grid, first_derivative
from shallowdw.transform import Partner, separatrix_energy

REF_TOLERANCES = {
    "e0_error": 1e-4,
    "e1_error": 1e-4,
    "overlap_min": 0.99999,
    "residual_max": 5e-5,
    "intertwining_max": 1e-4,
    "bimodality_rel_err": 1e-5,
}


def ref_intertwining_residual(eps, grid):
    """The larger relative residual of V + V0 = 2 w^2 + 2 eps and V - V0 = -2 w'."""
    partner = Partner(eps, grid)
    v, v0, w = partner.potential, partner.base_well, partner.w
    sl = slice(4, -4)
    algebraic = v + v0 - 2.0 * w * w - 2.0 * eps
    derivative = v - v0 + 2.0 * first_derivative(w, grid.h)
    return max(float(np.max(np.abs(algebraic[sl]))) / float(np.max(np.abs((v + v0)[sl]))),
               float(np.max(np.abs(derivative[sl]))) / float(np.max(np.abs((v - v0)[sl]))))


def ref_overlap(y, psi, h):
    """|<y, psi>| with y scaled to unit trapezoid norm, by numpy's sums."""
    y = y / np.sqrt(np.trapezoid(y**2, dx=h))
    return abs(float(np.trapezoid(y * psi, dx=h)))


def ref_verify(eps, grid):
    """(stdout, exit code) of `verify` as the CLI computed them inline."""
    partner = Partner(eps, grid)
    levels = wells.bound_levels(partner)
    psi0, psi1 = partner.psi0, partner.psi1
    psi0_residual = oracle.eigen_residual(levels.H, psi0, eps)
    psi1_residual = oracle.eigen_residual(levels.H, psi1, -1.0)
    psi0_overlap = ref_overlap(levels.y0, psi0, grid.h)
    psi1_overlap = ref_overlap(levels.y1, psi1, grid.h)
    intertwining = ref_intertwining_residual(eps, grid)
    lhs, rhs, rel_err = wells.check_bimodality_relation(Partner(eps, grid))

    tol = REF_TOLERANCES
    checks = [
        levels.e0_error < tol["e0_error"],
        levels.e1_error < tol["e1_error"],
        psi0_overlap > tol["overlap_min"],
        psi1_overlap > tol["overlap_min"],
        psi0_residual < tol["residual_max"],
        psi1_residual < tol["residual_max"],
        intertwining < tol["intertwining_max"],
    ]
    if abs(separatrix_energy(eps) - eps) > 1e-3:
        checks.append(rel_err < tol["bimodality_rel_err"])
    passed = all(checks)

    payload = {
        "epsilon": eps,
        "e0_analytic": eps,
        "e1_analytic": -1.0,
        "e0_numeric": levels.e0_numeric,
        "e1_numeric": levels.e1_numeric,
        "e0_error": levels.e0_error,
        "e1_error": levels.e1_error,
        "psi0_residual": psi0_residual,
        "psi1_residual": psi1_residual,
        "psi0_overlap": psi0_overlap,
        "psi1_overlap": psi1_overlap,
        "gap_numeric": levels.e1_numeric - levels.e0_numeric,
        "intertwining_residual": intertwining,
        "bimodality_lhs": lhs,
        "bimodality_rhs": rhs,
        "bimodality_rel_err": rel_err,
        "passed": passed,
    }
    return json.dumps(payload, indent=2) + "\n", 0 if passed else 1


def ref_classify(eps, grid, fmt):
    result = wells.classify(Partner(eps, grid))
    if fmt == "json":
        payload = {
            "epsilon": result.epsilon,
            "kind": result.kind.value,
            "separatrix": result.separatrix,
            "curvature_origin": result.curvature_origin,
            "density_maxima_count": result.density_maxima_count,
        }
        return json.dumps(payload) + "\n"
    kind = result.kind
    if kind is wells.WellKind.DOUBLE_WELL_GROUND_BELOW_SEPARATRIX:
        verdict = "double well; ground BELOW separatrix"
    elif kind is wells.WellKind.DOUBLE_WELL_GROUND_ABOVE_SEPARATRIX:
        verdict = "double well; ground ABOVE separatrix"
    elif kind is wells.WellKind.BOUNDARY:
        verdict = "boundary case"
    else:
        verdict = "not a double well"
    return (
        f"{verdict}; s={result.separatrix:.6g}; "
        f"curvature={result.curvature_origin:.6g}; "
        f"maxima={result.density_maxima_count}\n"
    )


# -2.0: bimodality check skipped (ground level at the barrier top);
# -50: the default grid under-resolves the well, and psi0_residual,
# psi1_residual and bimodality_rel_err fail
@pytest.mark.parametrize("eps, rc", [(-1.05, 0), (-1.5, 0), (-2.0, 0),
                                     (-2.6, 0), (-3.5, 0), (-50.0, 1)])
def test_verify_stdout_and_exit_code(eps, rc, capsys):
    expected_out, expected_rc = ref_verify(eps, Grid.default())
    assert expected_rc == rc
    assert main(["verify", "--epsilon", str(eps)]) == rc
    assert capsys.readouterr().out.encode() == expected_out.encode()


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("eps", [-1.5, -2.0, -2.25, -3.0, -3.5])
def test_classify_stdout(eps, fmt, capsys):
    expected = ref_classify(eps, Grid.default(), fmt)
    assert main(["classify", "--epsilon", str(eps), "--format", fmt]) == 0
    assert capsys.readouterr().out.encode() == expected.encode()
