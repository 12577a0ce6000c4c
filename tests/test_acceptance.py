"""Acceptance suite: one check per release criterion, one PASS/FAIL line each.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
verdict lines.
"""

import json

import numpy as np

from shallowdw import (
    Grid,
    Partner,
    TridiagonalHamiltonian,
    analytic_period,
    check_bimodality_relation,
    classify,
    curvature_at_origin,
    evolve_series,
    potential,
    potential_log_form,
    separatrix_energy,
)
from shallowdw.cli import main as cli_main

from conftest import (
    apply_a_dagger,
    base_ground_state,
    cached_report,
    check_intertwining,
    half,
    lc_state,
    left_well_probability,
    lowest_eigenpairs,
    norm_squared,
)
from test_dynamics import fit_period

SPECTRUM_EPS = [-1.05, -1.10, -1.25, -1.5, -1.75, -2.0, -2.25, -2.5, -2.75, -2.95]


def record(number: int, description: str, ok: bool) -> None:
    print(f"criterion {number:2d} [{'PASS' if ok else 'FAIL'}]: {description}")
    assert ok, f"criterion {number} failed: {description}"


def test_criterion_01_spectrum_reproduction():
    worst_e0 = worst_e1 = 0.0
    for eps in SPECTRUM_EPS:
        report = cached_report(eps)  # raises on a bound-state count != 2
        worst_e0 = max(worst_e0, report.e0_error)
        worst_e1 = max(worst_e1, report.e1_error)
    ok = worst_e0 < 1e-4 and worst_e1 < 1e-4
    record(1, f"spectrum errors on default grid (worst |dE0|={worst_e0:.2e}, "
              f"|dE1|={worst_e1:.2e} < 1e-4)", ok)


def test_criterion_02_convergence_order():
    ok = True
    for eps in (-1.05, -1.75, -2.95):
        coarse = cached_report(eps)
        fine = cached_report(eps, n_points=8001)
        for attr in ("e0_error", "e1_error"):
            ratio = getattr(coarse, attr) / getattr(fine, attr)
            ok = ok and 13.6 <= ratio <= 18.4
    # errors of 6e-11 to 5e-10 at n = 4001, far above the ~1e-14 rounding floor
    record(2, "halving h cuts both eigenvalue errors by ~16x (fourth order, Numerov)", ok)


def test_criterion_03_closed_form_identities():
    ok = True
    h = 1e-4
    stencil_x = np.array([-2 * h, -h, 0.0, h, 2 * h])
    for eps in np.linspace(-3.0 + 1e-3, -1.01, 200):
        v = potential(eps, stencil_x)
        ok = ok and v[2] == separatrix_energy(eps)
        d2 = (-v[0] + 16 * v[1] - 30 * v[2] + 16 * v[3] - v[4]) / (12 * h * h)
        exact = curvature_at_origin(eps)
        ok = ok and abs(d2 - exact) <= 1e-5 * abs(exact)
    record(3, "V(0)=2eps+2 exactly and 5-point V''(0) matches 4(3+4eps+eps^2) "
              "to 1e-5 over a 200-point sweep", ok)


def test_criterion_04_two_formula_equivalence(default_grid):
    rng = np.random.default_rng(2024)
    ok = True
    for eps in rng.uniform(-6.0, -1.01, 10):
        diff = np.max(np.abs(potential(eps, default_grid.x)
                             - potential_log_form(eps, default_grid.x)))
        ok = ok and diff < 1e-9
    record(4, "explicit potential equals superpotential form within 1e-9 "
              "at every node for 10 random eps", ok)


def test_criterion_05_annihilation_and_intertwining(default_grid):
    ok = True
    for eps in (-1.10, -1.5, -2.25):
        partner = Partner(eps, default_grid)
        f = partner.psi0  # proportional to 1/u
        out = apply_a_dagger(partner, f)
        ok = ok and np.max(np.abs(out[2:-2])) < 1e-8 * np.max(np.abs(f))
    partner = Partner(-1.5, default_grid)
    # eta phi0 = -phi0, so both sides equal -(unnormalized psi1)
    waves = [np.exp(-default_grid.x**2), base_ground_state(default_grid)]
    rng = np.random.default_rng(11)
    for _ in range(10):
        center, width = rng.uniform(-3.0, 3.0), rng.uniform(0.5, 2.0)
        waves.append(np.exp(-((default_grid.x - center) / width) ** 2))
    ok = ok and all(check_intertwining(partner, f) < 1e-4 for f in waves)
    record(5, "A+(1/u) residual < 1e-8 and (Xi A - A eta) f residual < 1e-4 "
              "on a Gaussian, the base ground state and 10 Gaussian bumps", ok)


def test_criterion_06_classification_diagram(default_grid):
    eps_sweep = np.arange(-3.2, -1.0015, 1e-3)
    partners = [Partner(float(e), default_grid) for e in eps_sweep]
    results = [classify(p) for p in partners]

    ok = True
    for a, b, ra, rb in zip(eps_sweep, eps_sweep[1:], results, results[1:]):
        if ra.kind is not rb.kind:
            ok = ok and any(a < t <= b for t in (-3.0, -2.0, -1.0))
        if ra.density_maxima_count != rb.density_maxima_count:
            ok = ok and a < -2.0 <= b

    for eps, partner, res in zip(eps_sweep, partners, results):
        if -3.0 < eps < -1.0 and abs(eps + 2.0) > 1e-3:
            ok = ok and res.density_maxima_count == (2 if eps > -2.0 else 1)
            lhs, _, _ = check_bimodality_relation(partner)
            ok = ok and np.sign(lhs) == np.sign(eps + 2.0)
    record(6, "kind transitions only at -3/-2/-1, maxima flip at -2, "
              "sign(rho''(0)) = sign(s-eps) on a 1e-3 sweep", ok)


def test_criterion_07_figure_regimes(default_grid):
    below = classify(Partner(-1.10, default_grid))
    above = classify(Partner(-2.25, default_grid))
    ok = (below.separatrix > -1.10 and below.density_maxima_count == 2
          and below.curvature_origin < 0.0
          and above.separatrix < -2.25 and above.density_maxima_count == 1
          and above.curvature_origin < 0.0)
    record(7, "eps=-1.10: double well, ground below barrier, bimodal; "
              "eps=-2.25: ground above barrier, unimodal", ok)


def test_criterion_08_dynamics(default_grid):
    eps = -1.05
    period = analytic_period(eps)
    series = evolve_series(Partner(eps, default_grid), 3 * period, 601)
    fitted = fit_period(series.times, series.left_probability)
    ok = abs(fitted - 2 * np.pi / 0.05) / (2 * np.pi / 0.05) < 1e-3

    rng = np.random.default_rng(5)
    for t in rng.uniform(0.0, 3 * period, 25):
        psi = lc_state(eps, default_grid, float(t))
        ok = ok and abs(norm_squared(psi, default_grid) - 1.0) < 1e-10
        mirror = left_well_probability(
            lc_state(eps, default_grid, float(t) + period / 2), default_grid)
        ok = ok and abs(left_well_probability(psi, default_grid) + mirror - 1.0) < 1e-9
    record(8, "fitted period = 2pi/0.05 within 0.1%, norm conserved to 1e-10, "
              "P(t)+P(t+T/2)=1 within 1e-9", ok)


def test_criterion_09_oracle_self_test(default_grid):
    ho_grid = Grid(15.0, 4001)
    H = TridiagonalHamiltonian(ho_grid, half(ho_grid.x, ho_grid) ** 2)
    energies = [e for e, _ in lowest_eigenpairs(H, 3)]
    ok = all(abs(e - (2 * n + 1)) < 1e-4 for n, e in enumerate(energies))

    x = half(default_grid.x, default_grid)
    base = TridiagonalHamiltonian(default_grid, -2.0 / np.cosh(x) ** 2)
    (e0, _), = lowest_eigenpairs(base, 1)
    ok = ok and abs(e0 + 1.0) < 1e-5
    record(9, "harmonic spectrum {1,3,5} within 1e-4; sech^2 well E0=-1 "
              "within 1e-5", ok)


def test_criterion_10_cli_contract(tmp_path):
    ok = True

    # determinism: byte-identical reruns
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    ok = ok and cli_main(["potential", "--epsilon", "-1.10", "--out", str(a)]) == 0
    ok = ok and cli_main(["potential", "--epsilon", "-1.10", "--out", str(b)]) == 0
    ok = ok and a.read_bytes() == b.read_bytes()

    # lossless parse-back of every emitted CSV value
    grid = Grid.default()
    lines = [l for l in a.read_text().splitlines() if not l.startswith("#")]
    values = np.array([[float(v) for v in l.split(",")] for l in lines[1:]])
    ok = ok and np.array_equal(values[:, 0], grid.x)
    ok = ok and np.array_equal(values[:, 1], potential(-1.10, grid.x))

    ev = tmp_path / "evolve.csv"
    ok = ok and cli_main(["evolve", "--epsilon", "-1.5", "--t-max", "10",
                          "--frames", "21", "--out", str(ev)]) == 0
    rows = [l for l in ev.read_text().splitlines() if not l.startswith("#")]
    reparsed = [[float(v) for v in l.split(",")] for l in rows[1:]]
    series = evolve_series(Partner(-1.5, grid), 10.0, 21)
    ok = ok and np.array_equal(np.array(reparsed)[:, 1], series.left_probability)

    # exit-code table
    verify_out = tmp_path / "verify.json"
    ok = ok and cli_main(["verify", "--epsilon", "-1.5",
                          "--out", str(verify_out)]) == 0
    ok = ok and json.loads(verify_out.read_text())["passed"] is True
    ok = ok and cli_main(["potential", "--epsilon", "-0.5"]) == 2
    ok = ok and cli_main(["potential", "--epsilon", "-1.5", "--points", "10"]) == 2
    ok = ok and cli_main(["states", "--epsilon", "-1.05", "--x-max", "5",
                          "--points", "1001"]) == 3
    record(10, "byte-identical reruns, lossless parse-back, exit-code table "
               "{0,1,2,3,4} honored", ok)
