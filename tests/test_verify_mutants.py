"""What ``verify`` catches: closed forms planted with small named defects.

Each mutant changes one closed form in ``transform`` before normalization,
and ``verify`` must fail on it with the checks named here, at each eps on
the default grid.  The clean partner must pass there too, so that a check
which fails everything cannot pass for a kill.  Defects that ``verify``
lets through are not listed here; CHANGES.md records them as its baseline
mutation score, and one joins this suite when a check kills it.
"""

import numpy as np
import pytest

from shallowdw import Grid, Partner, transform, wells

EPSILONS = (-1.5, -2.5, -2.95)
GRID = Grid(20.0, 4001)


def half_x(partner):
    return partner.grid.x[partner.grid.center_index:]


def seed_at_shifted_eps(monkeypatch, r):
    # u, u' and sech^2 at eps (1 + r); V's prefactors keep eps
    real = transform._seed_parts
    monkeypatch.setattr(transform, "_seed_parts", lambda eps, x: real(eps * (1.0 + r), x))


def ground_state_times_gaussian(monkeypatch, d):
    real = transform.Partner._ground_half.func
    monkeypatch.setattr(transform.Partner, "_ground_half", property(
        lambda self: real(self) * np.exp(-d * half_x(self) ** 2)))


MUTANTS = {
    "seed at eps (1 + 1e-5)": (seed_at_shifted_eps, 1e-5, {
        -1.5: ["psi0_residual", "psi1_residual", "bimodality_rel_err"],
        -2.5: ["psi1_residual", "bimodality_rel_err"],
        -2.95: ["psi0_residual", "psi1_residual", "bimodality_rel_err"]}),
    "psi0 half times exp(-1e-5 x^2)": (ground_state_times_gaussian, 1e-5, {
        eps: ["bimodality_rel_err"] for eps in EPSILONS}),
}


def failed_checks(eps):
    report = wells.verify(Partner(eps, GRID))
    return [check.name for check in report.checks if not check.passed]


@pytest.mark.parametrize("eps", EPSILONS)
def test_clean_partner_passes(eps):
    assert failed_checks(eps) == []


@pytest.mark.parametrize("eps", EPSILONS)
@pytest.mark.parametrize("name", MUTANTS)
def test_killed_mutant_fails_its_checks(name, eps, monkeypatch):
    plant, size, failing = MUTANTS[name]
    plant(monkeypatch, size)
    assert failed_checks(eps) == failing[eps]
