"""Column-wise table emission against the per-value row emitter it replaced.

The reference below formats one value at a time (`repr(float(v))` for
floats, `str` otherwise) from row tuples.  The CLI formats whole columns
from `.tolist()`; both must give the same bytes.
"""

import json

import numpy as np
import pytest

from shallowdw import cli, dynamics, oracle, wells
from shallowdw.cli import main
from shallowdw.grids import Grid
from shallowdw.transform import (
    Partner,
    curvature_at_origin,
    separatrix_energy,
)

X_MAX, POINTS = 20.0, 401


def ref_fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def ref_csv(header, rows, comments=(), footer=()) -> str:
    lines = [f"# {c}" for c in comments]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(ref_fmt(v) for v in row))
    lines.extend(f"# {c}" for c in footer)
    return "\n".join(lines) + "\n"


def ref_columns_json(header, rows) -> str:
    cols = {name: [] for name in header}
    for row in rows:
        for name, value in zip(header, row):
            cols[name].append(float(value) if isinstance(value, np.floating) else value)
    return json.dumps(cols) + "\n"


def reference(fmt, header, rows, comments=(), footer=()) -> bytes:
    rows = list(rows)
    if fmt == "json":
        text = ref_columns_json(header, rows)
    else:
        text = ref_csv(header, rows, comments, footer)
    return text.encode("utf-8")


def emitted(tmp_path, args, fmt) -> bytes:
    out = tmp_path / f"out.{fmt}"
    assert main([str(a) for a in args] + ["--format", fmt, "--out", str(out)]) == 0
    return out.read_bytes()


GRID_ARGS = ["--x-max", X_MAX, "--points", POINTS]


@pytest.fixture(params=[("csv", 7), ("csv", cli.CSV_BLOCK_ROWS), ("json", None)],
                ids=["csv-block7", "csv", "json"])
def fmt(request, monkeypatch):
    """Output format; CSV also with blocks that split the rows unevenly."""
    fmt, block_rows = request.param
    if block_rows is not None:
        monkeypatch.setattr(cli, "CSV_BLOCK_ROWS", block_rows)
    return fmt


class TestTableBytes:
    def test_potential(self, tmp_path, fmt):
        grid = Grid(X_MAX, POINTS)
        rows = zip(grid.x, Partner(-1.6, grid).potential)
        assert (emitted(tmp_path, ["potential", "--epsilon", -1.6, *GRID_ARGS], fmt)
                == reference(fmt, ("x", "V"), rows))

    @pytest.mark.parametrize("eps", [-1.37, -2.2])
    def test_states(self, tmp_path, fmt, eps):
        grid = Grid(X_MAX, POINTS)
        partner = Partner(eps, grid)
        psi0, psi1 = partner.psi0.samples, partner.psi1.samples
        rows = zip(grid.x, partner.potential, psi0, psi1, psi0**2)
        assert (emitted(tmp_path, ["states", "--epsilon", eps, *GRID_ARGS], fmt)
                == reference(fmt, ("x", "V", "psi0", "psi1", "rho0"), rows))

    def test_sweep_with_int_column_and_nan_row(self, tmp_path, monkeypatch, fmt):
        eps_values = np.linspace(-2.6, -1.2, 4)
        failing = float(eps_values[1])
        real = oracle.verify_spectrum

        def flaky(partner):
            if partner.epsilon == failing:
                raise oracle.ConvergenceFailure("forced")
            return real(partner)

        monkeypatch.setattr(oracle, "verify_spectrum", flaky)
        quantities = ["separatrix", "curvature", "gap", "maxima_count",
                      "e0_error", "e1_error"]
        grid = Grid(X_MAX, POINTS)
        rows = []
        for eps in map(float, eps_values):
            try:
                report = oracle.verify_spectrum(Partner(eps, grid))
                rows.append((eps, separatrix_energy(eps), curvature_at_origin(eps),
                             abs(1.0 + eps), wells.classify(Partner(eps, grid)).density_maxima_count,
                             report.e0_error, report.e1_error))
            except oracle.ConvergenceFailure:
                rows.append((eps,) + (float("nan"),) * len(quantities))
        assert isinstance(rows[0][4], int)  # maxima_count stays an int

        got = emitted(tmp_path, ["sweep", "--eps-start", -2.6, "--eps-end", -1.2,
                                 "--steps", 4, "--quantities", ",".join(quantities),
                                 *GRID_ARGS], fmt)
        assert got == reference(fmt, ("epsilon", *quantities), rows)
        assert b"nan" in got or b"NaN" in got

    @pytest.mark.parametrize("eps", [-1.4, -2.5])
    def test_evolve_comments_and_footer(self, tmp_path, fmt, eps):
        grid = Grid(X_MAX, POINTS)
        series = dynamics.evolve_series(Partner(eps, grid), 10.0, 11)
        comments = []
        if eps == -2.5:
            comments.append("warning: ground level at or above the central "
                            "barrier; no low-lying two-level regime")
        footer = [f"analytic_period={ref_fmt(series.analytic_period)}"]
        rows = zip(series.times, series.left_probability)
        got = emitted(tmp_path, ["evolve", "--epsilon", eps, "--t-max", 10.0,
                                 "--frames", 11, *GRID_ARGS], fmt)
        assert got == reference(fmt, ("t", "P_left"), rows, comments, footer)


def test_stdout_matches_file(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "CSV_BLOCK_ROWS", 7)
    args = ["states", "--epsilon", "-1.5", "--x-max", "20", "--points", "101"]
    assert main(args) == 0
    out = tmp_path / "states.csv"
    assert main(args + ["--out", str(out)]) == 0
    assert capsys.readouterr().out.encode("utf-8") == out.read_bytes()
