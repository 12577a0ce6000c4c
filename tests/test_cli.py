"""CLI contract: schemas, determinism, lossless parse-back, exit codes."""

import contextlib
import io
import json
import os
import platform
import re
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import shallowdw
from shallowdw import cli, oracle, transform, wells
from shallowdw.cli import main


COMMANDS = ["potential", "states", "verify", "classify", "evolve", "sweep"]


def run(args):
    return main([str(a) for a in args])


def read_csv(path):
    """Parse an emitted CSV back into (header, float columns, comments)."""
    header, rows, comments = None, [], []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            comments.append(line)
        elif header is None:
            header = line.split(",")
        else:
            rows.append([float(v) for v in line.split(",")])
    return header, np.array(rows), comments


def svg_points(xs, ys):
    """The polyline's points attribute, formatted one point at a time."""
    width, height, margin = 800, 600, 40
    x0, x1 = float(np.min(xs)), float(np.max(xs))
    y0, y1 = float(np.min(ys)), float(np.max(ys))
    xspan, yspan = (x1 - x0) or 1.0, (y1 - y0) or 1.0
    pts = []
    for x, y in zip(xs, ys):
        px = margin + (x - x0) / xspan * (width - 2 * margin)
        py = height - margin - (y - y0) / yspan * (height - 2 * margin)
        pts.append(f"{px:.2f},{py:.2f}")
    return " ".join(pts)


def assert_svg_matches_csv(svg, csv):
    """The SVG polyline is the CSV's two columns, point for point and byte for byte."""
    _, rows, _ = read_csv(csv)
    text = svg.read_text(encoding="utf-8")
    assert text.startswith("<svg") and "polyline" in text
    (points,) = re.findall(r' points="([^"]*)"', text)
    assert points == svg_points(rows[:, 0], rows[:, 1])


class TestPotentialCommand:
    def test_csv_schema_and_center_value(self, tmp_path):
        out = tmp_path / "pot.csv"
        assert run(["potential", "--epsilon", -1.10, "--out", out]) == 0
        header, rows, _ = read_csv(out)
        assert header == ["x", "V"]
        assert rows.shape == (4001, 2)
        center = rows[2000]
        assert center[0] == 0.0
        assert center[1] == 2.0 * (1.0 + -1.10)

    def test_second_figure_regime(self, tmp_path):
        out = tmp_path / "pot.csv"
        assert run(["potential", "--epsilon", -2.25, "--out", out]) == 0
        _, rows, _ = read_csv(out)
        assert rows[2000, 1] == -2.5

    def test_invalid_epsilon_exits_2_without_file(self, tmp_path, capsys):
        out = tmp_path / "nope.csv"
        assert run(["potential", "--epsilon", -0.5, "--out", out]) == 2
        assert not out.exists()
        assert "-1" in capsys.readouterr().err

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(["potential", "--epsilon", -1.5, "--out", a])
        run(["potential", "--epsilon", -1.5, "--out", b])
        assert a.read_bytes() == b.read_bytes()

    def test_lossless_parse_back(self, tmp_path):
        from shallowdw import Grid, potential

        out = tmp_path / "pot.csv"
        run(["potential", "--epsilon", -1.7, "--out", out])
        _, rows, _ = read_csv(out)
        grid = Grid.default()
        assert np.array_equal(rows[:, 0], grid.x)
        assert np.array_equal(rows[:, 1], potential(-1.7, grid.x))

    def test_svg_emission(self, tmp_path):
        out, svg = tmp_path / "pot.csv", tmp_path / "pot.svg"
        assert run(["potential", "--epsilon", -1.5, "--out", out,
                    "--svg", svg]) == 0
        assert_svg_matches_csv(svg, out)

    def test_json_format(self, tmp_path):
        out = tmp_path / "pot.json"
        run(["potential", "--epsilon", -1.5, "--out", out, "--format", "json"])
        payload = json.loads(out.read_text())
        assert set(payload) == {"x", "V"}
        assert payload["V"][2000] == -1.0


class TestStatesCommand:
    def test_schema_parity_and_norm(self, tmp_path):
        out = tmp_path / "states.csv"
        assert run(["states", "--epsilon", -1.10, "--out", out]) == 0
        header, rows, _ = read_csv(out)
        assert header == ["x", "V", "psi0", "psi1", "rho0"]
        psi0, psi1 = rows[:, 2], rows[:, 3]
        assert np.max(np.abs(psi0 - psi0[::-1])) < 1e-12
        assert np.max(np.abs(psi1 + psi1[::-1])) < 1e-12
        h = rows[1, 0] - rows[0, 0]
        assert np.trapezoid(psi0**2, dx=h) == pytest.approx(1.0, abs=1e-10)

    def test_unimodal_density_peaks_at_center(self, tmp_path):
        out = tmp_path / "states.csv"
        run(["states", "--epsilon", -2.25, "--out", out])
        _, rows, _ = read_csv(out)
        assert np.argmax(rows[:, 4]) == 2000

    def test_narrow_grid_exits_3(self, tmp_path):
        out = tmp_path / "states.csv"
        assert run(["states", "--epsilon", -1.05, "--x-max", 5,
                    "--points", 1001, "--out", out]) == 3

    def test_state_zero_on_every_node_exits_3(self, capsys):
        # nodes at 0, +-1000 and +-2000: psi1 is 0 at the centre and
        # underflows to 0 on the others; psi0, read first, is too coarse
        assert run(["states", "--epsilon", -1.5, "--x-max", 2000,
                    "--points", 5]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: Grid(x_max=2000.0, n_points=5) is too coarse for the ground "
            "state: h * max(1, sqrt(-eps)) = 1224.744871391589 > 0.5; use more points "
            "or a smaller x_max\n")


class TestVerifyCommand:
    def test_pass_and_report_fields(self, tmp_path):
        out = tmp_path / "verify.json"
        assert run(["verify", "--epsilon", -1.5, "--out", out]) == 0
        payload = json.loads(out.read_text())
        assert payload["passed"] is True
        assert payload["e0_error"] < 1e-4
        assert payload["e1_error"] < 1e-4
        assert payload["intertwining_residual"] < 1e-4

    @pytest.mark.parametrize("eps, points", [(-2.25, 4001), (-2.9, 4001), (-2.9, 1999),
                                             (-2.9, 4003), (-2.95, 16001),
                                             (-50, 64001), (-200, 64001)])
    def test_above_barrier_regime_passes(self, tmp_path, eps, points):
        out = tmp_path / "verify.json"
        assert run(["verify", "--epsilon", eps, "--points", points, "--out", out]) == 0

    def test_near_degenerate_gap(self, tmp_path):
        out = tmp_path / "verify.json"
        assert run(["verify", "--epsilon", -1.0001, "--x-max", 30,
                    "--points", 6001, "--out", out]) == 0
        payload = json.loads(out.read_text())
        assert payload["gap_numeric"] == pytest.approx(1e-4, abs=1e-5)

    def test_failed_check_named_on_stderr(self, tmp_path, capsys):
        out = tmp_path / "verify.json"
        assert run(["verify", "--epsilon", -50, "--out", out]) == 1
        payload = json.loads(out.read_text())
        assert capsys.readouterr().err == "".join(
            f"check failed: {name}={payload[name]!r}, tolerance {tolerance}\n"
            for name, tolerance in (("psi0_residual", "5e-05"), ("psi1_residual", "5e-05"),
                                    ("bimodality_rel_err", "1e-05")))

    def test_failed_checks_print_plain_floats(self, capsys):
        # a grid of 101 nodes fails all six checks it runs; no value prints
        # as a numpy scalar
        assert run(["verify", "--epsilon", -1.5, "--points", 101]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 6 and not any("np." in line for line in err)
        assert err[0] == "check failed: e0_error=0.00019605289075785848, tolerance 0.0001"

    def test_planted_base_well_defect_fails_intertwining(self, tmp_path, monkeypatch,
                                                         capsys):
        # only the intertwining check reads V0: a 0.1% error in it fails that alone
        base_well = transform.Partner.base_well.func  # the full-grid field
        monkeypatch.setattr(transform.Partner, "base_well", property(
            lambda self: base_well(self) * (1.0 + 1e-3)))
        out = tmp_path / "verify.json"
        assert run(["verify", "--epsilon", -1.5, "--out", out]) == 1
        payload = json.loads(out.read_text())
        assert capsys.readouterr().err == (
            f"check failed: intertwining_residual="
            f"{payload['intertwining_residual']!r}, tolerance 0.0001\n")

    def test_intertwining_holds_where_the_grid_resolves_no_state(self, capsys):
        # eps = -50 fails on truncation of the states, not on the identities
        assert run(["verify", "--epsilon", -50]) == 1
        failed = [line.split("=")[0] for line in capsys.readouterr().err.splitlines()]
        assert failed and "check failed: intertwining_residual" not in failed

    def test_pass_writes_nothing_to_stderr(self, capsys):
        assert run(["verify", "--epsilon", -1.5]) == 0
        assert capsys.readouterr().err == ""

    def test_traced_layers_called_as_module_attributes(self, monkeypatch):
        # the benchmark's span tracer patches these names; each must be
        # looked up there on every verify run
        calls = Counter()

        def counting(name, real):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return wrapper

        for module, name in [(wells, "bound_levels"), (wells, "check_bimodality_relation"),
                             (oracle, "eigen_residual"), (oracle, "sturm_count")]:
            monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        assert run(["verify", "--epsilon", -1.5]) == 0
        # bound_counts and min V certify both levels: no Sturm count is made
        assert calls == {"bound_levels": 1, "check_bimodality_relation": 1,
                         "eigen_residual": 2}

    def test_solver_failure_exits_4(self, tmp_path, monkeypatch):
        monkeypatch.setattr(oracle, "INVERSE_ITERATION_MAX_STEPS", 0)
        out = tmp_path / "verify.json"
        assert run(["verify", "--epsilon", -1.5, "--out", out]) == 4

    def test_grid_too_small_for_two_bound_states_exits_3(self, tmp_path, capsys):
        # the closed-form states reject the spacing before the solver runs
        out = tmp_path / "verify.json"
        assert run(["verify", "--epsilon", -1.5, "--points", 3, "--out", out]) == 3
        assert not out.exists()
        assert capsys.readouterr().err == (
            "error: Grid(x_max=20.0, n_points=3) is too coarse for the ground "
            "state: h * max(1, sqrt(-eps)) = 24.49489742783178 > 0.5; use more points or a "
            "smaller x_max\n")

    def test_bound_state_count_mismatch_exits_3(self, monkeypatch, capsys):
        # every eps < -1 has two bound states: a short count is the grid's
        monkeypatch.setattr(oracle.TridiagonalHamiltonian, "bound_counts", (1, 0))
        assert run(["verify", "--epsilon", -1.5]) == 3
        assert capsys.readouterr().err == (
            "error: expected 2 bound states for eps=-1.5, found 1\n")

    def test_bound_states_counted_below_the_double_well_range(self, monkeypatch, capsys):
        # eps = -5 is a single well, with the same two bound states
        monkeypatch.setattr(oracle.TridiagonalHamiltonian, "bound_counts", (1, 0))
        code, out, err = run_captured(["verify", "--epsilon", "-5"], capsys)
        assert (code, out) == (3, "")
        assert err == "error: expected 2 bound states for eps=-5.0, found 1\n"


class TestClassifyCommand:
    def test_below_separatrix_line(self, capsys):
        assert run(["classify", "--epsilon", -1.10]) == 0
        line = capsys.readouterr().out
        assert "double well; ground BELOW separatrix" in line
        assert "s=-0.2" in line and "maxima=2" in line

    def test_above_separatrix_line(self, capsys):
        assert run(["classify", "--epsilon", -2.25]) == 0
        line = capsys.readouterr().out
        assert "double well; ground ABOVE separatrix" in line
        assert "s=-2.5" in line and "maxima=1" in line

    def test_single_well_line(self, capsys):
        assert run(["classify", "--epsilon", -3.5]) == 0
        assert "not a double well" in capsys.readouterr().out

    def test_json_option(self, tmp_path):
        out = tmp_path / "classify.json"
        run(["classify", "--epsilon", -2.25, "--format", "json", "--out", out])
        payload = json.loads(out.read_text())
        assert payload["density_maxima_count"] == 1
        assert payload["separatrix"] == -2.5

    def test_invalid_epsilon(self):
        assert run(["classify", "--epsilon", 0.3]) == 2


class TestEvolveCommand:
    def test_two_periods_cross_half_four_times(self, tmp_path):
        from shallowdw import analytic_period

        out = tmp_path / "evolve.csv"
        t_max = 2 * analytic_period(-1.05)
        assert run(["evolve", "--epsilon", -1.05, "--t-max", t_max,
                    "--frames", 401, "--out", out]) == 0
        header, rows, comments = read_csv(out)
        assert header == ["t", "P_left"]
        assert any(c.startswith("# analytic_period=") for c in comments)
        y = rows[:, 1] - 0.5
        crossings = np.sum(y[:-1] * y[1:] < 0)
        assert crossings == 4

    def test_two_frames_mirror(self, tmp_path):
        from shallowdw import analytic_period

        out = tmp_path / "evolve.csv"
        run(["evolve", "--epsilon", -1.5, "--t-max",
             analytic_period(-1.5) / 2, "--frames", 2, "--out", out])
        _, rows, _ = read_csv(out)
        assert rows[0, 1] + rows[1, 1] == pytest.approx(1.0, abs=1e-9)

    def test_state_zero_on_every_node_exits_3(self, capsys):
        assert run(["evolve", "--epsilon", -1.5, "--x-max", 2000,
                    "--points", 5]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("error: Grid(x_max=2000.0, n_points=5) is "
                                       "too coarse for the ground state")

    def test_svg_emission(self, tmp_path):
        out, svg = tmp_path / "p.csv", tmp_path / "p.svg"
        assert run(["evolve", "--epsilon", -1.5, "--svg", svg, "--out", out]) == 0
        assert_svg_matches_csv(svg, out)

    def test_same_bytes_on_every_grid_that_holds_the_states(self, tmp_path):
        outs = [tmp_path / f"evolve_{n}.csv" for n in (4001, 16001)]
        for n, out in zip((4001, 16001), outs):
            assert run(["evolve", "--epsilon", -1.5, "--frames", 2001, "--points", n,
                        "--out", out]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    # the warning starts exactly at eps = -2, where the ground level meets
    # the barrier top 2 eps + 2; one ulp above it there is none
    @pytest.mark.parametrize("eps, warned", [
        (-1.9999999999999998, False), (-2.0, True), (-2.0000000000000004, True),
        (-2.5, True), (-3.0, True), (-3.5, True)])
    def test_above_barrier_warning_comment(self, tmp_path, eps, warned):
        out = tmp_path / "evolve.csv"
        assert run(["evolve", f"--epsilon={eps!r}", "--t-max", 10,
                    "--frames", 11, "--out", out]) == 0
        _, rows, comments = read_csv(out)
        assert rows.shape == (11, 2)
        assert sum("warning" in c for c in comments) == warned

    @pytest.mark.parametrize("eps", [-1.5, -2.0, -2.5])
    def test_json_carries_the_warning_and_the_period(self, tmp_path, eps):
        # what the CSV writes as comments, JSON writes under its own keys
        csv_out, json_out = tmp_path / "evolve.csv", tmp_path / "evolve.json"
        args = ["evolve", "--epsilon", eps, "--t-max", 10, "--frames", 11]
        assert run(args + ["--out", csv_out]) == 0
        assert run(args + ["--out", json_out, "--format", "json"]) == 0
        _, rows, comments = read_csv(csv_out)
        payload = json.loads(json_out.read_text())
        assert list(payload) == ["t", "P_left", "warning", "analytic_period"]
        assert payload["P_left"] == rows[:, 1].tolist()
        assert comments[-1] == f"# analytic_period={payload['analytic_period']!r}"
        assert payload["analytic_period"] > 0.0
        warnings = [c.removeprefix("# warning: ") for c in comments if "warning" in c]
        assert warnings == ([payload["warning"]] if payload["warning"] else [])
        assert (payload["warning"] is None) is (eps == -1.5)


class TestSweepCommand:
    def test_curvature_negative_on_double_well_interval(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run(["sweep", "--eps-start", -2.9, "--eps-end", -1.1,
                    "--steps", 19, "--quantities", "curvature",
                    "--out", out]) == 0
        header, rows, _ = read_csv(out)
        assert header == ["epsilon", "curvature"]
        assert np.all(rows[:, 1] < 0.0)

    def test_maxima_transition_at_minus_two(self, tmp_path):
        out = tmp_path / "sweep.csv"
        run(["sweep", "--eps-start", -2.2, "--eps-end", -1.8, "--steps", 9,
             "--quantities", "maxima_count", "--out", out])
        _, rows, _ = read_csv(out)
        eps, count = rows[:, 0], rows[:, 1]
        assert np.all(count[eps < -2.0] == 1)
        assert np.all(count[eps > -2.0] == 2)

    def test_gap_is_analytic(self, tmp_path):
        out = tmp_path / "sweep.csv"
        run(["sweep", "--eps-start", -2.5, "--eps-end", -1.5, "--steps", 5,
             "--quantities", "gap", "--out", out])
        _, rows, _ = read_csv(out)
        assert np.array_equal(rows[:, 1], np.abs(1.0 + rows[:, 0]))

    def test_oracle_error_columns(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run(["sweep", "--eps-start", -2.0, "--eps-end", -1.5,
                    "--steps", 2, "--quantities", "e0_error,e1_error",
                    "--out", out]) == 0
        header, rows, _ = read_csv(out)
        assert header == ["epsilon", "e0_error", "e1_error"]
        assert np.all(rows[:, 1:] < 1e-4)

    def test_rows_solve_for_energies_alone(self, tmp_path, monkeypatch):
        # a row reads e0_error and e1_error only: one solve per row and no
        # closed-form residual
        calls = Counter()

        def counting(name, real):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return wrapper

        for module, name in [(oracle, "eigen_residual"), (wells, "bound_levels")]:
            monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        assert run(["sweep", "--eps-start", -2.0, "--eps-end", -1.5, "--steps", 2,
                    "--quantities", "e0_error,e1_error", "--out", tmp_path / "s.csv"]) == 0
        assert calls == {"bound_levels": 2}
        # the same hooks count a verify run's residuals
        calls.clear()
        assert run(["verify", "--epsilon", -1.5, "--out", tmp_path / "v.json"]) == 0
        assert calls == {"bound_levels": 1, "eigen_residual": 2}

    @pytest.mark.parametrize("points", [4001, 16003, 16001])
    def test_error_columns_are_verify_values(self, tmp_path, points):
        # the sweep's energy errors are verify's, bit for bit, and below 1e-9
        out = tmp_path / "sweep.json"
        assert run(["sweep", "--eps-start", -2.9, "--eps-end", -1.1, "--steps", 5,
                    "--points", points, "--quantities", "e0_error,e1_error",
                    "--format", "json", "--out", out]) == 0
        table = json.loads(out.read_text(encoding="utf-8"))
        assert list(table) == ["epsilon", "e0_error", "e1_error"]
        assert len(table["epsilon"]) == 5
        assert max(table["e0_error"] + table["e1_error"]) < 1e-9
        grid = shallowdw.Grid(20.0, points)
        for eps, e0, e1 in zip(table["epsilon"], table["e0_error"], table["e1_error"]):
            report = wells.verify(shallowdw.Partner(eps, grid))
            assert (e0, e1) == (report.e0_error, report.e1_error)

    def test_bad_quantities_exit_2(self, tmp_path, capsys):
        assert run(["sweep", "--eps-start", -2.0, "--eps-end", -1.5,
                    "--steps", 3, "--quantities", "bogus"]) == 2
        assert capsys.readouterr().err == (
            "error: unknown sweep quantities: bogus; choose from separatrix, "
            "curvature, gap, maxima_count, e0_error, e1_error\n")

    def test_bad_range_exit_2(self, capsys):
        assert run(["sweep", "--eps-start", -1.5, "--eps-end", -0.9,
                    "--steps", 3]) == 2
        assert capsys.readouterr().err == (
            "error: factorization energy must satisfy eps <= -1.000000001 "
            "(strictly below the base ground level -1), got -0.9\n")

    @pytest.mark.parametrize("start, end", [(-1.5, -2.0), (-1.5, -1.5)])
    def test_empty_range_exit_2(self, start, end, capsys):
        assert run(["sweep", "--eps-start", start, "--eps-end", end, "--steps", 3]) == 2
        assert capsys.readouterr().err == (
            "error: sweep range must satisfy eps_start < eps_end\n")

    @pytest.mark.parametrize("quantities", ["e0_error", "maxima_count"])
    def test_every_row_failing_on_the_grid_exits_3(self, quantities, capsys):
        # GridTooNarrow on three rows, BoundStateCountMismatch or
        # GridTooNarrow on the last
        assert run(["sweep", "--eps-start", -2.9, "--eps-end", -1.01,
                    "--steps", 4, "--x-max", 3, "--points", 601,
                    "--quantities", quantities]) == 3
        assert capsys.readouterr().err.count("warning: eps=") == 4

    def test_every_row_too_coarse_exits_3(self, capsys):
        assert run(["sweep", "--eps-start", -2.5, "--eps-end", -1.5, "--steps", 2,
                    "--x-max", 1000, "--points", 101,
                    "--quantities", "maxima_count"]) == 3
        assert capsys.readouterr().err.count("is too coarse for the ground state") == 2
        # a row just past the bound prints its ratio in full, not rounded onto it
        assert run(["sweep", "--eps-start=-10000", "--eps-end", -1.5, "--steps", 5,
                    "--quantities", "e0_error"]) == 0
        err = capsys.readouterr().err
        assert err.count("is too coarse for the ground state") == 4
        assert "h * max(1, sqrt(-eps)) = 0.5001124873465969 > 0.5;" in err
        assert "np." not in err

    def test_every_row_failing_with_a_solver_failure_exits_4(self, monkeypatch):
        # the first rows' solver fails; the last row's ground-state tail
        # shows a grid problem: any solver failure makes it exit 4
        monkeypatch.setattr(oracle, "INVERSE_ITERATION_MAX_STEPS", 0)
        assert run(["sweep", "--eps-start", -2.9, "--eps-end", -1.01,
                    "--steps", 4, "--x-max", 16, "--points", 601,
                    "--quantities", "e0_error"]) == 4

    def test_missing_steps_exit_2(self, capsys):
        assert run(["sweep", "--eps-start", -2.0, "--eps-end", -1.5]) == 2
        assert capsys.readouterr().err == (
            "error: sweep requires --eps-start, --eps-end and --steps >= 1\n")


class TestConfigFile:
    def test_config_supplies_defaults_flags_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epsilon = -2.25  # figure-2 regime\nx-max = 20\n")
        out = tmp_path / "a.csv"
        assert run(["potential", "--config", cfg, "--out", out]) == 0
        _, rows, _ = read_csv(out)
        assert rows[2000, 1] == -2.5

        out2 = tmp_path / "b.csv"
        assert run(["potential", "--config", cfg, "--epsilon", -1.5,
                    "--out", out2]) == 0
        _, rows2, _ = read_csv(out2)
        assert rows2[2000, 1] == -1.0

    def test_comment_and_blank_lines_are_skipped(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# figure-2 regime\n\n   \nepsilon = -2.25\n# points = abc\n")
        out = tmp_path / "a.csv"
        assert run(["potential", "--config", cfg, "--out", out]) == 0
        _, rows, _ = read_csv(out)
        assert rows.shape == (4001, 2) and rows[2000, 1] == -2.5

    @pytest.mark.parametrize("command", COMMANDS)
    def test_config_reaches_the_shared_options(self, command):
        config = {"epsilon": "-2.25", "x_max": "10", "points": "101"}
        args = vars(cli.build_parser(config).parse_args([command]))
        assert (args["x_max"], args["points"]) == (10.0, 101)
        assert args.get("epsilon") == (None if command == "sweep" else -2.25)

    def test_malformed_config_exit_2(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("epsilon -2.25\n")
        assert run(["potential", "--config", cfg]) == 2

    @pytest.mark.parametrize("command, settings", [
        ("evolve", {"epsilon": "-1.5", "x-max": "25", "points": "501",
                    "t_max": "4", "frames": "5"}),
        ("sweep", {"eps-start": "-2.5", "eps_end": "-1.5", "steps": "3",
                   "quantities": "gap,maxima_count", "points": "201"}),
    ])
    def test_every_key_reads_like_its_flag(self, command, settings, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in settings.items())
                       + "colour = blue  # unknown keys are ignored\n")
        flags = [f"--{k.replace('_', '-')}={v}" for k, v in settings.items()]
        from_file = run_captured([command, "--config", str(cfg)], capsys)
        assert from_file[0] == 0 and from_file[1]
        assert from_file == run_captured([command, *flags], capsys)

    def test_bad_value_is_rejected_by_its_flags_type(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("epsilon = -1.5\npoints = abc\n")
        code, out, err = run_captured(["potential", "--config", str(cfg)], capsys)
        assert (code, out) == (2, "")
        assert err.endswith("error: argument --points: invalid int value: 'abc'\n")

    @pytest.mark.parametrize("config, builds", [(False, 1), (True, 2)])
    def test_parser_built_again_only_for_a_config(self, config, builds, tmp_path,
                                                   monkeypatch):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("points = 101\n")
        calls = []
        real = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda *a: calls.append(a) or real(*a))
        assert run(["classify", "--epsilon", -1.5,
                    *(["--config", cfg] if config else [])]) == 0
        assert len(calls) == builds


class TestExitCodeTable:
    def test_even_points_is_bad_args(self, tmp_path):
        assert run(["potential", "--epsilon", -1.5, "--points", 4000,
                    "--out", tmp_path / "x.csv"]) == 2

    @pytest.mark.parametrize("x_max", ["inf", "nan"])
    def test_non_finite_x_max_is_bad_args(self, x_max, capsys):
        assert run(["potential", "--epsilon", -1.5, "--x-max", x_max,
                    "--points", 5]) == 2
        captured = capsys.readouterr()
        assert "x_max must be finite and positive" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("args", [
        ["verify", "--epsilon", -1.5],
        ["sweep", "--eps-start", -2.5, "--eps-end", -1.5, "--steps", 2,
         "--quantities", "e0_error"],
    ], ids=["verify", "sweep"])
    def test_spacing_whose_square_overflows_is_bad_args(self, args, capsys):
        assert run([*args, "--x-max", "2.7e154", "--points", 5]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: grid spacing h = 1.35e+154 is too large: h^2 overflows\n")

    @pytest.mark.parametrize("args", [
        ["classify", "--epsilon", "-1.5", "--x-max", "2000", "--points", "5"],
        ["classify", "--epsilon", "-1.5", "--x-max", "1e150", "--points", "5"],
        ["verify", "--epsilon=-1e4"],
    ], ids=["classify-2000", "classify-1e150", "verify-1e4"])
    def test_grid_too_coarse_for_the_ground_state_is_a_grid_error(self, args, capsys):
        code, out, err = run_captured(args, capsys)
        assert (code, out) == (3, "")
        assert err.startswith("error: Grid(") and err.count("\n") == 1
        assert "is too coarse for the ground state" in err

    def test_spacing_whose_square_underflows_is_bad_args(self, capsys):
        # h^2 = 0 made the eigensolver divide by zero: a traceback and exit 1
        code, out, err = run_captured(["verify", "--epsilon", "-3", "--x-max", "1e-308",
                                       "--points", "3"], capsys)
        assert (code, out) == (2, "")
        assert err == "error: grid spacing h = 1e-308 is too small: h^2 underflows\n"

    @pytest.mark.parametrize("t_max", ["nan", "inf", "-1"])
    def test_non_finite_t_max_is_bad_args(self, t_max, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["evolve", "--epsilon", -1.5, "--t-max", t_max,
                        "--frames", 3]) == 2
        captured = capsys.readouterr()
        assert "t_max must be finite" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("args", [
        ["classify", "--epsilon=-inf"],
        ["sweep", "--eps-start=nan", "--eps-end", "-1.5", "--steps", "3"],
        ["sweep", "--eps-start=-inf", "--eps-end", "-1.5", "--steps", "3"],
    ], ids=["classify", "sweep", "sweep-inf"])
    def test_non_finite_epsilon_is_named_as_such(self, args, capsys):
        code, out, err = run_captured(args, capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "finite" in err

    def test_stalled_bisection_is_a_solver_failure(self, monkeypatch, capsys):
        # no step from the shift meets the target, so the level is bisected
        monkeypatch.setattr(oracle, "INVERSE_ITERATION_MAX_STEPS", 0)
        monkeypatch.setattr(oracle, "BISECTION_MAX_ITER", 1)
        code, out, err = run_captured(["verify", "--epsilon", "-1.5"], capsys)
        assert (code, out) == (4, "")
        assert re.fullmatch(r"error: bisection .* stalled .*\n", err)

    @pytest.mark.parametrize("args", [
        ["potential", "--epsilon", "-1.5", "--config", "/nonexistent/run.cfg"],
        ["potential", "--epsilon", "-1.5", "--out", "/nonexistent/dir/x.csv"],
        ["potential", "--epsilon", "-1.5", "--svg", "/nonexistent/x.svg"],
        ["evolve", "--epsilon", "-1.5", "--svg", "/nonexistent/x.svg"],
    ], ids=["config", "out", "svg", "svg-evolve"])
    def test_unusable_file_path_is_bad_args(self, args, capsys):
        # each file is opened before the first byte of the table is written
        code, out, err = run_captured(args, capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    # both files are opened before either is written, and a file made by the
    # first open is removed when the second fails
    @pytest.mark.parametrize("command", ["potential", "evolve"])
    def test_unusable_out_path_leaves_no_svg(self, command, tmp_path, capsys):
        svg = tmp_path / "x.svg"
        code, out, _ = run_captured([command, "--epsilon", "-1.5", "--svg", str(svg),
                                     "--out", "/nonexistent/x.csv"], capsys)
        assert (code, out) == (2, "")
        assert not svg.exists()

    @pytest.mark.parametrize("command", ["potential", "evolve"])
    def test_unusable_svg_path_leaves_no_table(self, command, tmp_path, capsys):
        table = tmp_path / "x.csv"
        code, out, _ = run_captured([command, "--epsilon", "-1.5", "--out", str(table),
                                     "--svg", "/nonexistent/x.svg"], capsys)
        assert (code, out) == (2, "")
        assert not table.exists()

    def test_unusable_out_path_keeps_a_file_it_did_not_make(self, tmp_path, capsys):
        svg = tmp_path / "x.svg"
        svg.write_text("old")
        code, _, _ = run_captured(["potential", "--epsilon", "-1.5", "--svg", str(svg),
                                   "--out", "/nonexistent/x.csv"], capsys)
        assert code == 2 and svg.exists()

    @pytest.mark.parametrize("args", [
        ["potential", "--epsilon", "-1.5", "--points", "1000000000000001"],
        ["evolve", "--epsilon", "-1.5", "--frames", "1000000000000000"],
        ["sweep", "--eps-start", "-2", "--eps-end", "-1.5", "--steps", "1000000000000000"],
    ], ids=["points", "frames", "steps"])
    def test_request_too_large_to_allocate_is_bad_args(self, args, capsys):
        # petabytes: numpy refuses the array at once, before allocating any of it
        code, out, err = run_captured(args, capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: Unable to allocate") and err.count("\n") == 1

    def test_missing_epsilon_is_bad_args(self):
        assert run(["potential"]) == 2

    def test_unknown_subcommand_raises_systemexit_2(self):
        with pytest.raises(SystemExit) as exc:
            run(["frobnicate"])
        assert exc.value.code == 2


class TestParserSurface:
    @pytest.mark.parametrize("command", COMMANDS)
    def test_help_lists_the_shared_options_first(self, command, capsys):
        code, out, _ = run_captured([command, "--help"], capsys)
        assert code == 0
        shared = ["--x-max", "--points", "--out", "--format", "--config"]
        if command != "sweep":
            shared.insert(0, "--epsilon")
        own = {"potential": ["--svg"], "evolve": ["--t-max", "--frames", "--svg"],
               "sweep": ["--eps-start", "--eps-end", "--steps", "--quantities"]}
        listed = re.findall(r"^  (?:-h, )?(--[a-z-]+)", out, re.MULTILINE)
        assert listed == ["--help", *shared, *own.get(command, [])]

    def test_sweep_takes_no_epsilon(self, capsys):
        code, out, err = run_captured(["sweep", "--epsilon", "-1.5", "--eps-start", "-2",
                                       "--eps-end", "-1.5", "--steps", "2"], capsys)
        assert (code, out) == (2, "")
        assert err.endswith("error: unrecognized arguments: --epsilon=-1.5\n")


SWEEP_16001 = ["sweep", "--eps-start", "-2.5", "--eps-end", "-1.3", "--steps", "5",
               "--points", "16001", "--quantities", "e0_error,e1_error"]


# faults of one sweep after a warm-up and a heap trim, in a fresh process: in
# the test process glibc's dynamic thresholds depend on the tests run before
FAULTS_OF_ONE_RUN = """
import contextlib, ctypes, io, resource, sys
from shallowdw.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    main(sys.argv[1:])
    ctypes.CDLL(None).malloc_trim(0)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    code = main(sys.argv[1:])
print(code, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


class TestHeapHold:
    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's malloc only")
    def test_sweep_keeps_its_freed_heap_pages(self):
        # a 16001-node vector is just under glibc's 128 KiB mmap threshold:
        # unheld, glibc trims the heap after each solve's temporaries and the
        # next solve faults them back in; cli._hold_heap gives the counts
        env = {**os.environ, "PYTHONPATH": str(Path(shallowdw.__file__).resolve().parents[1])}
        done = subprocess.run([sys.executable, "-c", FAULTS_OF_ONE_RUN, *SWEEP_16001],
                              env=env, capture_output=True, text=True, timeout=120, check=True)
        code, faults = map(int, done.stdout.split())
        assert code == 0
        assert faults < 1000, faults

    @pytest.mark.parametrize("libc", [None, object()], ids=["no-handle", "no-mallopt"])
    def test_no_mallopt_changes_no_byte(self, libc, capsys, monkeypatch, request):
        # CDLL(None) raises, or returns a C library without mallopt
        asked = []

        def cdll(name):
            asked.append(name)
            if libc is None:
                raise OSError("no C library handle")
            return libc

        expected = run_captured(SWEEP_16001, capsys)
        cli._hold_heap.cache_clear()
        request.addfinalizer(cli._hold_heap.cache_clear)  # let the next main hold
        monkeypatch.setattr(cli.ctypes, "CDLL", cdll)
        assert run_captured(SWEEP_16001, capsys) == expected
        assert expected[0] == 0 and asked == [None]


def run_captured(args, capsys):
    """(exit code, stdout, stderr) of one in-process run, argparse exits included."""
    try:
        code = main(args)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("args, code", [
    (["classify", "--epsilon", "-1e6"], 3),  # k h = 10: the grid is too coarse
    (["potential", "--epsilon", "-1e20", "--points", "11"], 0),
    (["evolve", "--epsilon", "-1.5e0", "--frames", "3"], 0),
    (["classify", "--epsilon", "-1e-3"], 2),
    (["classify", "--epsilon", "-inf"], 2),
    (["sweep", "--eps-start", "-2.9e0", "--eps-end", "-1.1e0", "--steps", "3"], 0),
    (["sweep", "--eps-start", "-2.9", "--eps-end", "-5e-1", "--steps", "3"], 2),
    (["classify", "--epsilon", "-1e6", "--x-max", "0.05"], 0),  # k h = 0.025
])
def test_negative_value_reads_the_same_after_a_space_or_equals(args, code, capsys):
    equals_form = []
    for arg in args:
        if equals_form and equals_form[-1] in ("--epsilon", "--eps-start", "--eps-end"):
            equals_form[-1] += "=" + arg
        else:
            equals_form.append(arg)
    space = run_captured(args, capsys)
    assert space[0] == code
    assert space == run_captured(equals_form, capsys)


ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True)


@settings(max_examples=50, deadline=None)
@given(command=st.sampled_from(["classify", "evolve", "potential", "verify"]),
       eps=st.one_of(st.floats(-3.5, -1.0), ANY_FLOAT),
       x_max=st.one_of(st.floats(1.0, 40.0), ANY_FLOAT),
       points=st.one_of(st.integers(1, 500).map(lambda k: 2 * k + 1),
                        st.integers(-2, 1001)),
       t_max=st.one_of(st.floats(0.0, 100.0), ANY_FLOAT))
# grids and eps whose numbers overflowed before the error line, or after exit 0
@example(command="verify", eps=-3.0, x_max=4.47e-79, points=39, t_max=1.0)
@example(command="potential", eps=-1e300, x_max=1e-150, points=5, t_max=1.0)
@example(command="potential", eps=-1e154, x_max=1.0, points=3, t_max=1.0)
@example(command="verify", eps=-1e300, x_max=1e-149, points=41, t_max=1.0)
@example(command="evolve", eps=-3.0, x_max=16.0, points=113, t_max=8.98846567431158e307)
def test_every_run_keeps_the_exit_code_contract(command, eps, x_max, points, t_max):
    argv = [command, f"--epsilon={eps!r}", f"--x-max={x_max!r}", f"--points={points}"]
    if command == "evolve":
        argv.append(f"--t-max={t_max!r}")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3, 4)
    if code >= 2:
        assert out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")


@settings(max_examples=50, deadline=None)
@given(eps_start=st.one_of(st.floats(-3.5, -1.0), ANY_FLOAT),
       eps_end=st.one_of(st.floats(-3.5, -1.0), ANY_FLOAT))
# np.linspace warned on a non-finite end before the range was validated
@example(eps_start=-np.inf, eps_end=-1.5)
@example(eps_start=np.nan, eps_end=-1.5)
def test_every_sweep_keeps_the_exit_code_contract(eps_start, eps_end):
    # gap is a closed form: each run is fast and never fails a row
    argv = ["sweep", f"--eps-start={eps_start!r}", f"--eps-end={eps_end!r}",
            "--x-max=10", "--points=101", "--steps=2", "--quantities=gap"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2)
    if code == 2:
        assert out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize("args", [
    ["verify", "--epsilon", "-1.5", "--points", "16001"],
    ["sweep", "--eps-start", "-2.6", "--eps-end", "-1.4", "--steps", "2",
     "--points", "16001", "--quantities", "e0_error,e1_error"],
])
def test_stdout_does_not_depend_on_blas_threads(args):
    src = str(Path(shallowdw.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads,
               "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads}
        done = subprocess.run([sys.executable, "-m", "shallowdw.cli", *args],
                              env=env, capture_output=True, timeout=120, check=True)
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]
