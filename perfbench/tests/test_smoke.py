"""Smoke test of the benchmark itself: one cycle per workload, all checks on.

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import calibrate  # noqa: E402
import run  # noqa: E402
import shallowdw.cli as cli  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402


@pytest.fixture
def out_path():
    run.OUT_DIR.mkdir(exist_ok=True)
    path = run.OUT_DIR / "smoke-op.out"
    yield path
    path.unlink(missing_ok=True)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_draws_are_seeded_distinct_and_in_range(workload):
    draws = workloads.build(workload, 7, 50)
    assert np.array_equal(draws, workloads.build(workload, 7, 50))
    assert np.unique(draws).size == draws.size
    assert np.all((draws > -3.0) & (draws < -1.0))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_each_verify_cycle_has_three_draws_below_the_defect(seed):
    draws = workloads.build("verify", seed, 200)
    below = draws < workloads.VERIFY_FAIL_BELOW
    assert np.all(below.sum(axis=1) == 3)
    assert np.min(np.abs(draws - workloads.VERIFY_FAIL_BELOW)) > 0.04


def test_run_size_depends_on_seconds_only():
    assert workloads.run_cycles("verify", 25) == 25
    assert workloads.run_cycles("sweep", 20) == 13
    assert workloads.run_cycles("export", 0.1) == 1


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_one_cycle_runs_and_passes_its_checks(workload, out_path):
    draws = workloads.build(workload, 3, 1)
    phase = run.measure(cli, workloads.cycles(workload, draws), 1, out_path)
    assert phase.ops == len(workloads.cycle_ops(workload, draws[0]))
    assert phase.inconsistent == 0, phase.failures
    # verify fails below VERIFY_FAIL_BELOW on the default grid (known defect)
    known = 3 if workload == "verify" else 0
    assert phase.failed == known, phase.failures
    assert phase.e_errors and max(phase.e_errors) < 1e-4
    assert not out_path.exists()


def test_speed_factors_use_the_calibrations_around_each_op():
    nominal = calibrate.NOMINAL_S
    # the host runs at half speed for the last ops; one sample is stretched
    gaps = [[nominal]] * 4 + [[2 * nominal]] * 5 + [[2 * nominal] * 9
                                                    + [50 * nominal]]
    factors = calibrate.speed_factors(gaps, 9)
    assert factors[0] == 1.0
    assert factors[-1] == pytest.approx(0.5)
    with pytest.raises(ValueError):
        calibrate.speed_factors(gaps, 10)


def test_calibration_time_follows_the_op_time():
    assert len(calibrate.sample(0.0)) == 1
    assert sum(calibrate.sample(0.4)) >= calibrate.SHARE * 0.4


def test_failing_op_is_counted_not_dropped(out_path):
    good = workloads.cycle_ops("verify", np.array([-1.5]))[0]
    # a grid too small to hold two bound states: the CLI exits 1
    bad = workloads.Op("verify", ["verify", "--epsilon", "-1.5", "--points", "3"],
                       -1.5)
    phase = run.measure(cli, iter([[good, bad]]), 1, out_path)
    assert phase.ops == 2
    assert phase.failed == 1
    assert phase.inconsistent == 0
    assert "exit 1" in phase.failures[0]


def test_wrong_output_is_inconsistent(out_path):
    op = workloads.cycle_ops("export", np.array([-1.5, -1.6, -1.7]))[2]
    out_path.write_text("t,P_left\n0.0,0.5\n")
    outcome = workloads.check(op, 0, str(out_path), out_path.stat().st_size)
    assert not outcome.ok and not outcome.consistent


def test_lossy_token_is_rejected():
    with pytest.raises(workloads.CheckFailed):
        workloads._check_lossless(["0.10"], [0.1])


def test_tracer_records_nested_spans_and_restores_functions(out_path):
    original = cli.oracle.sturm_count
    tracer = Tracer()
    ops = workloads.cycle_ops("verify", np.array([-1.5]))
    with tracer.installed():
        phase = run.measure(cli, iter([ops]), 1, out_path, tracer)
    assert cli.oracle.sturm_count is original
    assert not tracer.missing
    totals = tracer.totals()
    assert totals["cli.main"]["calls"] == 1
    assert totals["oracle.verify_spectrum"]["calls"] == 1
    assert totals["oracle.sturm_count"]["calls"] > 50
    [op_time] = tracer.op_self_times()
    assert op_time == pytest.approx(totals["cli.main"]["s"])
    assert op_time <= phase.latencies[0]
