"""shallowdw benchmark: drives ``shallowdw.cli.main(argv)`` in process.

    python3 perfbench/run.py --workload {verify,sweep,export} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from ``src/``.
One closed-loop client and no threads: each op starts when the previous one
has returned.  A run is a fixed number of op cycles, sized by ``--seconds``
(see ``workloads.CYCLE_SECONDS``).  Op times cover ``main(argv)`` only,
scaled to a reference host speed (see calibrate.py);
output checks run between ops, outside the timed region.  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer ones.  The last stdout line is the JSON result;
the line before it holds the run's metadata.  See perfbench/README.md.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools to one thread before numpy loads: np.linalg.norm
# runs inside the oracle's inverse-iteration loop.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import ctypes.util  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Iterator, List, Optional, Tuple  # noqa: E402

import numpy as np  # noqa: E402

import calibrate  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPS = 7

# The child prints the system-wide monotonic clock once set up, so the time
# excludes interpreter shutdown and the parent's polling for the child's exit
# (in steps of up to 50 ms when a timeout is given).
SETUP_CODE = ("import sys; sys.path[:0] = sys.argv[1:3]; "
              "import shallowdw.cli, workloads, time; "
              "workloads.build(sys.argv[3], int(sys.argv[4]), int(sys.argv[5])); "
              "print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))")


def _malloc_trim():
    """glibc's ``malloc_trim(0)``, or a no-op where there is none."""
    try:
        return ctypes.CDLL(ctypes.util.find_library("c")).malloc_trim
    except (OSError, AttributeError, TypeError):
        return lambda pad: 0


# Called between ops: hands the heap the last op and its check freed back to
# the system, so peak RSS is the high-water mark of one op on top of the
# process, not of how freed blocks happen to fragment over a long run.
MALLOC_TRIM = _malloc_trim()


@dataclass
class Phase:
    """What one measured stretch of ops did."""

    latencies: List[float] = field(default_factory=list)  # wall seconds
    calibrations: List[List[float]] = field(default_factory=list)
    eps: List[float] = field(default_factory=list)
    failed: int = 0
    inconsistent: int = 0
    e_errors: List[float] = field(default_factory=list)
    out_bytes: List[int] = field(default_factory=list)
    kinds: Counter = field(default_factory=Counter)
    failures: List[str] = field(default_factory=list)

    @property
    def ops(self) -> int:
        return len(self.latencies)

    @property
    def factors(self) -> List[float]:
        return calibrate.speed_factors(self.calibrations, self.ops)

    @property
    def scaled(self) -> List[float]:
        """Op times at the reference host's usual speed (see calibrate.py)."""
        return [t * f for t, f in zip(self.latencies, self.factors)]

    @property
    def ops_per_s(self) -> float:
        return self.ops / sum(self.scaled)

    @property
    def raw_ops_per_s(self) -> float:
        return self.ops / sum(self.latencies)


def call(cli, argv: List[str]):
    """Run ``cli.main(argv)``; return (exit code or None, seconds, messages)."""
    sink = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = cli.main(argv)
    except SystemExit as exc:  # argparse rejects bad arguments this way
        rc = exc.code
    except Exception as exc:  # a crash is one failed op; the run goes on
        rc = None
        sink.write(repr(exc))
    return rc, time.perf_counter() - start, sink.getvalue()


def measure(cli, cycles: Iterator[List[workloads.Op]], n_cycles: int,
            out_path: Path, tracer: Optional[Tracer] = None) -> Phase:
    """Run the next ``n_cycles`` op cycles."""
    phase = Phase()
    for _ in range(n_cycles):
        for op in next(cycles):
            phase.calibrations.append(calibrate.sample(
                phase.latencies[-1] if phase.latencies else 0.0))
            if tracer is not None:
                tracer.op += 1
            rc, elapsed, messages = call(cli, op.argv + ["--out", str(out_path)])
            size = out_path.stat().st_size if out_path.exists() else 0
            outcome = workloads.check(op, rc, str(out_path), size)
            out_path.unlink(missing_ok=True)
            MALLOC_TRIM(0)
            phase.latencies.append(elapsed)
            phase.eps.append(op.eps)
            phase.kinds[op.kind] += 1
            phase.out_bytes.append(size)
            if outcome.e_error is not None:
                phase.e_errors.append(outcome.e_error)
            if not outcome.ok:
                phase.failed += 1
                phase.inconsistent += not outcome.consistent
                if len(phase.failures) < 5:
                    phase.failures.append(
                        f"{' '.join(op.argv)}: exit {rc}: {messages.strip()[:200]}")
    phase.calibrations.append(calibrate.sample(phase.latencies[-1]))
    return phase


def started(code: str, *args: str) -> float:
    """Seconds from starting a fresh interpreter on ``code`` until it prints
    the monotonic clock."""
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    res = subprocess.run([sys.executable, "-c", code, *args], check=True,
                         stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                         text=True, timeout=120)
    return float(res.stdout.split()[-1]) - start


def setup_seconds(workload: str, seed: int,
                  n_cycles: int) -> Tuple[List[float], List[float]]:
    """Wall times from a fresh interpreter to the CLI imported and inputs
    built, each after one start of the reference (see calibrate.py)."""
    times: List[float] = []
    references: List[float] = []
    for _ in range(SETUP_REPS):
        references.append(started(calibrate.STARTUP_CODE))
        times.append(started(SETUP_CODE, str(SRC), str(BENCH_DIR), workload,
                             str(seed), str(n_cycles)))
    return times, references


def p90(latencies: List[float]) -> float:
    if len(latencies) < 2:
        return latencies[0]
    return statistics.quantiles(latencies, n=10, method="inclusive")[-1]


def end_to_end(phase: Phase, setup: Tuple[List[float], List[float]]) -> dict:
    setup_times, references = setup
    scaled = phase.scaled
    return {
        "ops_per_s": (phase.ops_per_s, "1/s"),
        "latency_p50_ms": (statistics.median(scaled) * 1e3, "ms"),
        "latency_p90_ms": (p90(scaled) * 1e3, "ms"),
        "ok_frac": (1.0 - phase.failed / phase.ops, "frac"),
        "setup_s": (statistics.median(setup_times) * calibrate.STARTUP_NOMINAL_S
                    / statistics.median(references), "s"),
        "peak_rss_MB": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
        # no error estimate at all means every op failed before emitting
        "max_e_error": (max(phase.e_errors, default=math.inf), "1"),
    }


def per_layer(tracer: Tracer, untraced: Phase, traced: Phase,
              peak_alloc: int) -> dict:
    totals = tracer.totals()
    n = traced.ops
    # span times at the reference host's usual speed, as end to end
    scale = statistics.median(traced.factors)

    def ms(name: str, key: str = "s") -> float:
        return totals[name][key] * scale * 1e3 / n

    solves = totals["oracle.verify_spectrum"]["calls"]
    sturm = totals["oracle.sturm_count"]
    evolve = totals["dynamics.evolve_series"]
    transform_calls = sum(t["calls"] for name, t in totals.items()
                          if name.startswith("transform."))
    return {
        "oracle.verify_spectrum.ms": (ms("oracle.verify_spectrum"), "ms"),
        "oracle.build_hamiltonian.ms": (ms("oracle.build_hamiltonian"), "ms"),
        "oracle.eigen_residual.ms": (ms("oracle.eigen_residual"), "ms"),
        "oracle.sturm_count.calls": (sturm["calls"] / solves if solves else 0.0,
                                     "count"),
        "oracle.sturm_count.us": (sturm["s"] * scale * 1e6 / sturm["calls"]
                                  if sturm["calls"] else 0.0, "us"),
        "oracle.lowest_eigenpairs.self_ms": (
            ms("oracle.lowest_eigenpairs", "self_s"), "ms"),
        "oracle.check_intertwining.ms": (ms("oracle.check_intertwining"), "ms"),
        "oracle.check_intertwining.calls": (
            totals["oracle.check_intertwining"]["calls"] / n, "count"),
        "grids.derivative.ms": (ms("grids.derivative"), "ms"),
        "wells.check_bimodality_relation.ms": (
            ms("wells.check_bimodality_relation"), "ms"),
        "wells.classify.ms": (ms("wells.classify"), "ms"),
        "transform.potential_curve.ms": (ms("transform.potential_curve"), "ms"),
        "transform.ground_state.ms": (ms("transform.ground_state"), "ms"),
        "transform.excited_state.ms": (ms("transform.excited_state"), "ms"),
        "transform.calls": (transform_calls / n, "count"),
        "dynamics.evolve_series.ms": (ms("dynamics.evolve_series"), "ms"),
        "dynamics.evolve_series.us_per_frame": (
            evolve["s"] * scale * 1e6
            / (evolve["calls"] * workloads.EVOLVE_FRAMES)
            if evolve["calls"] else 0.0, "us"),
        "cli.main.self_ms": (ms("cli.main", "self_s"), "ms"),
        "cli.out_bytes": (statistics.fmean(traced.out_bytes), "B"),
        "trace.peak_alloc_MB": (peak_alloc / 2**20, "MB"),
        "trace.overhead_frac": (1.0 - traced.ops_per_s / untraced.ops_per_s,
                                "frac"),
    }


def git_sha() -> Optional[str]:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def src_sha256() -> str:
    """Content hash of the package, for checkouts that are not git repos."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "shallowdw").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "shallowdw" / "cli.py").is_file():
        print(f"error: {SRC / 'shallowdw'} not found; run from the root of a "
              "shallowdw checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import shallowdw.cli as cli

    n_cycles = workloads.run_cycles(args.workload, args.seconds)
    # trace 1 splits the run in halves and adds one tracemalloc cycle
    half = max(1, round(n_cycles / 2))
    total_cycles = 1 + (n_cycles if args.trace == 0 else 2 * half + 1)
    draws = workloads.build(args.workload, args.seed, total_cycles)
    setup = setup_seconds(args.workload, args.seed, total_cycles)
    cycles = workloads.cycles(args.workload, draws)
    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"op-{os.getpid()}.out"
    run_start = time.perf_counter()
    # one untimed, uncounted cycle: lazy imports and first-call costs
    measure(cli, cycles, 1, out_path)

    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "cycles": n_cycles, "git_sha": git_sha(), "src_sha256": src_sha256(),
        "python": sys.version.split()[0], "numpy": np.__version__,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_env": THREAD_ENV, "client": "closed loop, 1 client, in process",
        "setup_s_samples": setup[0],
        "setup_reference_s": setup[1],
        "calibration_nominal_s": [calibrate.NOMINAL_S,
                                  calibrate.STARTUP_NOMINAL_S],
    }
    if args.trace == 0:
        phases = [measure(cli, cycles, n_cycles, out_path)]
        main_phase = phases[0]
        metrics = end_to_end(main_phase, setup)
    else:
        untraced = measure(cli, cycles, half, out_path)
        tracer = Tracer()
        with tracer.installed():
            traced = measure(cli, cycles, half, out_path, tracer)
        tracemalloc.start()
        try:
            alloc = measure(cli, cycles, 1, out_path)
            peak_alloc = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        phases = [untraced, traced, alloc]
        main_phase = traced
        metrics = per_layer(tracer, untraced, traced, peak_alloc)
        spans_file = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(str(spans_file))
        meta["trace_detail"] = {
            "traced_ops": traced.ops, "untraced_ops": untraced.ops,
            # per op: the self times of all its spans over its measured time
            "accounted_frac": statistics.median(
                s / t for s, t in zip(tracer.op_self_times(), traced.latencies)),
            "unpatched": tracer.missing,
            "spans_file": str(spans_file.relative_to(ROOT)),
        }

    attempted = sum(p.ops for p in phases)
    failed = sum(p.failed for p in phases)
    lat = main_phase.scaled
    lat_p90 = p90(lat)
    meta.update({
        "raw_ops_per_s": main_phase.raw_ops_per_s,
        "raw_latency_p50_ms": statistics.median(main_phase.latencies) * 1e3,
        "raw_setup_s": statistics.median(setup[0]),
        "speed_factor_median": statistics.median(main_phase.factors),
        "ops": dict(sum((p.kinds for p in phases), Counter())),
        "latency_samples": len(lat),
        "samples_above_p90": sum(t > lat_p90 for t in lat),
        "failed_frac": failed / attempted,
        "inconsistent_ops": sum(p.inconsistent for p in phases),
        "failures_sample": [f for p in phases for f in p.failures][:5],
        "run_wall_s": time.perf_counter() - run_start,
    })
    if args.workload == "verify":
        eps = [e for p in phases for e in p.eps]
        meta["eps_below_verify_fail_frac"] = (
            sum(e < workloads.VERIFY_FAIL_BELOW for e in eps) / len(eps))
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": meta["inconsistent_ops"] == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
