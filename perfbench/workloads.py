"""Seeded inputs and output checks for the three benchmark workloads.

Every op is one ``shallowdw`` CLI invocation, given as an argv list without
``--out`` (the runner adds it).  Each op draws its own epsilon from the seed,
so an in-process cache keyed on epsilon gets no hit that a fresh CLI process
would not get.  All draws lie in the paper's double-well family -3 < eps < -1.

A run is a fixed number of op cycles, set by ``--seconds`` alone, so two runs
with the same ``--seconds`` attempt the same ops.  A ``verify`` cycle holds
exactly three ops below the known failure threshold (see ``verify_draws``),
so every run fails the same number of ops, whatever its seed.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

import numpy as np

WORKLOADS = ("verify", "sweep", "export")

EPS_RANGE = (-2.95, -1.05)
SWEEP_START_RANGE = (-2.95, -2.2)
SWEEP_END_RANGE = (-1.8, -1.05)
SWEEP_POINTS = 16001
SWEEP_STEPS = 5
SWEEP_QUANTITIES = ("separatrix", "curvature", "gap", "maxima_count",
                    "e0_error", "e1_error")
EXPORT_POINTS = 64001
EVOLVE_FRAMES = 2001

# Seconds of run per cycle.  A run of S seconds is round(S / CYCLE_SECONDS)
# cycles (at least one): a fixed amount of work.  On a 2-vCPU virtual
# machine a cycle takes about 1.0 s of op time on verify, 1.2 s on export
# plus 1.1 s of output checks, and 2.0 s on sweep.  Sweep counts 1.5, so that
# a 20 s run has 13 sweep ops and its p50 and p90 rest on more than a
# handful of them.
CYCLE_SECONDS = {"verify": 1.0, "sweep": 1.5, "export": 1.25}

# verify exits 1 (psi1_residual above residual_max) for every epsilon below
# this on the default grid: a known defect the verify workload counts as a
# failure.
VERIFY_FAIL_BELOW = -2.3749
# verify draws one epsilon in each tenth of EPS_RANGE, from the middle half
# of that tenth.  Three tenths lie below VERIFY_FAIL_BELOW; the nearest draws
# keep 0.04 from it on either side.
VERIFY_STRATA = 10


def run_cycles(workload: str, seconds: float) -> int:
    return max(1, round(seconds / CYCLE_SECONDS[workload]))


@dataclass(frozen=True)
class Op:
    kind: str          # CLI subcommand
    argv: List[str]
    eps: float         # the drawn epsilon (sweep: eps_start)


@dataclass(frozen=True)
class Outcome:
    ok: bool                  # exit code 0 and every output check passed
    consistent: bool          # the output agrees with the exit code
    e_error: Optional[float]  # energy error the output reports or implies


def _weyl(rng: np.random.Generator, cycles: int, columns: int) -> np.ndarray:
    """(cycles, columns) points in [0, 1): a randomly shifted Weyl sequence.

    Each column steps by its own irrational; with 1 these are linearly
    independent over the rationals, so the columns are jointly
    equidistributed and fill [0, 1) evenly whatever the seed.
    """
    steps = np.array([(5 ** 0.5 - 1) / 2, 2 ** 0.5 - 1, 3 ** 0.5 - 1])
    k = np.arange(cycles)[:, None]
    return (rng.random(columns) + k * steps[:columns]) % 1.0


def _scale(u: np.ndarray, lo_hi: Tuple[float, float]) -> np.ndarray:
    lo, hi = lo_hi
    return lo + (hi - lo) * u


def verify_draws(rng: np.random.Generator, cycles: int) -> np.ndarray:
    """(cycles, VERIFY_STRATA) epsilons: a seeded jitter on a fixed grid.

    Column k lies in the middle half of the k-th tenth of EPS_RANGE, so each
    cycle spans the range and has exactly three draws below
    VERIFY_FAIL_BELOW (30% of ops), far enough from it that the count does
    not depend on the seed.
    """
    u = 0.25 + 0.5 * rng.random((cycles, VERIFY_STRATA))
    return _scale((np.arange(VERIFY_STRATA) + u) / VERIFY_STRATA, EPS_RANGE)


def build(workload: str, seed: int, cycles: int) -> np.ndarray:
    """All epsilon draws of a run, one row per op cycle."""
    rng = np.random.default_rng(seed)
    if workload == "verify":
        return verify_draws(rng, cycles)
    if workload == "sweep":
        u = _weyl(rng, cycles, 2)
        return np.column_stack((_scale(u[:, 0], SWEEP_START_RANGE),
                                _scale(u[:, 1], SWEEP_END_RANGE)))
    if workload == "export":
        return _scale(_weyl(rng, cycles, 3), EPS_RANGE)
    raise ValueError(f"unknown workload {workload!r}")


def cycle_ops(workload: str, draws: np.ndarray) -> List[Op]:
    """The ops of one cycle: one per draw for ``verify`` and one for
    ``sweep``; for ``export`` the fixed three."""
    eps = [repr(float(e)) for e in draws]
    if workload == "verify":
        return [Op("verify", ["verify", "--epsilon", e], float(d))
                for e, d in zip(eps, draws)]
    if workload == "sweep":
        return [Op("sweep", ["sweep", "--eps-start", eps[0], "--eps-end", eps[1],
                             "--points", str(SWEEP_POINTS),
                             "--steps", str(SWEEP_STEPS),
                             "--quantities", ",".join(SWEEP_QUANTITIES)],
                   float(draws[0]))]
    return [
        Op("states", ["states", "--epsilon", eps[0],
                      "--points", str(EXPORT_POINTS)], float(draws[0])),
        Op("potential", ["potential", "--epsilon", eps[1],
                         "--points", str(EXPORT_POINTS), "--format", "json"],
           float(draws[1])),
        Op("evolve", ["evolve", "--epsilon", eps[2],
                      "--frames", str(EVOLVE_FRAMES)], float(draws[2])),
    ]


def cycles(workload: str, draws: np.ndarray) -> Iterator[List[Op]]:
    for row in draws:
        yield cycle_ops(workload, row)
    raise RuntimeError(f"all {len(draws)} input cycles used")


# ---------------------------------------------------------------- checks

class CheckFailed(ValueError):
    """An op's output does not have the expected form or values."""


NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")
CHUNK_BYTES = 1 << 20


def _check_lossless(tokens: List[str], values: List[float]) -> None:
    """Every token must be the shortest round-trip repr of its value."""
    reprs = list(map(repr, values))
    if reprs != tokens:
        bad = next(t for t, r in zip(tokens, reprs) if t != r)
        raise CheckFailed(f"{bad!r} does not parse back losslessly")


def _read_csv(path: str, header: Tuple[str, ...], rows: int,
              lossless: bool) -> Tuple[np.ndarray, List[str]]:
    """Parse a CLI CSV into a (rows, columns) array, about 1 MB at a time.

    Returns the array and the '#' comment lines.  Reading in chunks keeps the
    check's share of the process's peak memory small.
    """
    ncols = len(header)
    table = np.empty((rows, ncols))
    comments: List[str] = []
    seen_header = False
    n = 0
    with open(path, encoding="utf-8") as fh:
        while lines := fh.readlines(CHUNK_BYTES):
            comments += [ln[1:].strip() for ln in lines if ln.startswith("#")]
            data = [ln.rstrip("\n") for ln in lines if not ln.startswith("#")]
            if data and not seen_header:
                if tuple(data[0].split(",")) != header:
                    raise CheckFailed(f"header {data[0]!r}, expected {header}")
                seen_header = True
                data = data[1:]
            if not data:
                continue
            if n + len(data) > rows:
                raise CheckFailed(f"more than {rows} rows")
            if any(ln.count(",") != ncols - 1 for ln in data):
                raise CheckFailed(f"a row without {ncols} fields")
            tokens = ",".join(data).split(",")
            values = list(map(float, tokens))
            if lossless:
                _check_lossless(tokens, values)
            table[n:n + len(data)] = np.reshape(values, (-1, ncols))
            n += len(data)
    if not seen_header or n != rows:
        raise CheckFailed(f"{n} rows, expected {rows}")
    if not np.all(np.isfinite(table)):
        raise CheckFailed("non-finite value")
    return table, comments


def _rayleigh_error(x: np.ndarray, v: np.ndarray, psi: np.ndarray,
                    energy: float) -> float:
    """|<psi|H|psi>/<psi|psi> - energy| for the emitted samples.

    H is the 3-point finite-difference -d2/dx2 + V with Dirichlet walls,
    built here from the emitted x and V columns, independent of the
    package's own oracle.
    """
    h = (x[-1] - x[0]) / (len(x) - 1)
    padded = np.concatenate(([0.0], psi, [0.0]))
    h_psi = (2.0 * psi - padded[:-2] - padded[2:]) / (h * h) + v * psi
    return abs(float(psi @ h_psi) / float(psi @ psi) - energy)


def _check_verify(op: Op, path: str, rc: int) -> Tuple[bool, Optional[float]]:
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if payload["epsilon"] != op.eps:
        raise CheckFailed(f"epsilon {payload['epsilon']} echoed for {op.eps}")
    if payload["passed"] is not (rc == 0):
        raise CheckFailed(f"passed={payload['passed']} with exit code {rc}")
    return payload["passed"], max(payload["e0_error"], payload["e1_error"])


def _check_sweep(op: Op, path: str) -> Optional[float]:
    header = ("epsilon",) + SWEEP_QUANTITIES
    table, _ = _read_csv(path, header, SWEEP_STEPS, lossless=False)
    errors = table[:, header.index("e0_error"):header.index("e1_error") + 1]
    return float(np.max(errors))


def _check_states(op: Op, path: str) -> Optional[float]:
    table, _ = _read_csv(path, ("x", "V", "psi0", "psi1", "rho0"),
                         EXPORT_POINTS, lossless=True)
    x, v, psi0, psi1 = table[:, 0], table[:, 1], table[:, 2], table[:, 3]
    return max(_rayleigh_error(x, v, psi0, op.eps),
               _rayleigh_error(x, v, psi1, -1.0))


def _check_potential(op: Op, path: str) -> None:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    cols = json.loads(text)
    if list(cols) != ["x", "V"]:
        raise CheckFailed(f"columns {list(cols)}, expected ['x', 'V']")
    values = cols["x"] + cols["V"]
    if len(cols["x"]) != EXPORT_POINTS or len(cols["V"]) != EXPORT_POINTS:
        raise CheckFailed("column length differs from --points")
    if not all(isinstance(v, float) and math.isfinite(v) for v in values):
        raise CheckFailed("a non-finite or non-float value")
    _check_lossless(NUMBER.findall(text), values)


def _check_evolve(op: Op, path: str) -> None:
    _, comments = _read_csv(path, ("t", "P_left"), EVOLVE_FRAMES, lossless=True)
    periods = [c.split("=", 1)[1] for c in comments
               if c.startswith("analytic_period=")]
    if len(periods) != 1:
        raise CheckFailed("missing analytic_period footer")
    _check_lossless(periods, [float(periods[0])])


def check(op: Op, rc: Optional[int], path: str, size: int) -> Outcome:
    """Check one op's exit code and output file; never raises.

    ``rc`` is None when an exception escaped ``main``.  An op is ``ok`` only
    with exit code 0 and every check passed.  A non-zero exit code is the
    program's own verdict and stays ``consistent`` unless the output
    contradicts it (a ``verify`` report saying ``passed: true``).
    """
    if rc not in (0, 1, 2, 3, 4):
        return Outcome(False, False, None)
    if size == 0:
        # the CLI writes nothing when it exits on an error before emitting
        return Outcome(False, rc != 0, None)
    try:
        if op.kind == "verify":
            passed, e_error = _check_verify(op, path, rc)
            return Outcome(passed, True, e_error)
        if rc != 0:
            return Outcome(False, True, None)
        e_error = {"sweep": _check_sweep, "states": _check_states,
                   "potential": _check_potential,
                   "evolve": _check_evolve}[op.kind](op, path)
    except (ValueError, KeyError, TypeError):  # CheckFailed is a ValueError
        return Outcome(False, False, None)
    return Outcome(True, True, e_error)
