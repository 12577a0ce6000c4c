"""Host-speed calibration: a fixed kernel timed between ops, and a fixed
interpreter start timed before each set-up.

On a shared host the same op runs at very different speeds for stretches of
tens of seconds (a ``verify`` op took about 60 ms in one stretch and about
100 ms in the next), which no run length averages away.  The runner
therefore times this kernel between ops, outside the timed region, and
scales each op's wall time by ``NOMINAL_S / kernel time`` around it: the op
time the reference host would have seen at its usual speed.  A change to
the package moves the op times and not the kernel's.

The kernel does the kinds of work the shallowdw ops do, in fixed amounts
and with none of the package's code: a pure-Python scalar recurrence over a
list of floats (the Sturm count's loop), shortest-repr float formatting and
joining (CSV and JSON emission) and small numpy vector arithmetic (grids and
dynamics).  It reads and writes no file.
"""

from __future__ import annotations

import time
from typing import List, Sequence

import numpy as np

# A typical kernel time on the reference host, a 2-vCPU virtual machine
# (Python 3.11, numpy 2, BLAS pinned to one thread).
NOMINAL_S = 0.0030
# Kernel time taken between two ops, as a share of the op before: enough
# samples to see how the speed changed over a long op, and one sample
# between short ops.
SHARE = 0.05
# An op's speed factor comes from the calibrations between it and the
# WINDOW - 1 ops on either side.
WINDOW = 3
# Share of the slowest samples in a window that are dropped: a kernel run
# that an interrupt or a descheduling stretched says little about the speed.
TRIM = 0.1

# Set-up (a fresh interpreter importing the package) is mostly process start
# and imports, which the kernel does not track.  Its reference is a fresh
# interpreter that imports numpy only, run before each set-up; this is a
# typical time of it on the reference host.  The child prints the system-wide
# monotonic clock when done, so interpreter shutdown is not counted.
STARTUP_NOMINAL_S = 0.15
STARTUP_CODE = ("import time, numpy; "
                "print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))")

_GRID = np.linspace(-1.0, 3.0, 2001)
_SHIFTS = (0.15, 0.35, 0.55, 0.75)
_VALUES = np.linspace(-3.0, 3.0, 1500) * np.pi
_VEC = np.linspace(0.0, 1.0, 4001)


def kernel() -> float:
    """One fixed unit of work; returns a value so nothing is skipped."""
    count = 0
    for shift in _SHIFTS:
        diag = (_GRID - shift).tolist()
        q = diag[0]
        for d in diag[1:]:
            q = d - 0.25 / q
            if abs(q) < 1e-290:
                q = -1e-290
            if q < 0.0:
                count += 1
    text = ",".join(map(repr, _VALUES.tolist()))
    a = _VEC
    for _ in range(40):
        a = np.sqrt(a * a + 1.0) - 0.5
    return count + len(text) + float(a[-1])


def sample(op_seconds: float) -> List[float]:
    """Kernel times for one gap between ops: at least one run, and runs
    until they add up to SHARE of ``op_seconds``."""
    times: List[float] = []
    while not times or sum(times) < SHARE * op_seconds:
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return times


def speed_factors(gaps: Sequence[List[float]], n_ops: int) -> List[float]:
    """Per-op factors NOMINAL_S / (kernel time around the op).

    ``gaps`` holds the kernel times taken before each op and after the last
    one: ``n_ops + 1`` lists, so op ``i`` lies between gaps ``i`` and
    ``i + 1``.  The kernel time around an op is the mean of the samples in
    the gaps of its window, without the slowest TRIM share of them.  The host's speed can
    switch many times during a long op, and the op's time follows the mean
    speed, not the most common one.
    """
    if len(gaps) != n_ops + 1:
        raise ValueError(f"{len(gaps)} calibration gaps for {n_ops} ops")
    factors = []
    for i in range(n_ops):
        window = sorted(t for gap in gaps[max(0, i - WINDOW + 1):i + WINDOW + 1]
                        for t in gap)
        kept = window[:len(window) - int(TRIM * len(window))]
        factors.append(NOMINAL_S * len(kept) / sum(kept))
    return factors
