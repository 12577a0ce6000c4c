"""Two-level inter-well dynamics of the equal-weight superposition.

The superposition (psi0 e^{-i eps t} + psi1 e^{i t}) / sqrt(2) lives entirely
in the two-level subspace, so time evolution is an exact phase rotation of
the two closed-form eigenstates; no PDE time stepping is involved.  The
density cross term rotates at the gap frequency |1 + eps|, making the
probability in the left half-line oscillate sinusoidally with period
2 pi / |1 + eps|.  Its weights are closed forms too, so evolve_series costs
one cosine per frame and reads no sample of the states: the same series on
every grid that holds them.  The series holds the samples only;
``analytic_period`` gives the period of any eps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grids import linspace
from .transform import Partner, _epsilon


@dataclass(frozen=True)
class OscillationSeries:
    times: np.ndarray = field(repr=False)
    left_probability: np.ndarray = field(repr=False)


def analytic_period(eps: float) -> float:
    """Oscillation period 2 pi / |1 + eps| of the two-level beat."""
    return 2.0 * np.pi / abs(1.0 + _epsilon(eps))


def evolve_series(partner: Partner, t_max: float, n_frames: int) -> OscillationSeries:
    """Sample the left-well probability at n_frames uniform times in [0, t_max].

    t_max must be finite and positive, and n_frames from 2 to
    ``grids.MAX_SAMPLES``, or it is a ValueError; GridTooNarrow or
    GridTooCoarse, from ``partner.check_grid``, unless the grid holds both
    states.

    The density is (psi0^2 + psi1^2)/2 + psi0 psi1 cos((1 + eps) t), so
    P_left(t) = 1/2 + L01 cos((1 + eps) t): each state is even or odd with
    unit norm, half of it at x <= 0, and their overlap there is L01 =
    -|eps|^(-1/4) / 2 (Cooper, Khare and Sukhatme, Phys. Rep. 251, 1995).
    At most 1/2 + |eps|^(-1/4) / 2 of the probability is ever in one well.
    """
    eps_val = partner.epsilon
    if n_frames < 2:
        raise ValueError("n_frames must be at least 2")
    t_max = float(t_max)
    # the phase (1 + eps) t must stay finite too, or cos() turns it into NaN
    if not (t_max > 0.0 and np.isfinite((1.0 + eps_val) * t_max)):
        raise ValueError(f"t_max must be finite and positive, as must (1 + eps) t_max "
                         f"be finite; got {t_max}")
    partner.check_grid()
    times = linspace(0.0, t_max, int(n_frames))
    left = 0.5 - np.cos((1.0 + eps_val) * times) / (2.0 * (-eps_val) ** 0.25)
    return OscillationSeries(times=times, left_probability=left)
