"""Two-level inter-well dynamics of the equal-weight superposition.

The superposition (psi0 e^{-i eps t} + psi1 e^{i t}) / sqrt(2) lives entirely
in the two-level subspace, so time evolution is an exact phase rotation of
the two closed-form eigenstates; no PDE time stepping is involved.  The
density cross term rotates at the gap frequency |1 + eps|, making the
probability in the left half-line oscillate sinusoidally with period
2 pi / |1 + eps|.

evolve_series uses that closed form on the two states of one
``transform.Partner``: three trapezoid integrals over x <= 0, then one cosine
per frame, so a series costs O(n + frames).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .transform import Partner, _epsilon


@dataclass(frozen=True)
class OscillationSeries:
    epsilon: float
    times: np.ndarray = field(repr=False)
    left_probability: np.ndarray = field(repr=False)
    analytic_period: float


def analytic_period(eps: float) -> float:
    """Oscillation period 2 pi / |1 + eps| of the two-level beat."""
    return 2.0 * np.pi / abs(1.0 + _epsilon(eps))


def evolve_series(partner: Partner, t_max: float, n_frames: int) -> OscillationSeries:
    """Sample the left-well probability at n_frames uniform times in [0, t_max].

    The density is (psi0^2 + psi1^2)/2 + psi0 psi1 cos((1 + eps) t), so
    P_left(t) = (L00 + L11)/2 + L01 cos((1 + eps) t) with L_ab the trapezoid
    integral of psi_a psi_b over x <= 0.
    """
    grid, eps_val = partner.grid, partner.epsilon
    if n_frames < 2:
        raise ValueError("n_frames must be at least 2")
    if not np.isfinite(t_max):
        raise ValueError(f"t_max must be finite, got {t_max}")
    times = np.linspace(0.0, float(t_max), int(n_frames))
    mid = grid.center_index
    psi0 = partner.psi0.samples[: mid + 1]
    psi1 = partner.psi1.samples[: mid + 1]
    l00, l11, l01 = (
        np.trapezoid(a * b, dx=grid.h)
        for a, b in ((psi0, psi0), (psi1, psi1), (psi0, psi1))
    )
    left = 0.5 * (l00 + l11) + l01 * np.cos((1.0 + eps_val) * times)
    return OscillationSeries(
        epsilon=eps_val,
        times=times,
        left_probability=left,
        analytic_period=analytic_period(eps_val),
    )
