"""Uniform symmetric grids and finite-difference helpers.

Everything downstream (closed-form states, the tridiagonal eigensolver, the
grid checks of the states) works on a single uniform mesh on [-x_max, x_max]:
the wells are even in x, so a grid is fixed by its half-width and node count.
A sampled function is a plain float array on the grid's nodes.  The package
integrates none: the states' norms and half-line overlap are closed forms,
which a trapezoid sum meets only to O(h^2) at the half-line cut x = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

class GridTooNarrow(ValueError):
    """The grid does not reach far enough into the decay tails."""


class GridTooCoarse(ValueError):
    """The grid spacing is too large to resolve the bound states."""


@dataclass(frozen=True)
class Grid:
    """Uniform mesh on [-x_max, x_max] with an odd number of nodes.

    n_points must be odd so that x = 0 is a node (needed for the
    left/right-well split and the central-curvature checks).
    """

    x_max: float
    n_points: int

    def __post_init__(self):
        if not (np.isfinite(self.x_max) and self.x_max > 0):
            raise ValueError("x_max must be finite and positive")
        if self.n_points < 3 or self.n_points % 2 == 0:
            raise ValueError("n_points must be odd and >= 3")
        h2 = self.h * self.h
        if not 0.0 < h2 < np.inf:
            size = "large: h^2 overflows" if h2 else "small: h^2 underflows"
            raise ValueError(f"grid spacing h = {self.h!r} is too {size}")

    @classmethod
    def default(cls) -> "Grid":
        return cls(20.0, 4001)

    @property
    def h(self) -> float:
        return 2.0 * self.x_max / (self.n_points - 1)

    @cached_property
    def x(self) -> np.ndarray:
        """The nodes, built by ``mirror``: x[i] == -x[n-1-i] exactly, which
        plain linspace is not."""
        return mirror(np.linspace(0.0, self.x_max, self.n_points // 2 + 1), 1)

    @property
    def center_index(self) -> int:
        return self.n_points // 2


def mirror(half: np.ndarray, parity: int) -> np.ndarray:
    """An even (parity 0) or odd (1) field on the whole grid from its x >= 0 half."""
    return np.concatenate((-half[:0:-1] if parity else half[:0:-1], half))


def interior(grid: Grid, edge: int, caller: str) -> slice:
    """The nodes left after dropping ``edge`` at each end; raises if none are."""
    if grid.n_points <= 2 * edge:
        raise ValueError(f"{caller} needs a grid of at least {2 * edge + 1} "
                         f"points, got {grid.n_points}")
    return slice(edge, -edge)


def first_derivative(samples: np.ndarray, h: float) -> np.ndarray:
    """d/dx of sampled data: 4th-order central interior, 2nd-order edges."""
    f = np.asarray(samples, dtype=float)
    g = np.empty_like(f)
    g[2:-2] = (f[:-4] - 8 * f[1:-3] + 8 * f[3:-1] - f[4:]) / (12 * h)
    g[1] = (f[2] - f[0]) / (2 * h)
    g[-2] = (f[-1] - f[-3]) / (2 * h)
    g[0] = (-3 * f[0] + 4 * f[1] - f[2]) / (2 * h)
    g[-1] = (3 * f[-1] - 4 * f[-2] + f[-3]) / (2 * h)
    return g
