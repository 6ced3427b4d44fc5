"""Uniform periodic spatial grids and truncated trait grids."""

from __future__ import annotations

import dataclasses

import numpy as np


@dataclasses.dataclass(frozen=True)
class TorusGrid:
    """Cell-centered uniform grid on the periodic interval [0, period).

    Cell centers sit at (i + 1/2) * spacing, so all centers lie strictly
    inside [0, period).
    """

    MIN_POINTS = 4
    points_per_dim: int
    period: float = 1.0

    def __post_init__(self):
        if self.points_per_dim < self.MIN_POINTS:
            raise ValueError(
                f"too few points per dimension: {self.points_per_dim} (need >= {self.MIN_POINTS})"
            )
        if not 0 < self.period < np.inf:
            raise ValueError(f"period must be positive and finite, got {self.period}")

    @property
    def spacing(self) -> float:
        return self.period / self.points_per_dim

    @property
    def centers(self) -> np.ndarray:
        return self.spacing * (np.arange(self.points_per_dim) + 0.5)

    def distance(self, a, b):
        """Shortest periodic distance, always <= period / 2."""
        d = np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float))
        d = d % self.period
        return np.minimum(d, self.period - d)


@dataclasses.dataclass(frozen=True)
class TraitGrid:
    """Cell-centered uniform grid on the truncated trait interval [y_min, y_max].

    Truncation is admissible when the interval extends at least 8 standard
    deviations beyond every profile it has to carry; mass escaping past the
    ends is monitored by the solvers, never renormalized away.
    """

    MIN_POINTS = 16
    y_min: float
    y_max: float
    points: int

    def __post_init__(self):
        if not -np.inf < self.y_min < self.y_max < np.inf:
            raise ValueError(
                f"trait bounds must be finite with y_min < y_max, got [{self.y_min}, {self.y_max}]"
            )
        if self.points < self.MIN_POINTS:
            raise ValueError(f"too few trait points: {self.points} (need >= {self.MIN_POINTS})")

    @property
    def spacing(self) -> float:
        return (self.y_max - self.y_min) / self.points

    @property
    def centers(self) -> np.ndarray:
        return self.y_min + self.spacing * (np.arange(self.points) + 0.5)

    @property
    def edges(self) -> np.ndarray:
        return self.y_min + self.spacing * np.arange(self.points + 1)
