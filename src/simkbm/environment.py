"""Fields on the torus: bounded, continuously differentiable, periodic in x."""

from __future__ import annotations

import dataclasses

import numpy as np

ENV_KINDS = ("constant", "affine_in_t", "sinusoidal_in_x", "sinusoidal_plus_drift")


@dataclasses.dataclass(frozen=True)
class Environment:
    """Evaluable field f(t, x) with explicit W^{1,inf} bounds: y_opt, and N0, Z0 at t = 0.

    kinds:
      constant             f = offset
      affine_in_t          f = offset + rate * t
      sinusoidal_in_x      f = offset + amplitude * sin(2 pi k x / period)
      sinusoidal_plus_drift  the sinusoid plus rate * t
    """

    kind: str
    offset: float = 0.0
    amplitude: float = 0.0
    wavenumber: int = 1
    rate: float = 0.0
    period: float = 1.0

    def __post_init__(self):
        if self.kind not in ENV_KINDS:
            raise ValueError(f"unknown environment kind {self.kind!r}; choose from {ENV_KINDS}")
        if self.wavenumber < 1 or int(self.wavenumber) != self.wavenumber:
            raise ValueError("wavenumber must be a positive integer")
        if not self.period > 0:
            raise ValueError("period must be positive")

    def _has_wave(self) -> bool:
        return self.kind in ("sinusoidal_in_x", "sinusoidal_plus_drift")

    def _has_drift(self) -> bool:
        return self.kind in ("affine_in_t", "sinusoidal_plus_drift")

    @property
    def drift_rate(self) -> float:
        """df/dt: the rate of the drifting kinds, 0 for the others."""
        return self.rate if self._has_drift() else 0.0

    def evaluate(self, t: float, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.full_like(x, self.offset)
        if self._has_wave():
            out += self.amplitude * np.sin(2.0 * np.pi * self.wavenumber * x / self.period)
        if self._has_drift():
            out += self.rate * t
        return out

    def value_range(self, t_end: float):
        """Envelope of f over [0, t_end] x torus, used for trait truncation."""
        lo = hi = self.offset
        if self._has_wave():
            lo -= abs(self.amplitude)
            hi += abs(self.amplitude)
        if self._has_drift():
            lo += min(0.0, self.rate * t_end)
            hi += max(0.0, self.rate * t_end)
        return lo, hi
