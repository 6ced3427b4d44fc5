"""Fields on the torus: bounded, continuously differentiable, periodic in x."""

from __future__ import annotations

import dataclasses

import numpy as np

# The document keys of each kind, in parse order.  "value" is the offset of
# the kinds without a wave; every other key names the coefficient it sets.
KIND_KEYS = {
    "constant": ("value",),
    "affine_in_t": ("value", "rate"),
    "sinusoidal_in_x": ("offset", "amplitude", "wavenumber"),
    "sinusoidal_plus_drift": ("offset", "amplitude", "wavenumber", "rate"),
}
ENV_KINDS = tuple(KIND_KEYS)
# The coefficients that only some kinds read.
_OPTIONAL = ("amplitude", "wavenumber", "rate")


@dataclasses.dataclass(frozen=True)
class Environment:
    """Evaluable field f(t, x) with explicit W^{1,inf} bounds: y_opt, and N0, Z0 at t = 0.

    kinds:
      constant             f = offset
      affine_in_t          f = offset + rate * t
      sinusoidal_in_x      f = offset + amplitude * sin(2 pi k x / period)
      sinusoidal_plus_drift  the sinusoid plus rate * t

    Every number must be finite, and a coefficient that the kind never reads
    must keep its default.
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
        if not 1 <= self.wavenumber < np.inf or int(self.wavenumber) != self.wavenumber:
            raise ValueError("wavenumber must be a positive integer")
        if not self.period > 0:
            raise ValueError("period must be positive")
        unread = set(_OPTIONAL) - set(KIND_KEYS[self.kind])
        for field in dataclasses.fields(self)[1:]:  # the numbers after kind
            value = getattr(self, field.name)
            if not np.isfinite(value):
                raise ValueError(f"{field.name} must be finite, got {value!r}")
            if field.name in unread and value != field.default:
                raise ValueError(f"a {self.kind} field reads no {field.name}, got {value!r}")

    def _has_wave(self) -> bool:
        return "amplitude" in KIND_KEYS[self.kind]

    def _has_drift(self) -> bool:
        return "rate" in KIND_KEYS[self.kind]

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
