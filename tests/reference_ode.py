"""Adaptive-ODE test oracle for both time steppers; the only code that imports scipy."""

import numpy as np

from simkbm import Environment


class HomogeneousReference:
    """Dense adaptive-ODE solution of the spatially homogeneous reduction.

    With no spatial structure the system collapses to
      dN/dt = (1 - (Z - y_opt)^2 / 2 - N) N,   dZ/dt = -A (Z - y_opt),
    which serves as an oracle for both time steppers.
    """

    def __init__(self, sol):
        self._sol = sol

    def evaluate(self, t):
        u = self._sol.sol(np.asarray(t, dtype=float))
        return u[0], u[1]


def homogeneous_reference(
    N0: float,
    Z0: float,
    env: Environment,
    A: float,
    t_end: float,
    rtol: float = 1e-11,
    atol: float = 1e-12,
) -> HomogeneousReference:
    if env.kind in ("sinusoidal_in_x", "sinusoidal_plus_drift"):
        raise ValueError("homogeneous reference needs an x-independent environment")
    if not (N0 > 0 and A > 0 and t_end > 0):
        raise ValueError("N0, A and t_end must be positive")
    from scipy.integrate import solve_ivp

    def rhs(t, u):
        n, z = u
        m = z - float(env.evaluate(t, np.zeros(1))[0])
        return [(1.0 - 0.5 * m * m - n) * n, -A * m]

    sol = solve_ivp(
        rhs,
        (0.0, t_end),
        [float(N0), float(Z0)],
        method="DOP853",
        dense_output=True,
        rtol=rtol,
        atol=atol,
    )
    if not sol.success:
        raise RuntimeError(f"reference ODE solve failed: {sol.message}")
    return HomogeneousReference(sol)
