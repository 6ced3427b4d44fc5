"""Macroscopic reaction-diffusion integrator in the (N, Y = N Z) variables.

Writing the mean-trait equation through Y = N Z moves the awkward
2 grad N . grad Z / N coupling into zeroth-order reaction terms, so one
Crank-Nicolson diffusion substep plus an explicit two-stage (Heun) reaction
substep advances the system; Z is recovered as Y / N afterwards.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .diffusion import PeriodicHeatCN
from .environment import Environment
from .grids import TorusGrid
from .sim_solver import N_FLOOR, SimulationError, plan_steps


@dataclasses.dataclass
class MacroState:
    """Fields N(t, .) and Y = N Z on the spatial grid; Z is derived output."""

    t: float
    N: np.ndarray
    Y: np.ndarray
    space: TorusGrid

    def __post_init__(self):
        self.N = np.asarray(self.N, dtype=float)
        self.Y = np.asarray(self.Y, dtype=float)
        m = self.space.points_per_dim
        if self.N.shape != (m,) or self.Y.shape != (m,):
            raise ValueError("field shapes do not match the spatial grid")
        if not (np.all(np.isfinite(self.N)) and np.all(np.isfinite(self.Y))):
            raise ValueError("fields contain non-finite entries")
        if self.N.min() <= 0:
            raise ValueError("N must be positive everywhere to recover Z = Y / N")

    @property
    def Z(self) -> np.ndarray:
        return self.Y / self.N

    def copy(self) -> "MacroState":
        return MacroState(self.t, self.N.copy(), self.Y.copy(), self.space)


def _reaction(N, Y, y_opt, A):
    mismatch = Y / N - y_opt
    growth = 1.0 - 0.5 * mismatch**2 - N
    return growth * N, growth * Y - A * (Y - y_opt * N)


def _check_floor(N, t):
    if not np.all(np.isfinite(N)):
        raise SimulationError("non-finite macroscopic fields", {"t": t})
    if N.min() < N_FLOOR:
        raise SimulationError(
            "population size fell below the floor",
            {"t": t, "min_N": float(N.min()), "floor": N_FLOOR},
        )


def kbm_step(
    state: MacroState,
    env: Environment,
    A: float,
    dt: float,
    heat: PeriodicHeatCN,
) -> MacroState:
    """One Lie-split step: Crank-Nicolson diffusion, then a Heun reaction stage."""
    t = state.t
    x = state.space.centers

    fields = heat.step(np.stack((state.N, state.Y), axis=1))
    N, Y = fields[:, 0], fields[:, 1]
    _check_floor(N, t)

    dN1, dY1 = _reaction(N, Y, env.evaluate(t, x), A)
    N1 = N + dt * dN1
    Y1 = Y + dt * dY1
    _check_floor(N1, t)
    dN2, dY2 = _reaction(N1, Y1, env.evaluate(t + dt, x), A)
    N2 = N + 0.5 * dt * (dN1 + dN2)
    Y2 = Y + 0.5 * dt * (dY1 + dY2)
    _check_floor(N2, t)

    return MacroState(t + dt, N2, Y2, state.space)


@dataclasses.dataclass
class MacroTrajectory:
    """Snapshot times and the stacked N and Y fields, one row per snapshot."""

    times: np.ndarray
    N: np.ndarray
    Y: np.ndarray

    @property
    def Z(self) -> np.ndarray:
        return self.Y / self.N


def run_kbm(
    state0: MacroState,
    env: Environment,
    A: float,
    dt: float,
    t_end: float,
    snapshot_dt: float,
) -> MacroTrajectory:
    """Repeated kbm_step with snapshots at the configured cadence."""
    n_steps, every = plan_steps(state0.t, t_end, dt, snapshot_dt)
    heat = PeriodicHeatCN(state0.space.points_per_dim, state0.space.spacing, dt)
    state = state0.copy()
    times, N, Y = [state.t], [state.N], [state.Y]
    for k in range(1, n_steps + 1):
        state = kbm_step(state, env, A, dt, heat)
        state.t = state0.t + k * dt
        if k % every == 0:
            times.append(state.t)
            N.append(state.N)
            Y.append(state.Y)

    return MacroTrajectory(times=np.array(times), N=np.stack(N), Y=np.stack(Y))


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
    if env.space_slope_bound() != 0.0:
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
