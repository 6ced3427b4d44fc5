"""Macroscopic reaction-diffusion integrator in the (N, Y = N Z) variables.

Writing the mean-trait equation through Y = N Z moves the awkward
2 grad N . grad Z / N coupling into zeroth-order reaction terms, so one
Crank-Nicolson diffusion substep (one product of the circulant step matrix
with the (points, 2) pair) plus an explicit two-stage (Heun) reaction
substep advances the system; Z is recovered as Y / N afterwards.

The stepper carries the state as one (2, points) array U = (N, Y) from the
validated initial MacroState to the last step.  The optimal trait is
evaluated once per run, at t = 0, and shifted by its drift to each time
level t0 + k dt: the Heun stage-2 field of step k is the stage-1 field of
step k + 1.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .diffusion import PeriodicHeatCN
from .environment import Environment
from .grids import TorusGrid
from .sim_solver import N_FLOOR, SimulationError, floor_problem, plan_steps


@dataclasses.dataclass
class MacroState:
    """Fields N(t, .) and Y = N Z on the spatial grid."""

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
        if problem := floor_problem(self.N.min()):
            raise ValueError(problem)


def init_macro(config) -> MacroState:
    """Initial macroscopic state from a run configuration: N0 and Y0 = N0 Z0."""
    space = config.space_grid()
    x = space.centers
    n0 = config.n0.evaluate(0.0, x)
    return MacroState(0.0, n0, n0 * config.z0.evaluate(0.0, x), space)


def _reaction(U, y_opt, A):
    N, Y = U
    mismatch = Y / N - y_opt
    growth = 1.0 - 0.5 * mismatch**2 - N
    dU = growth * U
    dU[1] -= A * (Y - y_opt * N)
    return dU


def _check(U, stage, t):
    if not np.isfinite(U).all():
        raise SimulationError(
            f"non-finite macroscopic fields after {stage}", {"t": t, "stage": stage}
        )
    min_N = U[0].min()
    if problem := floor_problem(min_N):
        raise SimulationError(
            f"{problem} after {stage}",
            {"t": t, "stage": stage, "min_N": float(min_N), "floor": N_FLOOR},
        )


def kbm_step(
    U: np.ndarray,
    t: float,
    y_now: np.ndarray,
    y_next: np.ndarray,
    A: float,
    dt: float,
    heat: PeriodicHeatCN,
) -> np.ndarray:
    """One Lie-split step of U = (N, Y) from t: Crank-Nicolson diffusion, then Heun.

    y_now and y_next are the optimal-trait fields at t and t + dt.
    """
    U = heat.step(U.T).T
    _check(U, "diffusion", t)
    dU1 = _reaction(U, y_now, A)
    U1 = U + dt * dU1
    _check(U1, "heun stage 1", t)
    dU2 = _reaction(U1, y_next, A)
    U2 = U + 0.5 * dt * (dU1 + dU2)
    _check(U2, "heun stage 2", t)
    return U2


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
    x = state0.space.centers
    U = np.stack((state0.N, state0.Y))
    times = state0.t + np.arange(0, n_steps + 1, every) * dt
    N = np.empty((len(times), len(x)))
    Y = np.empty_like(N)
    N[0], Y[0] = U
    # y_opt(t, x) = y_opt(0, x) + drift_rate * t, the same bits as evaluate(t, x).
    base = env.evaluate(0.0, x)
    drift = env.drift_rate
    t = state0.t
    y_now = base + drift * t if drift else base
    for k in range(1, n_steps + 1):
        t_next = state0.t + k * dt
        y_next = base + drift * t_next if drift else base
        U = kbm_step(U, t, y_now, y_next, A, dt, heat)
        t, y_now = t_next, y_next
        if k % every == 0:
            N[k // every], Y[k // every] = U

    return MacroTrajectory(times=times, N=N, Y=Y)
