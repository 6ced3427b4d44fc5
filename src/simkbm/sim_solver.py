"""Operator-splitting time integration of the kinetic trait-space population model.

Each step advances the density n(t, x, y) by Lie splitting in the order
  (D) spatial diffusion, Crank-Nicolson per trait slice,
  (R) selection-competition reaction, multiplicative exponential update,
  (B) reproduction relaxation toward N * T(profile), integrated exactly
      with the mixing output frozen at the substep start.
(R) is unconditionally positive, (B) is unconditionally stable in gamma.
The optimal trait is s(x) + rate * t (rate 0 for the kinds without drift),
so the factor exp(-dt/2 (y - s(x))^2) of (R) is the same at every step and
is built once per run.  (R) and (B) update the density array that (D)
returns in place.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .diffusion import PeriodicHeatCN
from .environment import Environment
from .grids import TorusGrid, TraitGrid
from .infinitesimal import ReproductionKernel, resolution_problem
from .measures import gaussian_rows, warn_near_ends

N_FLOOR = 1e-12
INIT_MARGIN_SIGMAS = 4.0
_NEGATIVITY_REL_TOL = 1e-13


def floor_problem(min_N) -> str | None:
    """Why a least population size min_N breaks the floor N_FLOOR (a NaN breaks it
    too), or None when it holds.  Every column size of both models must keep it."""
    if not min_N >= N_FLOOR:
        return f"population size {min_N:.6g} is below the floor {N_FLOOR:g}"


def margin_problem(z_lo: float, z_hi: float, V0: float, trait: TraitGrid) -> str | None:
    """Why initial mean traits in [z_lo, z_hi] come closer than INIT_MARGIN_SIGMAS
    sqrt(V0) to an end of the trait grid (a NaN does too), or None when they do not."""
    margin, sigma = min(z_lo - trait.y_min, trait.y_max - z_hi), math.sqrt(V0)
    if not margin >= INIT_MARGIN_SIGMAS * sigma:
        return (
            f"the initial mean trait Z0 comes within {margin / sigma:.3f} standard deviations "
            f"(sqrt(V0)) of the trait boundary, where {INIT_MARGIN_SIGMAS:g} are needed"
        )


class SimulationError(RuntimeError):
    """Invariant violation during time stepping; carries a diagnostic report."""

    def __init__(self, message: str, report: dict | None = None):
        super().__init__(message)
        self.report = report or {}


@dataclasses.dataclass(frozen=True)
class SimParams:
    A: float
    gamma: float
    dt: float
    snapshot_dt: float

    def __post_init__(self):
        for name in ("A", "gamma", "dt", "snapshot_dt"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")


@dataclasses.dataclass
class KineticState:
    """Full density on (spatial cells x trait cells) at one time."""

    t: float
    n: np.ndarray
    space: TorusGrid
    trait: TraitGrid

    def __post_init__(self):
        n = np.asarray(self.n, dtype=float)
        expected = (self.space.points_per_dim, self.trait.points)
        if n.shape != expected:
            raise ValueError(f"density shape {n.shape} does not match grids {expected}")
        self.n = n


@dataclasses.dataclass
class KineticMoments:
    N: np.ndarray
    Z: np.ndarray
    V: np.ndarray


@dataclasses.dataclass
class RunDiagnostics:
    """Per-run scheme health collected while stepping."""

    max_diffusion_mass_error: float = 0.0
    max_boundary_leak_rate: float = 0.0
    min_density_seen: float = math.inf
    positivity_clips: int = 0


def _column_sizes(n: np.ndarray, h_y: float, t: float) -> np.ndarray:
    """Column sizes N of a density at time t, for kinetic_moments and the R and B
    substeps alike; a size below the floor raises SimulationError."""
    N = n.sum(axis=1) * h_y
    if problem := floor_problem(N.min()):
        raise SimulationError(problem, {"t": t, "min_N": float(N.min()), "floor": N_FLOOR})
    return N


def kinetic_moments(state: KineticState) -> KineticMoments:
    """Population size, mean trait and raw fourth moment of the per-column profile."""
    h = state.trait.spacing
    y = state.trait.centers
    N = _column_sizes(state.n, h, state.t)
    Z = (state.n @ y) * h / N
    V = (state.n @ y**4) * h / N
    return KineticMoments(N=N, Z=Z, V=V)


def gaussian_initial_state(
    space: TorusGrid,
    trait: TraitGrid,
    N0: np.ndarray,
    Z0: np.ndarray,
    V0: float,
) -> KineticState:
    """Columns N0(x) * Gaussian(V0, centered at Z0(x)) sampled on the grids, at t = 0."""
    N0 = np.asarray(N0, dtype=float)
    Z0 = np.asarray(Z0, dtype=float)
    if not V0 > 0:
        raise ValueError(f"initial trait variance must be positive, got {V0}")
    if problem := floor_problem(N0.min()) or margin_problem(Z0.min(), Z0.max(), V0, trait):
        raise ValueError(problem)
    if problem := resolution_problem(V0, trait):
        raise ValueError(problem)
    warn_near_ends(Z0, V0, trait)
    return KineticState(0.0, N0[:, None] * gaussian_rows(Z0, V0, trait), space, trait)


def init_state(config) -> KineticState:
    """Initial kinetic state from a run configuration (see config.RunConfig),
    unchecked against the references of gauss_dev (see gaussian_deviation)."""
    space = config.space_grid()
    trait = config.trait_grid()
    x = space.centers
    return gaussian_initial_state(
        space, trait, config.n0.evaluate(0.0, x), config.z0.evaluate(0.0, x), config.v0
    )


def max_stable_dt(
    A: float, trait: TraitGrid, env: Environment, n0_max: float, t_end: float
) -> float:
    """Accuracy bound dt <= min(0.1, 1/(4 sup|r|)) for the reaction exponent.

    sup|r| is estimated from the trait-grid extent and the comparison-principle
    bound on N; gamma never constrains dt (the relaxation substep is exact).
    """
    lo, hi = env.value_range(t_end)
    dev = max(trait.y_max - lo, hi - trait.y_min)
    n_bound = max(1.0 + 0.5 * A, n0_max)
    r_sup = 1.0 + 0.5 * A + 0.5 * dev**2 + n_bound
    return min(0.1, 1.0 / (4.0 * r_sup))


class _Operators:
    """All the substeps read, built once per run: dt, the diffusion solver, kernel,
    relaxation weight, growth rate 1 + A/2, trait spacing and centers, and the
    selection factor exp(-dt/2 (y_j - s_i)^2) with s = y_opt(0, x)."""

    def __init__(self, space: TorusGrid, trait: TraitGrid, params: SimParams, env: Environment):
        self.dt = params.dt
        self.heat = PeriodicHeatCN(space.points_per_dim, space.spacing, params.dt)
        self.kernel = ReproductionKernel(params.A, trait)
        self.decay = math.exp(-params.gamma * params.dt)
        self.growth = 1.0 + 0.5 * params.A
        self.h_y = trait.spacing
        self.y = trait.centers
        self.optimum = env.evaluate(0.0, space.centers)
        self.drift = env.drift_rate
        self.selection = np.exp(-0.5 * params.dt * (self.y[None, :] - self.optimum[:, None]) ** 2)


def _guard_density(n: np.ndarray, stage: str, t: float, diag: RunDiagnostics):
    # NaN propagates through min and max, and an infinity is one of them.
    nmin = float(n.min())
    nmax = float(n.max())
    if not (math.isfinite(nmin) and math.isfinite(nmax)):
        raise SimulationError(f"non-finite density after {stage} substep", {"t": t})
    diag.min_density_seen = min(diag.min_density_seen, nmin)
    if nmin < 0.0:
        scale = max(-nmin, nmax)
        if nmin < -_NEGATIVITY_REL_TOL * scale:
            raise SimulationError(
                f"negative density after {stage} substep",
                {"t": t, "min": nmin, "scale": scale},
            )
        # Solver roundoff at the level of machine noise: clamp, keep count.
        np.clip(n, 0.0, None, out=n)
        diag.positivity_clips += 1
    return n


def _diffusion_substep(n, ops, t, diag):
    """(D) heat flow of every trait slice along x into a new array; conserves mass."""
    mass_before = n.sum()
    out = ops.heat.step(n)
    if mass_before > 0:
        err = abs(out.sum() - mass_before) / mass_before
        diag.max_diffusion_mass_error = max(diag.max_diffusion_mass_error, err)
    return _guard_density(out, "diffusion", t, diag)


def _reaction_substep(n, ops, t, diag):
    """(R) selection-competition: n * exp(dt * r) in place, positive by construction.

    r = 1 + A/2 - N_i - (y_j - y_opt_i)^2 / 2 with the optimal trait
    y_opt = s + tau read at the substep midpoint, tau = rate * (t + dt/2), and
    the competition pressure N frozen at the substep start.  Expanding the
    square splits exp(dt * r) into the run-constant ops.selection, a factor
    per column, exp(dt (1 + A/2 - N_i - tau s_i - tau^2/2)), and a factor per
    trait, exp(dt tau y_j), which is exactly 1 when the rate is 0.
    """
    dt = ops.dt
    N = _column_sizes(n, ops.h_y, t)
    tau = ops.drift * (t + 0.5 * dt)
    n *= ops.selection
    n *= np.exp(dt * (ops.growth - N - tau * ops.optimum - 0.5 * tau**2))[:, None]
    n *= np.exp(dt * tau * ops.y)
    return _guard_density(n, "reaction", t, diag)


def _reproduction_substep(n, ops, t, diag):
    """(B) exact relaxation toward N * T(profile) with the mixing output frozen.

    Both terms of the convex combination carry column mass N, so the substep
    is mass-neutral per column up to the trait-boundary leak, which is
    monitored here rather than redistributed.  n is overwritten with the result.
    """
    N = _column_sizes(n, ops.h_y, t)
    mixed = ops.kernel.apply_to_profiles(n / N[:, None])
    leak = np.abs(1.0 - mixed.sum(axis=1) * ops.h_y).max()
    rate = (1.0 - ops.decay) * leak / ops.dt
    diag.max_boundary_leak_rate = max(diag.max_boundary_leak_rate, float(rate))
    mixed *= ((1.0 - ops.decay) * N)[:, None]
    n *= ops.decay
    n += mixed
    return _guard_density(n, "reproduction", t, diag)


def sim_step(n: np.ndarray, ops: _Operators, t: float, diag: RunDiagnostics) -> np.ndarray:
    """One Lie-split step D -> R -> B of length ops.dt from time t.  n is left
    unchanged: D writes a new array, which R and B update in place."""
    n = _diffusion_substep(n, ops, t, diag)
    n = _reaction_substep(n, ops, t, diag)
    return _reproduction_substep(n, ops, t, diag)


@dataclasses.dataclass
class KineticTrajectory:
    """Snapshots at the configured cadence plus per-snapshot moment fields."""

    times: np.ndarray
    snapshots: list
    N: np.ndarray
    Z: np.ndarray
    V: np.ndarray


def _whole_steps(span: float, dt: float, name: str) -> int:
    """span / dt, which must be a whole number up to roundoff (and so finite)."""
    ratio = span / dt
    if not (math.isfinite(ratio) and abs(span - round(ratio) * dt) <= 1e-9 * max(1.0, dt)):
        raise ValueError(f"{name} must be an integer multiple of dt")
    return round(ratio)


def plan_steps(t0: float, t_end: float, dt: float, snapshot_dt: float) -> tuple:
    """Step count and snapshot cadence (in steps) of a run from t0 to t_end, the package's
    one whole-steps rule: each is a whole number of steps, the cadence at least one and
    dividing the horizon, so snapshots are evenly spaced from t0 through t_end (or t0 alone)."""
    if t_end < t0 - 1e-12:
        raise ValueError("t_end lies before the initial time")
    n_steps = _whole_steps(t_end - t0, dt, "t_end - t0")
    if not n_steps and t_end - t0 > 1e-9 * max(abs(t0), abs(t_end)):
        raise ValueError("t_end - t0 is shorter than one step of dt")
    every = _whole_steps(snapshot_dt, dt, "snapshot_dt")
    if not every or n_steps % every:
        raise ValueError(f"the cadence ({every} steps) must be >= 1 and divide {n_steps} steps")
    return n_steps, every


def sim_snapshots(
    state0: KineticState,
    params: SimParams,
    env: Environment,
    t_end: float,
    diag: RunDiagnostics,
):
    """Repeated sim_step from state0, yielding a KineticState at t0 and at each
    snapshot as it is made; aborts on invariant violation.

    The density is stepped as a bare array, and each snapshot wraps its
    step's array, which no later step writes to.  diag is updated in place,
    so at each yield its max_boundary_leak_rate is the running leak mark."""
    t0, dt = state0.t, params.dt
    n_steps, every = plan_steps(t0, t_end, dt, params.snapshot_dt)
    ops = _Operators(state0.space, state0.trait, params, env)
    n = state0.n.copy()
    yield KineticState(t0, n, state0.space, state0.trait)
    for k in range(1, n_steps + 1):
        n = sim_step(n, ops, t0 + (k - 1) * dt, diag)
        if k % every == 0:
            yield KineticState(t0 + k * dt, n, state0.space, state0.trait)


def run_sim(
    state0: KineticState,
    params: SimParams,
    env: Environment,
    t_end: float,
) -> KineticTrajectory:
    """Every snapshot of sim_snapshots, kept, with its moments.  No command
    runs it (see experiments.reduced_snapshots): it is the tests' collected
    reference and the benchmark tracer's retained-bytes hook."""
    snapshots = list(sim_snapshots(state0, params, env, t_end, RunDiagnostics()))
    moms = [kinetic_moments(s) for s in snapshots]
    return KineticTrajectory(
        times=np.array([s.t for s in snapshots]),
        snapshots=snapshots,
        N=np.stack([m.N for m in moms]),
        Z=np.stack([m.Z for m in moms]),
        V=np.stack([m.V for m in moms]),
    )
