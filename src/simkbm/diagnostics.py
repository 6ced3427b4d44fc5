"""Computable analogues of the macroscopic-limit estimates.

Covers the Wasserstein deviation of the trait profile from the local
Gaussian, the residuals the moment fields leave in the macroscopic system,
space-time Hoelder quotients, and power-law fits of error-versus-gamma data.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .environment import Environment
from .grids import TorusGrid
from .measures import batch_rows, gaussian_rows, unit_mass, warn_near_ends, wasserstein_rows
from .sim_solver import KineticState, SimulationError, floor_problem


@dataclasses.dataclass
class SweepReport:
    """Aggregated gamma-sweep errors with fitted decay exponents per family."""

    gammas: list
    errors: dict
    theta_hat: dict
    c_hat: dict
    r2: dict


def gaussian_deviation(state: KineticState, A: float, N: np.ndarray, Z: np.ndarray) -> float:
    """max over x of W2(profile(x, .), Gaussian of variance A centered at Z(x)).

    For exactly Gaussian columns this sits at the discretization floor
    (below 2 trait spacings); for a kinetic run it tracks how far the
    profile is from local equilibrium.  N and Z are the state's column
    sizes and mean traits, as kinetic_moments gives them.

    The columns are taken measures.batch_rows(trait points) at a time, which
    bounds the profile and target arrays (a 64 x 512 snapshot peaks at
    0.69 MB, 1.67 MB in one piece); wasserstein_rows keeps its own batch
    loop for its other callers.  Per batch, a reference mean within
    MARGIN_SIGMAS sqrt(A) of a trait end warns through measures.warn_near_ends,
    and the first reference in column order whose mass misses 1 by more than
    PROBABILITY_TOL raises SimulationError; wasserstein_rows then rejects the
    first profile that is not a probability density, and a distance that is
    not finite raises SimulationError.  Every command takes its first
    gauss_dev at t = 0, before any step: that is where a run's references
    are checked.
    """
    trait = state.trait
    rows = batch_rows(trait.points)
    worst = 0.0
    for lo in range(0, len(N), rows):
        cols = slice(lo, lo + rows)
        means = Z[cols]
        target = gaussian_rows(means, A, trait)
        warn_near_ends(means, A, trait)
        mass = target.sum(axis=1) * trait.spacing
        short = np.flatnonzero(~unit_mass(mass))
        if len(short):
            i = short[0]
            raise SimulationError(
                f"the reference Gaussian of variance A at Z = {means[i]:.6g} holds mass "
                f"{mass[i]:.12f} on the trait grid: widen numerical.trait_bounds",
                {"t": state.t, "mass": float(mass[i])},
            )
        dist = wasserstein_rows(trait, state.n[cols] / N[cols, None], target, (2,))[0]
        # max(worst, nan) keeps worst: a NaN column must not drop out silently.
        bad = np.flatnonzero(~np.isfinite(dist))
        if len(bad):
            col = lo + int(bad[0])
            raise SimulationError(
                f"the W2 distance of column {col} to its reference Gaussian is "
                f"{dist[bad[0]]}",
                {"t": state.t, "column": col},
            )
        worst = max(worst, float(dist.max()))
    return worst


def _uniform_cadence(times: np.ndarray) -> float:
    """The common spacing of increasing snapshot times (0 for a single snapshot)."""
    steps = np.diff(times)
    if len(steps) == 0:
        return 0.0
    cadence = float(steps[0])
    if np.any(np.abs(steps - cadence) > 1e-9 * max(1.0, cadence)):
        raise ValueError("snapshot times must be uniformly spaced")
    if not cadence > 0:
        raise ValueError("snapshot times must increase")
    return cadence


@dataclasses.dataclass
class ResidualFields:
    """phi_N, phi_Z sampled at the interior snapshot times of a trajectory."""

    times: np.ndarray
    phi_N: np.ndarray
    phi_Z: np.ndarray


def kbm_residuals(
    times: np.ndarray,
    N: np.ndarray,
    Z: np.ndarray,
    space: TorusGrid,
    env: Environment,
    A: float,
) -> ResidualFields:
    """Forcings phi_N, phi_Z the sampled moment fields leave in the macroscopic system.

    Rearranges the system: phi_N = (dN/dt - lap N)/N - 1 + (Z - y_opt)^2/2 + N
    and phi_Z = dZ/dt - lap Z - 2 grad N . grad Z / N + A (Z - y_opt), with
    centered differences in time (snapshot cadence) and space, so the
    residuals include an O(cadence^2 + h^2) differencing error.
    """
    times = np.asarray(times, dtype=float)
    N = np.asarray(N, dtype=float)
    Z = np.asarray(Z, dtype=float)
    if len(times) < 3:
        raise ValueError("need at least 3 snapshots for centered time differences")
    cadence = _uniform_cadence(times)
    if problem := floor_problem(N.min()):
        raise SimulationError(problem, {"min_N": float(N.min())})

    h = space.spacing
    x = space.centers

    def lap(f):
        return (np.roll(f, 1, axis=1) + np.roll(f, -1, axis=1) - 2.0 * f) / h**2

    def grad(f):
        return (np.roll(f, -1, axis=1) - np.roll(f, 1, axis=1)) / (2.0 * h)

    mid = slice(1, -1)
    dNdt = (N[2:] - N[:-2]) / (2.0 * cadence)
    dZdt = (Z[2:] - Z[:-2]) / (2.0 * cadence)
    Nm, Zm = N[mid], Z[mid]
    y_opt = np.stack([env.evaluate(t, x) for t in times[mid]])

    phi_N = (dNdt - lap(Nm)) / Nm - 1.0 + 0.5 * (Zm - y_opt) ** 2 + Nm
    phi_Z = dZdt - lap(Zm) - 2.0 * grad(Nm) * grad(Zm) / Nm + A * (Zm - y_opt)
    return ResidualFields(times=times[mid], phi_N=phi_N, phi_Z=phi_Z)


def holder_quotient(
    times: np.ndarray,
    space: TorusGrid,
    field: np.ndarray,
    theta: float,
) -> float:
    """max over all pairs of lattice points of |f(t,x) - f(s,y)| / (|t-s| + d(x,y))^theta.

    Snapshots are uniformly spaced, so pairs are taken lag by lag: for time
    lag a the numerator is maximized over the start time first, and each
    (a, x, y) is divided once by (a*cadence + d(x,y))^theta.  Lags are visited
    in increasing order until osc(f) / (a*cadence)^theta cannot beat the
    running max; later lags are farther apart, so the value is exact.  Extra
    memory is a few (points, points) arrays and one gap array of at most
    max(_GAP_CHUNK, points^2) doubles, 2 MiB up to 512 points, whatever the
    snapshot count.
    """
    if not 0.0 < theta < 1.0:
        raise ValueError(f"theta must lie in (0, 1), got {theta}")
    times = np.asarray(times, dtype=float)
    field = np.asarray(field, dtype=float)
    nt, nx = field.shape
    if times.shape != (nt,):
        raise ValueError("times length does not match the field")
    cadence = _uniform_cadence(times)
    x = space.centers
    dx = space.distance(x[:, None], x[None, :])
    osc = float(field.max() - field.min())
    best = 0.0
    for a in range(nt):
        lag = a * cadence
        if a and osc / lag**theta <= best:
            break
        denom = (lag + dx) ** theta
        valid = denom > 0
        if valid.any():
            best = max(best, float((_max_gap(field, a)[valid] / denom[valid]).max()))
    return best


# Entries of the (start times, points, points) gap array of one batch of
# start times in _max_gap: 2 MiB.
_GAP_CHUNK = 2**18


def _max_gap(field: np.ndarray, lag: int) -> np.ndarray:
    """max over t of |f(t + lag, y) - f(t, x)|, indexed [x, y].

    Start times are taken _GAP_CHUNK // points^2 at a time (at least one).
    """
    starts, nx = len(field) - lag, field.shape[1]
    step = max(1, _GAP_CHUNK // nx**2)
    best = None
    for lo in range(0, starts, step):
        hi = min(lo + step, starts)
        gap = field[lo + lag : hi + lag, None, :] - field[lo:hi, :, None]
        gap = np.abs(gap, out=gap).max(axis=0)
        best = gap if best is None else np.maximum(best, gap, out=best)
    return best


@dataclasses.dataclass(frozen=True)
class PowerLawFit:
    theta_hat: float
    c_hat: float
    r2: float


def fit_power_law(gammas, errors) -> PowerLawFit:
    """Least squares of log error = log c - theta log gamma."""
    g = np.asarray(gammas, dtype=float)
    e = np.asarray(errors, dtype=float)
    if len(g) < 3:
        raise ValueError("need at least 3 (gamma, error) pairs")
    if np.any(g <= 0) or np.any(e <= 0):
        raise ValueError("gammas and errors must be positive")
    lg, le = np.log(g), np.log(e)
    slope, intercept = np.polyfit(lg, le, 1)
    pred = slope * lg + intercept
    ss_res = float(((le - pred) ** 2).sum())
    ss_tot = float(((le - le.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return PowerLawFit(theta_hat=float(-slope), c_hat=float(np.exp(intercept)), r2=r2)


def burn_in_time(gamma: float, dt: float) -> float:
    """Window start for deviation suprema: the bounds only begin after a
    transient, so report max(5 dt, gamma^(-1/2))."""
    return max(5.0 * dt, gamma**-0.5)
