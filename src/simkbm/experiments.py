"""Experiment drivers shared by the CLI and the test suite.

Everything here is compute-only and deterministic; file writing lives in
the CLI layer.  Sweep members are independent, so they may run in parallel
processes and are aggregated keyed by gamma.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import dataclasses
import warnings

import numpy as np

from .config import ConfigError, RunConfig
from .diagnostics import (
    burn_in_time,
    fit_power_law,
    gaussian_deviation,
    holder_quotient,
    kbm_residuals,
    SweepReport,
)
from .kbm_solver import init_macro, run_kbm
from .sim_solver import (
    RunDiagnostics,
    SimParams,
    SimulationError,
    init_state,
    kinetic_moments,
    plan_steps,
    sim_snapshots,
)


@dataclasses.dataclass
class CompareResult:
    """Matched kinetic-vs-macroscopic run at one gamma."""

    gamma: float
    times: np.ndarray
    err_N: np.ndarray
    err_Z: np.ndarray
    gauss_dev: np.ndarray
    v_max: np.ndarray
    mass_leak: np.ndarray
    t_burn: float
    sups: dict
    holder: dict

    def series_columns(self):
        return (
            ["t", "err_N", "err_Z", "gauss_dev", "v_max", "mass_leak"],
            [self.times, self.err_N, self.err_Z, self.gauss_dev, self.v_max, self.mass_leak],
        )


def _windowed_sup(times, series, t_start):
    """Supremum from t_start on; over the whole series when the horizon ends before it."""
    mask = times >= t_start - 1e-12
    return float(np.max(series[mask])) if mask.any() else float(np.max(series))


def reduced_snapshots(config: RunConfig, params: SimParams, diag: RunDiagnostics):
    """(state, kinetic_moments, gauss_dev) of each snapshot of the SIM run of
    config, taken as sim_snapshots makes it and before the next step: a failing
    snapshot, the first at t = 0 included, stops the run.  At each yield,
    diag.max_boundary_leak_rate is the running leak mark."""
    for state in sim_snapshots(init_state(config), params, config.env, config.t_end, diag):
        moms = kinetic_moments(state)
        yield state, moms, gaussian_deviation(state, config.A, moms.N, moms.Z)


def run_compare(config: RunConfig, gamma: float | None = None) -> CompareResult:
    """Run the kinetic and macroscopic models from matched initial data.

    The population size and mean-trait profiles are shared; the kinetic run
    additionally starts from Gaussian columns of variance V0.  Errors are
    sampled at the common snapshot cadence.
    """
    n_steps, every = plan_steps(0.0, config.t_end, config.dt, config.snapshot_dt)
    if n_steps // every + 1 < 3:
        raise ConfigError(
            "compare needs at least 3 snapshots for the residuals: "
            "numerical.snapshot_dt must be at most t_end / 2"
        )
    params = config.sim_params(gamma)
    gamma = params.gamma
    env = config.env
    space = config.space_grid()
    diag = RunDiagnostics()
    # Each snapshot is reduced on arrival and not kept.
    rows = []
    for state, moms, dev in reduced_snapshots(config, params, diag):
        rows.append((state.t, moms.N, moms.Z, dev, moms.V.max(), diag.max_boundary_leak_rate))
    times, N, Z, gauss, v_max, leak = map(np.array, zip(*rows))
    kbm = run_kbm(init_macro(config), env, config.A, config.dt, config.t_end, config.snapshot_dt)

    err_N = np.abs(N - kbm.N).max(axis=1)
    err_Z = np.abs(Z - kbm.Z).max(axis=1)

    t_burn = burn_in_time(gamma, config.dt)
    resid = kbm_residuals(times, N, Z, space, env, config.A)

    sups = {
        "err_N": _windowed_sup(times, err_N, t_burn),
        "err_Z": _windowed_sup(times, err_Z, t_burn),
        "gauss_dev": _windowed_sup(times, gauss, t_burn),
        "err_N_full": float(err_N.max()),
        "err_Z_full": float(err_Z.max()),
        "gauss_dev_full": float(gauss.max()),
        "v_max": float(v_max.max()),
        "resid_N": _windowed_sup(resid.times, np.abs(resid.phi_N), t_burn),
        "resid_Z": _windowed_sup(resid.times, np.abs(resid.phi_Z), t_burn),
        "mass_leak_rate": diag.max_boundary_leak_rate,
        "diffusion_mass_error": diag.max_diffusion_mass_error,
        "min_density": diag.min_density_seen,
        "positivity_clips": diag.positivity_clips,
    }
    holder = {
        "N_theta_0.5": holder_quotient(times, space, N, 0.5),
        "Z_theta_0.5": holder_quotient(times, space, Z, 0.5),
    }

    return CompareResult(
        gamma=gamma,
        times=times,
        err_N=err_N,
        err_Z=err_Z,
        gauss_dev=gauss,
        v_max=v_max,
        mass_leak=leak,
        t_burn=t_burn,
        sups=sups,
        holder=holder,
    )


def _compare_worker(args):
    """One sweep member: gamma, CompareResult and the warnings it recorded,
    which a SimulationError carries as its `warnings`."""
    config, gamma = args
    with warnings.catch_warnings(record=True) as caught:
        try:
            return gamma, run_compare(config, gamma=gamma), caught
        except SimulationError as exc:
            exc.warnings = caught
            raise


def run_gamma_sweep(config: RunConfig, jobs: int = 1):
    """Per-gamma compare runs aggregated into a SweepReport with power-law fits.

    Pool workers have warning registries of their own, so the members'
    warnings are shown here, through one registry, in gamma order up to the
    first member that raises: stderr does not depend on jobs."""
    if config.gamma_list is None or len(config.gamma_list) < 3:
        raise ConfigError("gamma-sweep needs physical.gamma_list with >= 3 values")
    gammas = list(config.gamma_list)
    results, caught = {}, []
    with contextlib.ExitStack() as stack:
        run = map
        if jobs > 1:
            pool = concurrent.futures.ProcessPoolExecutor(max_workers=min(jobs, len(gammas)))
            run = stack.enter_context(pool).map
        try:
            for gamma, result, recorded in run(_compare_worker, [(config, g) for g in gammas]):
                results[gamma] = result
                caught += recorded
        except SimulationError as exc:
            caught += exc.warnings
            raise
        finally:
            shown = {}
            for w in caught:
                warnings.warn_explicit(w.message, w.category, w.filename, w.lineno, registry=shown)
    errors = {
        "gauss_dev_sup": [results[g].sups["gauss_dev"] for g in gammas],
        "macro_err_N": [results[g].sups["err_N"] for g in gammas],
        "macro_err_Z": [results[g].sups["err_Z"] for g in gammas],
        "resid_N": [results[g].sups["resid_N"] for g in gammas],
        "resid_Z": [results[g].sups["resid_Z"] for g in gammas],
    }
    theta, c_hat, r2 = {}, {}, {}
    for family, vals in errors.items():
        fit = fit_power_law(gammas, vals)
        theta[family] = fit.theta_hat
        c_hat[family] = fit.c_hat
        r2[family] = fit.r2
    report = SweepReport(gammas=gammas, errors=errors, theta_hat=theta, c_hat=c_hat, r2=r2)
    return report, results
