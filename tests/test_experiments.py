"""run_compare reduces each SIM snapshot on arrival and keeps no density."""

import json
import tracemalloc
import warnings

import numpy as np
import pytest

from simkbm import experiments, sim_solver
from simkbm.config import parse_config
from simkbm.diagnostics import burn_in_time, gaussian_deviation, holder_quotient, kbm_residuals
from simkbm.experiments import _windowed_sup, run_compare
from simkbm.kbm_solver import init_macro, run_kbm
from simkbm.sim_solver import (
    RunDiagnostics,
    SimulationError,
    init_state,
    kinetic_moments,
    sim_snapshots,
)

DT = 0.004
DOC = {
    "physical": {
        "A": 1.0,
        "gamma": 8.0,
        "env": {"kind": "sinusoidal_in_x", "offset": 0.0, "amplitude": 0.5, "wavenumber": 1},
        "initial": {
            "N0": {"kind": "constant", "value": 1.0},
            "Z0": {"kind": "constant", "value": 0.0},
            "V0": "auto",
        },
    },
    "numerical": {
        "space_points": 16,
        "trait_points": 64,
        "dt": DT,
        "t_end": 0.4,
        "snapshot_dt": 0.02,
    },
}


def config_with(**numerical):
    doc = json.loads(json.dumps(DOC))
    doc["numerical"].update(numerical)
    return parse_config(doc)


def collected_compare(config):
    """run_compare's series and suprema from every collected SIM snapshot, with
    kinetic_moments and gaussian_deviation taken after the run."""
    diag = RunDiagnostics()
    snapshots, leak = [], []
    run = sim_snapshots(init_state(config), config.sim_params(), config.env, config.t_end, diag)
    for state in run:
        snapshots.append(state)
        leak.append(diag.max_boundary_leak_rate)
    times = np.array([s.t for s in snapshots])
    moms = [kinetic_moments(s) for s in snapshots]
    N, Z, V = (np.stack([getattr(m, f) for m in moms]) for f in "NZV")
    kbm = run_kbm(init_macro(config), config.env, config.A, config.dt, config.t_end, config.snapshot_dt)
    gauss = np.array([gaussian_deviation(s, config.A, n, z) for s, n, z in zip(snapshots, N, Z)])
    err_N = np.abs(N - kbm.N).max(axis=1)
    err_Z = np.abs(Z - kbm.Z).max(axis=1)
    t_burn = burn_in_time(config.gamma, config.dt)
    space = snapshots[0].space
    resid = kbm_residuals(times, N, Z, space, config.env, config.A)
    sups = {
        "err_N": _windowed_sup(times, err_N, t_burn),
        "err_Z": _windowed_sup(times, err_Z, t_burn),
        "gauss_dev": _windowed_sup(times, gauss, t_burn),
        "err_N_full": float(err_N.max()),
        "err_Z_full": float(err_Z.max()),
        "gauss_dev_full": float(gauss.max()),
        "v_max": float(V.max()),
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
    series = {
        "times": times,
        "err_N": err_N,
        "err_Z": err_Z,
        "gauss_dev": gauss,
        "v_max": V.max(axis=1),
        "mass_leak": np.array(leak),
    }
    return series, sups, holder


class TestStreamedCompare:
    def test_matches_the_collected_trajectory_bit_for_bit(self):
        config = config_with()
        result = run_compare(config)
        series, sups, holder = collected_compare(config)
        assert len(result.times) == 21
        for name, want in series.items():
            got = getattr(result, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
        assert result.sups == sups
        assert result.holder == holder

    def test_peak_memory_does_not_grow_with_the_snapshot_count(self):
        # 3 snapshots against 201: the 198 extra 16 x 64 densities are 1584 KiB,
        # which a run that kept its snapshots would add to its peak.
        t_end = 200 * DT
        peaks = []
        for snapshot_dt in (t_end / 2, DT):
            config = config_with(t_end=t_end, snapshot_dt=snapshot_dt)
            tracemalloc.start()
            try:
                run_compare(config)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        extra_density_bytes = (201 - 3) * 16 * 64 * 8
        assert peaks[1] - peaks[0] < extra_density_bytes / 4, peaks

    def test_gauss_dev_failure_stops_the_run_at_its_snapshot(self, monkeypatch, count_calls):
        # Declared precedence: a gauss_dev failure at snapshot k is raised
        # before SIM takes a later step and before KBM runs.
        calls = []

        def failing_at_snapshot_1(state, *args):
            calls.append(state.t)
            if len(calls) == 2:
                raise SimulationError("planted gauss_dev failure", {"t": state.t})
            return gaussian_deviation(state, *args)

        def no_kbm(*args, **kwargs):
            raise AssertionError("KBM ran before the planted failure was raised")

        monkeypatch.setattr(experiments, "gaussian_deviation", failing_at_snapshot_1)
        monkeypatch.setattr(experiments, "run_kbm", no_kbm)
        counts = count_calls(sim_solver, "sim_step")
        with pytest.raises(SimulationError, match="planted"):
            run_compare(config_with())
        assert calls == pytest.approx([0.0, 0.02])
        assert counts["sim_step"] == 5


class TestReducedSnapshots:
    def test_short_reference_raises_at_snapshot_0_before_any_step(self, near_end_doc, count_calls):
        # The first gauss_dev, at t = 0, checks the references: the warning
        # and the error of gaussian_deviation on the initial state, with no
        # step taken.  The warning names no mean, so the default warning
        # display shows it once.
        config = parse_config(near_end_doc)
        state = init_state(config)
        moms = kinetic_moments(state)
        counts = count_calls(sim_solver, "sim_step")
        runs = (
            lambda: gaussian_deviation(state, config.A, moms.N, moms.Z),
            lambda: next(
                experiments.reduced_snapshots(config, config.sim_params(), RunDiagnostics())
            ),
        )
        raised = []
        for run in runs:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("default")
                with pytest.raises(SimulationError) as err:
                    run()
            raised.append((str(err.value), err.value.report, [str(w.message) for w in caught]))
        assert raised[0] == raised[1]
        message, report, shown = raised[0]
        assert "at Z = -0.166294 holds mass 0.99999998" in message and report["t"] == 0.0
        assert shown == [
            "a Gaussian of variance 1 has its mean within 6 standard deviations of the trait "
            "bounds [-5.75, 8]; its sampled mass may be visibly short of 1"
        ]
        assert counts["sim_step"] == 0
