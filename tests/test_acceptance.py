"""End-to-end acceptance suite.

Each criterion prints one pass/fail line (run with -s to watch).  The
macroscopic-limit criteria share a single gamma sweep on the standard
heterogeneous configuration: y_opt(x) = 0.5 sin(2 pi x), N0 = 1, Z0 = 0,
V0 = A = 1, 64 spatial cells, 512 trait cells, horizon 5.
"""

import json
import pathlib

import numpy as np
import pytest
from reference_ode import homogeneous_reference

from simkbm import (
    Environment,
    MacroState,
    ReproductionKernel,
    SimParams,
    TorusGrid,
    TraitGrid,
    fit_power_law,
    gaussian_initial_state,
    gaussian_on_grid,
    parse_config,
    run_kbm,
    run_sim,
)
from simkbm.cli import main as cli_main
from simkbm.experiments import run_gamma_sweep
from simkbm import property_checks
from simkbm.infinitesimal import W2_CONTRACTION, W4_CONTRACTION
from simkbm.property_checks import (
    check_gaussian_fixed_point,
    check_mass_conservation,
    check_mean_conservation,
    check_oracle_agreement,
    check_tanaka,
    check_variance_map,
    check_wasserstein_oracle_agreement,
    tanaka_ratios,
)

GAMMAS = [2.0, 4.0, 8.0, 16.0, 32.0]

STANDARD_DOC = {
    "physical": {
        "A": 1.0,
        "gamma_list": GAMMAS,
        "env": {"kind": "sinusoidal_in_x", "offset": 0.0, "amplitude": 0.5, "wavenumber": 1},
        "initial": {
            "N0": {"kind": "constant", "value": 1.0},
            "Z0": {"kind": "constant", "value": 0.0},
            "V0": "auto",
        },
    },
    "numerical": {
        "space_points": 64,
        "trait_bounds": "auto",
        "trait_points": 512,
        "dt": 0.002,
        "t_end": 5.0,
        "snapshot_dt": 0.05,
        "seed": 1,
    },
    "output": {"directory": "out"},
}


def report(criterion, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'}  criterion {criterion}: {detail}")
    return ok


@pytest.fixture(scope="module")
def standard_sweep():
    config = parse_config(json.dumps(STANDARD_DOC))
    report_, results = run_gamma_sweep(config, jobs=1)
    return config, report_, results


def test_criterion_1_gaussian_fixed_point():
    checks = []
    for A in (0.5, 1.0, 2.0):
        width = 1.0 + 8.0 * np.sqrt(A)
        kernel = ReproductionKernel(A, TraitGrid(-width, width, 512))
        checks.append(check_gaussian_fixed_point(kernel, (-1.0, 0.0, 1.0)))
    worst = max(c.worst for c in checks)
    ok = all(c.passed for c in checks)
    assert report(1, ok, f"fixed-point L1 defect {worst:.2e} <= 1e-6 over A in (0.5,1,2), Z in (-1,0,1)")


def test_criterion_2_tanaka_contraction():
    kernel = ReproductionKernel(1.0, TraitGrid(-8.0, 8.0, 512))
    # One generator per exponent, so both see the same 100 pairs.
    w2 = check_tanaka(kernel, np.random.default_rng(24601), p=2)
    w4 = check_tanaka(kernel, np.random.default_rng(24601), p=4)
    # Same-mean Gaussians of variance 1 and 4, through check_tanaka's ratio.
    fine = TraitGrid(-16.0, 16.0, 2048)
    pair = np.array([gaussian_on_grid(0.0, v, fine).density for v in (1.0, 4.0)])
    (ratio,) = tanaka_ratios(ReproductionKernel(1.0, fine), pair, 2)
    spot = abs(ratio - (np.sqrt(2.5) - 1.0))
    ok = w2.passed and w4.passed and spot <= 1e-3
    assert report(
        2,
        ok,
        f"W2 ratio {w2.worst:.4f} <= {W2_CONTRACTION:.4f}, W4 ratio {w4.worst:.4f} <= "
        f"{W4_CONTRACTION:.4f} (100 pairs); Gaussian spot-check off by {spot:.1e} <= 1e-3",
    )


def test_criterion_3_conservation_and_variance_map():
    kernel = ReproductionKernel(1.0, TraitGrid(-8.0, 8.0, 512))
    # One generator per check, so all three see the same 50 measures.
    mass, mean, var = (
        check(kernel, np.random.default_rng(31415))
        for check in (check_mass_conservation, check_mean_conservation, check_variance_map)
    )
    ok = mass.passed and mean.passed and var.passed
    assert report(
        3,
        ok,
        f"mass defect {mass.worst:.1e} <= 1e-8, mean drift {mean.worst:.1e} <= 1e-8, "
        f"variance-map error {var.worst:.1e} <= 1e-6 (50 measures)",
    )


def test_criterion_4_oracle_equivalence(monkeypatch):
    grid = TraitGrid(-8.0, 8.0, 512)
    rng = np.random.default_rng(27182)
    monkeypatch.setattr(property_checks, "ORACLE_MEASURES", 50)
    reproduction = check_oracle_agreement(ReproductionKernel(1.0, grid), rng)
    transport = check_wasserstein_oracle_agreement(grid, rng)
    ok = reproduction.passed and transport.passed
    assert report(
        4,
        ok,
        f"reproduction fast-vs-oracle L1 {reproduction.worst:.1e} <= 1e-6 "
        "(50 measures, 512 cells); "
        f"transport quantile-vs-oracle {transport.worst:.2e} <= {transport.tolerance:.2e} "
        "(100 pairs)",
    )


def test_criterion_5_homogeneous_dynamics_oracles():
    # (a) kinetic population size follows the logistic law when the profile
    # starts at its Gaussian equilibrium and y_opt = Z0.
    space = TorusGrid(16, 1.0)
    trait = TraitGrid(-6.0, 6.0, 256)
    env = Environment(kind="constant", offset=0.0)
    A = 0.5
    state = gaussian_initial_state(space, trait, np.full(16, 0.3), np.zeros(16), A)
    traj = run_sim(state, SimParams(A=A, gamma=2048.0, dt=1e-3, snapshot_dt=0.25), env, 5.0)
    ref = homogeneous_reference(0.3, 0.0, env, A, 5.0)
    n_ref, _ = ref.evaluate(traj.times)
    err_logistic = float(np.abs(traj.N.mean(axis=1) - n_ref).max())

    # (b) macroscopic solver against the adaptive-ODE reference.
    space64 = TorusGrid(64, 1.0)
    env_b = Environment(kind="constant", offset=0.2)
    m0 = MacroState(0.0, np.full(64, 0.7), np.full(64, 0.7 * 0.8), space64)
    ktraj = run_kbm(m0, env_b, 1.0, 1e-3, 5.0, 0.25)
    kref = homogeneous_reference(0.7, 0.8, env_b, 1.0, 5.0)
    n_ref, z_ref = kref.evaluate(ktraj.times)
    err_kbm = float(
        max(np.abs(ktraj.N.mean(1) - n_ref).max(), np.abs(ktraj.Z.mean(1) - z_ref).max())
    )

    # (c) pure mean-trait relaxation Z(t) = Z0 exp(-A t).
    env0 = Environment(kind="constant", offset=0.0)
    m0 = MacroState(0.0, np.ones(64), np.ones(64), space64)
    ztraj = run_kbm(m0, env0, 1.0, 1e-3, 1.0, 0.5)
    err_relax = float(abs(ztraj.Z[-1].mean() - np.exp(-1.0)))

    ok = err_logistic <= 1e-3 and err_kbm <= 1e-4 and err_relax <= 1e-4
    assert report(
        5,
        ok,
        f"logistic {err_logistic:.2e} <= 1e-3 (t=5, dt=1e-3); homogeneous KBM vs ODE "
        f"{err_kbm:.2e} <= 1e-4; Z-relaxation {err_relax:.2e} <= 1e-4",
    )


def test_criterion_6_macroscopic_limit_trend(standard_sweep):
    _, sweep, results = standard_sweep
    gauss = sweep.errors["gauss_dev_sup"]
    err_n = sweep.errors["macro_err_N"]
    err_z = sweep.errors["macro_err_Z"]
    monotone = all(
        series[i + 1] <= series[i]
        for series in (gauss, err_n, err_z)
        for i in range(len(series) - 1)
    )
    fit = fit_power_law(GAMMAS, gauss)
    small_gamma_fair = err_z[0] < 0.1
    ok = monotone and fit.theta_hat >= 0.25 and fit.r2 >= 0.9 and small_gamma_fair
    assert report(
        6,
        ok,
        f"deviations non-increasing in gamma: {monotone}; Gaussian-deviation fit "
        f"theta {fit.theta_hat:.3f} >= 0.25 with R2 {fit.r2:.4f} >= 0.9; "
        f"|Z_sim - Z_kbm| at gamma=2 is {err_z[0]:.4f} < 0.1",
    )


def test_criterion_7_residual_decay(standard_sweep):
    _, sweep, _ = standard_sweep
    idx4, idx32 = GAMMAS.index(4.0), GAMMAS.index(32.0)
    total4 = sweep.errors["resid_N"][idx4] + sweep.errors["resid_Z"][idx4]
    total32 = sweep.errors["resid_N"][idx32] + sweep.errors["resid_Z"][idx32]
    ok = total32 < total4
    assert report(
        7, ok, f"residual sup decays from {total4:.4f} (gamma=4) to {total32:.4f} (gamma=32)"
    )


def test_criterion_8_uniform_fourth_moment(standard_sweep):
    _, sweep, results = standard_sweep
    v_sups = [results[g].sups["v_max"] for g in GAMMAS]
    ratios = [v_sups[i + 1] / v_sups[i] for i in range(len(v_sups) - 1)]
    ok = all(abs(r - 1.0) <= 0.10 for r in ratios)
    assert report(
        8,
        ok,
        f"fourth-moment sup {max(v_sups):.3f}; doubling ratios "
        + ", ".join(f"{r:.3f}" for r in ratios)
        + " all within 10% of 1",
    )


def test_criterion_9_scheme_health(standard_sweep):
    _, _, results = standard_sweep
    min_density = min(results[g].sups["min_density"] for g in GAMMAS)
    diff_mass = max(results[g].sups["diffusion_mass_error"] for g in GAMMAS)
    leak = max(results[g].sups["mass_leak_rate"] for g in GAMMAS)

    # dt self-convergence of both solvers on the heterogeneous problem.
    space = TorusGrid(64, 1.0)
    trait = TraitGrid(-8.5, 8.5, 256)
    env = Environment(kind="sinusoidal_in_x", amplitude=0.5, wavenumber=1)
    sim_finals, kbm_finals = [], []
    for dt in (4e-3, 2e-3, 1e-3):
        st = gaussian_initial_state(space, trait, np.ones(64), np.zeros(64), 1.0)
        sim_finals.append(
            run_sim(st, SimParams(A=1.0, gamma=8.0, dt=dt, snapshot_dt=0.5), env, 0.5).N[-1]
        )
        m0 = MacroState(0.0, np.ones(64), np.zeros(64), space)
        kbm_finals.append(run_kbm(m0, env, 1.0, dt, 0.5, 0.5).N[-1])
    orders = []
    for finals in (sim_finals, kbm_finals):
        d1 = np.abs(finals[0] - finals[1]).max()
        d2 = np.abs(finals[1] - finals[2]).max()
        orders.append(float(np.log2(d1 / d2)))

    ok = (
        min_density >= 0.0
        and diff_mass <= 1e-10
        and leak <= 1e-8
        and all(p >= 0.9 for p in orders)
    )
    assert report(
        9,
        ok,
        f"min density {min_density:.1e} >= 0; diffusion mass error {diff_mass:.1e} <= 1e-10; "
        f"boundary leak rate {leak:.1e} <= 1e-8; self-convergence orders "
        f"SIM {orders[0]:.2f}, KBM {orders[1]:.2f} >= 0.9",
    )


def test_criterion_10_determinism(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    doc = json.loads(json.dumps(STANDARD_DOC))
    doc["physical"]["gamma_list"] = [4.0, 8.0, 16.0]
    doc["numerical"].update(
        {"space_points": 32, "trait_points": 128, "t_end": 0.2, "dt": 0.004, "snapshot_dt": 0.04}
    )
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(doc))
    assert cli_main(["gamma-sweep", "--config", str(path), "--out", "j1", "--jobs", "1"]) == 0
    assert cli_main(["gamma-sweep", "--config", str(path), "--out", "j2", "--jobs", "2"]) == 0
    files = ["sweep.csv"] + [f"gamma_{g}/compare_series.csv" for g in ("4", "8", "16")]
    identical = all(
        pathlib.Path(f"j1/{f}").read_bytes() == pathlib.Path(f"j2/{f}").read_bytes()
        for f in files
    )
    # and a straight rerun of the same command is byte-stable too
    assert cli_main(["gamma-sweep", "--config", str(path), "--out", "j3", "--jobs", "1"]) == 0
    rerun = (
        pathlib.Path("j1/sweep.csv").read_bytes() == pathlib.Path("j3/sweep.csv").read_bytes()
    )
    ok = identical and rerun
    assert report(
        10, ok, f"jobs=1 vs jobs=2 outputs byte-identical: {identical}; rerun stable: {rerun}"
    )
