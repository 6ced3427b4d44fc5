import numpy as np
import pytest
from reference_ode import homogeneous_reference

import simkbm.sim_solver
from simkbm import (
    Environment,
    ReproductionKernel,
    SimParams,
    SimulationError,
    TorusGrid,
    TraitGrid,
    gaussian_initial_state,
    init_state,
    kinetic_moments,
    parse_config,
    run_sim,
    sim_step,
)
from simkbm.sim_solver import (
    RunDiagnostics,
    _diffusion_substep,
    _guard_density,
    _Operators,
    _reproduction_substep,
    max_stable_dt,
)

CONST_ENV = Environment(kind="constant", offset=0.0)
SIN_ENV = Environment(kind="sinusoidal_in_x", amplitude=0.5, wavenumber=1)


@pytest.fixture
def small_grids():
    return TorusGrid(16, 1.0), TraitGrid(-8.0, 8.0, 128)


class TestSimParams:
    @pytest.mark.parametrize("field", ["A", "gamma", "dt", "snapshot_dt"])
    def test_requires_positive(self, field):
        kwargs = dict(A=1.0, gamma=8.0, dt=1e-3, snapshot_dt=0.1)
        kwargs[field] = 0.0
        with pytest.raises(ValueError, match=field):
            SimParams(**kwargs)

    def test_snapshot_not_finer_than_dt(self):
        with pytest.raises(ValueError, match="snapshot_dt"):
            SimParams(A=1.0, gamma=8.0, dt=1e-2, snapshot_dt=1e-3)

    def test_dt_cap_independent_of_gamma(self):
        trait = TraitGrid(-8.5, 8.5, 128)
        cap = max_stable_dt(1.0, trait, SIN_ENV, 1.0, 5.0)
        assert 0 < cap <= 0.1
        # sup |r| ~ 1 + A/2 + (8.5 + 0.5)^2 / 2 + N bound
        assert cap == pytest.approx(1.0 / (4 * (1.5 + 0.5 * 9.0**2 + 1.5)), rel=1e-12)


class TestInitialState:
    def test_homogeneous_columns(self, small_grids):
        space, trait = small_grids
        state = gaussian_initial_state(space, trait, np.ones(16), np.zeros(16), 1.0)
        moms = kinetic_moments(state)
        assert np.abs(moms.N - 1.0).max() <= 1e-10
        assert np.abs(moms.Z).max() <= 1e-12

    def test_rejects_vanishing_population(self, small_grids):
        space, trait = small_grids
        n0 = np.ones(16)
        n0[3] = 0.0
        with pytest.raises(ValueError, match="positive everywhere"):
            gaussian_initial_state(space, trait, n0, np.zeros(16), 1.0)

    def test_rejects_mean_outside_safe_interior(self, small_grids):
        space, trait = small_grids
        with pytest.raises(ValueError, match="trait boundary"):
            gaussian_initial_state(space, trait, np.ones(16), np.full(16, 7.5), 1.0)

    def test_warns_in_the_six_sigma_band(self, small_grids):
        space, trait = small_grids
        with pytest.warns(RuntimeWarning, match="standard deviations"):
            gaussian_initial_state(space, trait, np.ones(16), np.full(16, 3.0), 1.0)

    def test_sinusoidal_mean_recovered(self, space64):
        trait = TraitGrid(-8.5, 8.5, 512)
        z0 = 0.5 * np.sin(2 * np.pi * space64.centers)
        state = gaussian_initial_state(space64, trait, np.ones(64), z0, 1.0)
        assert np.abs(kinetic_moments(state).Z - z0).max() <= 1e-8


class TestKineticMoments:
    def test_gaussian_columns_fourth_moment(self, space64):
        trait = TraitGrid(-8.5, 8.5, 512)
        z0 = 0.5 * np.sin(2 * np.pi * space64.centers)
        state = gaussian_initial_state(space64, trait, np.ones(64), z0, 1.0)
        expected = 3.0 + 6.0 * z0**2 + z0**4  # raw fourth moment of N(Z0, A=1)
        assert np.abs(kinetic_moments(state).V - expected).max() <= 1e-6

    def test_scaling_homogeneity(self, small_grids):
        space, trait = small_grids
        state = gaussian_initial_state(space, trait, np.ones(16), np.zeros(16), 1.0)
        scaled = state.copy()
        scaled.n *= 3.0
        m0, m1 = kinetic_moments(state), kinetic_moments(scaled)
        assert np.abs(m1.N - 3.0 * m0.N).max() <= 1e-12
        assert np.abs(m1.Z - m0.Z).max() <= 1e-12
        assert np.abs(m1.V - m0.V).max() <= 1e-10

    def test_single_column_atom(self):
        space = TorusGrid(4, 1.0)
        trait = TraitGrid(-8.5, 7.5, 16)  # centers on the integers
        n = np.zeros((4, 16))
        n[:, 10] = 1.0 / trait.spacing  # atom at y = 2
        state = __import__("simkbm").KineticState(0.0, n, space, trait)
        moms = kinetic_moments(state)
        assert np.abs(moms.Z - 2.0).max() <= 1e-12
        assert np.abs(moms.V - 16.0).max() <= 1e-10


class TestSubsteps:
    def test_pure_diffusion_conserves_mass(self, small_grids, rng):
        space, trait = small_grids
        state = gaussian_initial_state(
            space, trait, 1.0 + 0.5 * rng.uniform(size=16), np.zeros(16), 1.0
        )
        params = SimParams(A=1.0, gamma=4.0, dt=2e-3, snapshot_dt=0.1)
        ops = _Operators(space, trait, params)
        diag = RunDiagnostics()
        n = state.n
        for _ in range(25):
            n = _diffusion_substep(n, ops, 0.0, diag)
        assert diag.max_diffusion_mass_error <= 1e-10

    def test_reproduction_conserves_column_mass(self, small_grids, rng):
        space, trait = small_grids
        state = gaussian_initial_state(
            space, trait, 1.0 + 0.5 * rng.uniform(size=16), np.zeros(16), 0.7
        )
        params = SimParams(A=1.0, gamma=50.0, dt=2e-3, snapshot_dt=0.1)
        ops = _Operators(space, trait, params)
        before = state.n.sum(axis=1) * trait.spacing
        out = _reproduction_substep(state.n, state, params, ops, RunDiagnostics())
        after = out.sum(axis=1) * trait.spacing
        assert np.abs(after - before).max() <= 1e-12

    def test_step_keeps_density_nonnegative(self, small_grids):
        space, trait = small_grids
        state = gaussian_initial_state(space, trait, np.ones(16), np.zeros(16), 1.0)
        params = SimParams(A=1.0, gamma=8.0, dt=2e-3, snapshot_dt=0.1)
        ops = _Operators(space, trait, params)
        for _ in range(10):
            state = sim_step(state, params, CONST_ENV, ops, RunDiagnostics())
            assert state.n.min() >= 0.0

    def test_negative_density_detected(self, small_grids):
        space, trait = small_grids
        state = gaussian_initial_state(space, trait, np.ones(16), np.zeros(16), 1.0)
        state.n[:, 60] = -1e-3  # a full trait slice: x-diffusion cannot heal it
        params = SimParams(A=1.0, gamma=8.0, dt=2e-3, snapshot_dt=0.1)
        ops = _Operators(space, trait, params)
        with pytest.raises(SimulationError, match="negative density"):
            sim_step(state, params, CONST_ENV, ops, RunDiagnostics())

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_density_detected(self, bad):
        n = np.ones((4, 8))
        n[2, 5] = bad
        with pytest.raises(SimulationError, match="non-finite density after reaction"):
            _guard_density(n, "reaction", 0.5, RunDiagnostics())

    def test_roundoff_negatives_clamped_and_counted(self):
        n = np.ones((4, 8))
        n[1, 3] = -1e-15
        diag = RunDiagnostics()
        out = _guard_density(n, "diffusion", 0.0, diag)
        assert out is n and n.min() == 0.0
        assert diag.positivity_clips == 1 and diag.min_density_seen == -1e-15
        n[1, 3] = -1e-3
        with pytest.raises(SimulationError, match="negative density") as err:
            _guard_density(n, "diffusion", 0.0, diag)
        assert err.value.report == {"t": 0.0, "min": -1e-3, "scale": 1.0}

    def test_population_floor_detected(self, small_grids):
        space, trait = small_grids
        state = gaussian_initial_state(space, trait, np.full(16, 1e-11), np.zeros(16), 1.0)
        state.n *= 1e-3  # push N below the 1e-12 floor
        params = SimParams(A=1.0, gamma=8.0, dt=2e-3, snapshot_dt=0.1)
        ops = _Operators(space, trait, params)
        with pytest.raises(SimulationError, match="floor"):
            sim_step(state, params, CONST_ENV, ops, RunDiagnostics())


class TestRunSim:
    def test_zero_horizon_returns_initial_snapshot(self, small_grids):
        space, trait = small_grids
        state = gaussian_initial_state(space, trait, np.ones(16), np.zeros(16), 1.0)
        params = SimParams(A=1.0, gamma=8.0, dt=2e-3, snapshot_dt=0.1)
        traj = run_sim(state, params, CONST_ENV, 0.0)
        assert len(traj.snapshots) == 1
        assert traj.times[0] == 0.0

    def test_cadence_beyond_horizon_gives_first_and_last(self, small_grids):
        space, trait = small_grids
        state = gaussian_initial_state(space, trait, np.ones(16), np.zeros(16), 1.0)
        params = SimParams(A=1.0, gamma=8.0, dt=2e-3, snapshot_dt=10.0)
        traj = run_sim(state, params, CONST_ENV, 0.02)
        assert len(traj.snapshots) == 2
        assert traj.times[0] == 0.0
        assert traj.times[-1] == pytest.approx(0.02)

    def test_rejects_horizon_not_multiple_of_dt(self, small_grids):
        space, trait = small_grids
        state = gaussian_initial_state(space, trait, np.ones(16), np.zeros(16), 1.0)
        params = SimParams(A=1.0, gamma=8.0, dt=3e-3, snapshot_dt=0.1)
        with pytest.raises(ValueError, match="multiple of dt"):
            run_sim(state, params, CONST_ENV, 0.01)

    def test_rejects_cadence_not_dividing_horizon(self, small_grids):
        space, trait = small_grids
        state = gaussian_initial_state(space, trait, np.ones(16), np.zeros(16), 1.0)
        params = SimParams(A=1.0, gamma=8.0, dt=2e-3, snapshot_dt=6e-3)
        with pytest.raises(ValueError, match="divide"):
            run_sim(state, params, CONST_ENV, 0.02)

    def test_each_run_builds_its_own_operators(self, small_grids, monkeypatch):
        # No operator state may carry over from one run to the next.
        built = []

        class CountingKernel(ReproductionKernel):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(simkbm.sim_solver, "ReproductionKernel", CountingKernel)
        space, trait = small_grids
        state = gaussian_initial_state(space, trait, np.ones(16), np.zeros(16), 1.0)
        params = SimParams(A=1.0, gamma=8.0, dt=2e-3, snapshot_dt=0.01)
        first = run_sim(state, params, CONST_ENV, 0.02)
        second = run_sim(state, params, CONST_ENV, 0.02)
        assert len(built) == 2
        assert np.array_equal(first.N, second.N)

    def test_one_step_and_one_kernel_call_per_step(self, small_grids, count_calls):
        # The trace harness counts spans of the module-global sim_step and of
        # ReproductionKernel.apply_to_profiles, so each must run once per step.
        space, trait = small_grids
        count_calls(simkbm.sim_solver, "sim_step")
        counts = count_calls(ReproductionKernel, "apply_to_profiles")
        state = gaussian_initial_state(space, trait, np.ones(16), np.zeros(16), 1.0)
        run_sim(state, SimParams(A=1.0, gamma=8.0, dt=2e-3, snapshot_dt=0.01), CONST_ENV, 0.02)
        assert counts == {"sim_step": 10, "apply_to_profiles": 10}

    def test_splitting_self_convergence_first_order(self, space64):
        # Halving dt should roughly halve the final-field change.
        trait = TraitGrid(-8.5, 8.5, 256)
        finals = []
        for dt in (4e-3, 2e-3, 1e-3):
            state = gaussian_initial_state(space64, trait, np.ones(64), np.zeros(64), 1.0)
            params = SimParams(A=1.0, gamma=8.0, dt=dt, snapshot_dt=0.5)
            traj = run_sim(state, params, SIN_ENV, 0.5)
            finals.append(traj.N[-1])
        d1 = np.abs(finals[0] - finals[1]).max()
        d2 = np.abs(finals[1] - finals[2]).max()
        assert 1.5 <= d1 / d2 <= 3.0


class TestHomogeneousOracle:
    def test_population_follows_logistic_growth(self):
        # With the profile at its Gaussian equilibrium and y_opt = Z0, the
        # population size reduces to dN/dt = (1 - N) N; the kinetic run must
        # track an adaptive-ODE solve of it.  Short-horizon variant of the
        # acceptance experiment.
        space = TorusGrid(8, 1.0)
        trait = TraitGrid(-6.0, 6.0, 256)
        A, gamma = 0.5, 1024.0
        state = gaussian_initial_state(space, trait, np.full(8, 0.3), np.zeros(8), A)
        params = SimParams(A=A, gamma=gamma, dt=1e-3, snapshot_dt=0.1)
        traj = run_sim(state, params, CONST_ENV, 1.0)
        ref = homogeneous_reference(0.3, 0.0, CONST_ENV, A, 1.0)
        n_ref, _ = ref.evaluate(traj.times)
        assert np.abs(traj.N.mean(axis=1) - n_ref).max() <= 5e-4


class TestStandardPositivityMargin:
    def test_standard_run_needs_no_clamps(self):
        # Acceptance criterion 9 (min_density >= 0) rests on the B substep's
        # FFT roundoff in the far trait tails staying nonnegative on the
        # standard configuration; a full-length 2048-point transform there
        # clamps 194 times in these 500 steps at gamma 32.
        doc = {
            "physical": {
                "A": 1.0,
                "gamma": 32.0,
                "env": {"kind": "sinusoidal_in_x", "amplitude": 0.5, "wavenumber": 1},
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
                "t_end": 1.0,
                "snapshot_dt": 0.05,
                "seed": 1,
            },
        }
        config = parse_config(doc)
        traj = run_sim(init_state(config), config.sim_params(), config.env, config.t_end)
        assert traj.diagnostics.positivity_clips == 0
        assert traj.diagnostics.min_density_seen > 0.0
