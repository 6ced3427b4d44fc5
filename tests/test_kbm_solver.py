import numpy as np
import pytest

from simkbm import (
    Environment,
    MacroState,
    SimulationError,
    homogeneous_reference,
    kbm_step,
    run_kbm,
)
from simkbm.diffusion import PeriodicHeatCN

SIN_ENV = Environment(kind="sinusoidal_in_x", amplitude=0.5, wavenumber=1)


class TestMacroState:
    def test_z_is_derived(self, space64):
        m = MacroState(0.0, np.full(64, 2.0), np.full(64, 1.0), space64)
        assert np.abs(m.Z - 0.5).max() == 0.0

    def test_rejects_nonpositive_population(self, space64):
        with pytest.raises(ValueError, match="positive"):
            MacroState(0.0, np.zeros(64), np.zeros(64), space64)


class TestKbmStep:
    def test_constant_state_is_fixed_point(self, space64):
        env = Environment(kind="constant", offset=0.7)
        m = MacroState(0.0, np.ones(64), np.full(64, 0.7), space64)
        out = kbm_step(m, env, A=1.0, dt=1e-3, heat=PeriodicHeatCN(64, space64.spacing, 1e-3))
        assert np.abs(out.N - 1.0).max() <= 1e-12
        assert np.abs(out.Z - 0.7).max() <= 1e-12

    def test_mean_trait_relaxes_exponentially(self, space64):
        # Homogeneous fields, y_opt = 0: dZ/dt = -A Z exactly.
        env = Environment(kind="constant", offset=0.0)
        A, z0 = 1.0, 1.0
        traj = run_kbm(MacroState(0.0, np.ones(64), np.full(64, z0), space64), env, A, 1e-3, 1.0, 0.5)
        assert abs(traj.Z[-1].mean() - z0 * np.exp(-A)) <= 1e-4

    def test_homogeneous_run_matches_ode_reference(self, space64):
        env = Environment(kind="constant", offset=0.2)
        A, n0, z0 = 1.0, 0.7, 0.8
        m0 = MacroState(0.0, np.full(64, n0), np.full(64, n0 * z0), space64)
        traj = run_kbm(m0, env, A, 1e-3, 5.0, 0.25)
        ref = homogeneous_reference(n0, z0, env, A, 5.0)
        n_ref, z_ref = ref.evaluate(traj.times)
        assert np.abs(traj.N.mean(axis=1) - n_ref).max() <= 1e-4
        assert np.abs(traj.Z.mean(axis=1) - z_ref).max() <= 1e-4

    def test_population_floor_detected(self, space64):
        env = Environment(kind="constant", offset=0.0)
        m = MacroState(0.0, np.full(64, 2e-12), np.full(64, 2e-12 * 5.0), space64)
        with pytest.raises(SimulationError, match="floor"):
            # strong maladaptation drives N below the floor within the step
            kbm_step(m, env, A=0.01, dt=1e-1, heat=PeriodicHeatCN(64, space64.spacing, 1e-1))


class TestRunKbm:
    def test_zero_horizon(self, space64):
        m0 = MacroState(0.0, np.ones(64), np.zeros(64), space64)
        traj = run_kbm(m0, SIN_ENV, 1.0, 1e-3, 0.0, 1e-3)
        assert len(traj.times) == 1

    def test_self_convergence_at_least_first_order(self, space64):
        finals = []
        for dt in (4e-3, 2e-3, 1e-3):
            m0 = MacroState(0.0, np.ones(64), np.zeros(64), space64)
            traj = run_kbm(m0, SIN_ENV, 1.0, dt, 0.5, 0.5)
            finals.append(traj.N[-1])
        d1 = np.abs(finals[0] - finals[1]).max()
        d2 = np.abs(finals[1] - finals[2]).max()
        assert np.log2(d1 / d2) >= 0.9

    def test_stability_under_initial_perturbation(self, space64):
        m0 = MacroState(0.0, np.ones(64), np.zeros(64), space64)
        bump = 1e-6 * np.sin(2 * np.pi * space64.centers)
        m1 = MacroState(0.0, np.ones(64) + bump, np.zeros(64), space64)
        t0 = run_kbm(m0, SIN_ENV, 1.0, 1e-3, 2.0, 0.1)
        t1 = run_kbm(m1, SIN_ENV, 1.0, 1e-3, 2.0, 0.1)
        gap = np.abs(t0.N - t1.N).max(axis=1) + np.abs(t0.Z - t1.Z).max(axis=1)
        # Gronwall-type growth: stays within a modest multiple of 1e-6.
        assert gap.max() <= 1e-4

    def test_y_over_n_matches_direct_mean_trait_scheme(self, space64):
        # Reference stepper that evolves (N, Z) directly, with the explicit
        # gradient coupling term discretized by centered differences.
        A, dt, t_end = 1.0, 1e-3, 1.0
        h = space64.spacing
        x = space64.centers
        heat = PeriodicHeatCN(64, h, dt)

        def rates(N, Z, t):
            y_opt = SIN_ENV.evaluate(t, x)
            gn = (np.roll(N, -1) - np.roll(N, 1)) / (2 * h)
            gz = (np.roll(Z, -1) - np.roll(Z, 1)) / (2 * h)
            return (1 - 0.5 * (Z - y_opt) ** 2 - N) * N, 2 * gn * gz / N - A * (Z - y_opt)

        N, Z, t = np.ones(64), np.zeros(64), 0.0
        for _ in range(round(t_end / dt)):
            N, Z = heat.step(N), heat.step(Z)
            dn1, dz1 = rates(N, Z, t)
            dn2, dz2 = rates(N + dt * dn1, Z + dt * dz1, t + dt)
            N = N + 0.5 * dt * (dn1 + dn2)
            Z = Z + 0.5 * dt * (dz1 + dz2)
            t += dt

        m0 = MacroState(0.0, np.ones(64), np.zeros(64), space64)
        traj = run_kbm(m0, SIN_ENV, A, dt, t_end, 0.5)
        assert np.abs(traj.N[-1] - N).max() <= 1e-4
        assert np.abs(traj.Z[-1] - Z).max() <= 1e-4


class TestHomogeneousReference:
    def test_constant_solution(self):
        env = Environment(kind="constant", offset=0.4)
        ref = homogeneous_reference(1.0, 0.4, env, 1.0, 2.0)
        n, z = ref.evaluate(np.linspace(0, 2, 9))
        assert np.abs(n - 1.0).max() <= 1e-9
        assert np.abs(z - 0.4).max() <= 1e-9

    def test_relaxation_toward_carrying_capacity(self):
        env = Environment(kind="constant", offset=0.0)
        ref = homogeneous_reference(1.0, 1.0, env, 1.0, 40.0)
        n, z = ref.evaluate(np.array([40.0]))
        assert abs(z[0]) <= 1e-9
        assert abs(n[0] - 1.0) <= 1e-6

    def test_exact_exponential_mean_decay(self):
        env = Environment(kind="constant", offset=0.0)
        ref = homogeneous_reference(1.0, 1.0, env, 2.0, 1.0)
        _, z = ref.evaluate(np.array([0.5]))
        assert abs(z[0] - np.exp(-1.0)) <= 1e-8

    def test_rejects_spatial_environment(self):
        with pytest.raises(ValueError, match="x-independent"):
            homogeneous_reference(1.0, 0.0, SIN_ENV, 1.0, 1.0)
