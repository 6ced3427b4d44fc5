import numpy as np
import pytest
from reference_ode import homogeneous_reference

import simkbm.kbm_solver
from simkbm import (
    Environment,
    MacroState,
    SimulationError,
    kbm_step,
    run_kbm,
)
from simkbm.diffusion import PeriodicHeatCN

SIN_ENV = Environment(kind="sinusoidal_in_x", amplitude=0.5, wavenumber=1)


class TestMacroState:
    def test_rejects_nonpositive_population(self, space64):
        with pytest.raises(ValueError, match="floor"):
            MacroState(0.0, np.zeros(64), np.zeros(64), space64)


class TestKbmStep:
    def test_constant_state_is_fixed_point(self, space64):
        env = Environment(kind="constant", offset=0.7)
        U = np.stack((np.ones(64), np.full(64, 0.7)))
        y = env.evaluate(0.0, space64.centers)
        out = kbm_step(U, 0.0, y, y, A=1.0, dt=1e-3, heat=PeriodicHeatCN(64, space64.spacing, 1e-3))
        assert np.abs(out[0] - 1.0).max() <= 1e-12
        assert np.abs(out[1] / out[0] - 0.7).max() <= 1e-12

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
        U = np.stack((np.full(64, 2e-12), np.full(64, 2e-12 * 5.0)))
        y = env.evaluate(0.0, space64.centers)
        with pytest.raises(SimulationError, match="floor"):
            # strong maladaptation drives N below the floor within the step
            kbm_step(U, 0.0, y, y, A=0.01, dt=1e-1, heat=PeriodicHeatCN(64, space64.spacing, 1e-1))


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


def _reference_run(N, Y, env, A, dt, n_steps, every, space):
    """Reference stepper on separate N and Y arrays.

    It stacks them only for the diffusion step, evaluates y_opt at both ends
    of every step, and reads the step's end as t + dt.
    """
    heat = PeriodicHeatCN(space.points_per_dim, space.spacing, dt)
    x = space.centers

    def reaction(N, Y, y_opt):
        mismatch = Y / N - y_opt
        growth = 1.0 - 0.5 * mismatch**2 - N
        return growth * N, growth * Y - A * (Y - y_opt * N)

    t = 0.0
    times, Ns, Ys = [t], [N], [Y]
    for k in range(1, n_steps + 1):
        fields = heat.step(np.stack((N, Y), axis=1))
        N, Y = fields[:, 0], fields[:, 1]
        dN1, dY1 = reaction(N, Y, env.evaluate(t, x))
        N1 = N + dt * dN1
        Y1 = Y + dt * dY1
        dN2, dY2 = reaction(N1, Y1, env.evaluate(t + dt, x))
        N = N + 0.5 * dt * (dN1 + dN2)
        Y = Y + 0.5 * dt * (dY1 + dY2)
        t = k * dt
        if k % every == 0:
            times.append(t)
            Ns.append(N)
            Ys.append(Y)
    return np.array(times), np.stack(Ns), np.stack(Ys)


class TestStackedStepper:
    def _pair(self, env, space):
        x = space.centers
        N0 = 1.0 + 0.3 * np.cos(2 * np.pi * x)
        Y0 = N0 * 0.2 * np.sin(4 * np.pi * x)
        traj = run_kbm(MacroState(0.0, N0, Y0, space), env, 1.0, 1e-3, 2.0, 0.25)
        ref = _reference_run(N0, Y0, env, 1.0, 1e-3, 2000, 250, space)
        return traj, ref

    def test_bit_identical_in_a_static_environment(self, space64):
        traj, (times, N, Y) = self._pair(SIN_ENV, space64)
        assert np.array_equal(traj.times, times)
        assert np.array_equal(traj.N, N)
        assert np.array_equal(traj.Y, Y)

    def test_drifting_environment_moves_by_roundoff(self, space64):
        # run_kbm reads the stage-2 field at t0 + k dt, the reference at its running t + dt.
        env = Environment(kind="affine_in_t", offset=0.1, rate=0.8)
        traj, (times, N, Y) = self._pair(env, space64)
        assert np.array_equal(traj.times, times)
        assert np.abs(traj.N - N).max() <= 1e-13 * np.abs(N).max()
        assert np.abs(traj.Y - Y).max() <= 1e-13 * np.abs(Y).max()

    def test_one_step_and_one_y_opt_per_time_level(self, space64, count_calls):
        # The trace harness counts spans of the module-global kbm_step, so
        # run_kbm must call it by that name, once per step.
        count_calls(simkbm.kbm_solver, "kbm_step")
        counts = count_calls(Environment, "evaluate")
        run_kbm(MacroState(0.0, np.ones(64), np.zeros(64), space64), SIN_ENV, 1.0, 1e-3, 0.05, 0.01)
        assert counts == {"kbm_step": 50, "evaluate": 1}

    @pytest.mark.parametrize(
        "env",
        [
            Environment(kind="constant", offset=-0.3),
            Environment(kind="affine_in_t", offset=0.1, rate=-0.7),
            SIN_ENV,
            Environment(kind="sinusoidal_plus_drift", amplitude=0.4, wavenumber=2, rate=0.9),
        ],
        ids=lambda env: env.kind,
    )
    def test_y_opt_fields_equal_evaluate_bit_for_bit(self, space64, env, monkeypatch):
        seen = []
        step = simkbm.kbm_solver.kbm_step

        def recording(U, t, y_now, y_next, *args):
            seen.append((y_now.copy(), y_next.copy()))
            return step(U, t, y_now, y_next, *args)

        monkeypatch.setattr(simkbm.kbm_solver, "kbm_step", recording)
        t0, dt, x = 0.3, 1e-3, space64.centers
        run_kbm(MacroState(t0, np.ones(64), np.zeros(64), space64), env, 1.0, dt, 0.35, 0.01)
        assert len(seen) == 50
        for k, (y_now, y_next) in enumerate(seen):
            assert np.array_equal(y_now, env.evaluate(t0 + k * dt, x))
            assert np.array_equal(y_next, env.evaluate(t0 + (k + 1) * dt, x))


# First row of the 64-cell diffusion step at dt = 1e-3: its absolute values sum to 1.68.
_HEAT_ROW = PeriodicHeatCN(64, 1.0 / 64, 1e-3).step(np.eye(64))[0]

# (N0, Z0, environment, A, dt) making each stage the first to see the failure.
_NON_FINITE_Y = {
    # Y at 1.7e308 with the signs of that row: the exact diffusion step of Y
    # overflows at x_0 under any summation order, N untouched.
    "diffusion": (1.0, 1.7e308 * np.sign(_HEAT_ROW), Environment(kind="constant"), 1.0, 1e-3),
    # A (Y - y_opt N) overflows at the stage-1 field: Y1 = -inf.
    "heun stage 1": (1.0, 2.0, Environment(kind="constant"), 1e308, 1e-3),
    # The same term overflows at the stage-2 field only: Y2 = +inf, N2 near 1.
    "heun stage 2": (1.0, 0.0, Environment(kind="affine_in_t", rate=2000.0), 1e308, 1e-3),
}

_FLOOR_BREACH = {
    # N at the floor, plus 1 where that row is negative: the step takes N at x_0 to -0.34.
    "diffusion": (1e-12 + (_HEAT_ROW < 0), 0.0, Environment(kind="constant"), 1.0, 1e-3),
    "heun stage 1": (2e-12, 5.0, Environment(kind="constant"), 0.01, 1e-1),
    # y_opt jumps to 5 by the stage-2 time: the Heun average dips below the floor.
    "heun stage 2": (2e-12, 0.0, Environment(kind="affine_in_t", rate=50.0), 1.0, 1e-1),
}


class TestStageChecks:
    def _run_one_step(self, case, space):
        n0, z0, env, A, dt = case
        m0 = MacroState(0.0, np.full(64, n0), np.full(64, n0 * z0), space)
        with np.errstate(all="ignore"):
            return run_kbm(m0, env, A, dt, dt, dt)

    @pytest.mark.parametrize("stage", [*_NON_FINITE_Y, "diffusion returns NaN"])
    def test_non_finite_y_aborts(self, space64, monkeypatch, stage):
        case = _NON_FINITE_Y.get(stage)
        if case is None:
            # Whatever the diffusion symbol, a step that hands back a NaN in Y.
            step = PeriodicHeatCN.step

            def nan_step(heat, field):
                out = step(heat, field)
                out[0, 1] = np.nan
                return out

            monkeypatch.setattr(PeriodicHeatCN, "step", nan_step)
            stage, case = "diffusion", (1.0, 0.0, Environment(kind="constant"), 1.0, 1e-3)
        with pytest.raises(SimulationError, match="non-finite") as info:
            self._run_one_step(case, space64)
        assert info.value.report == {"t": 0.0, "stage": stage}
        assert stage in str(info.value)

    @pytest.mark.parametrize("stage", list(_FLOOR_BREACH))
    def test_floor_breach_names_stage(self, space64, stage):
        with pytest.raises(SimulationError, match="floor") as info:
            self._run_one_step(_FLOOR_BREACH[stage], space64)
        report = info.value.report
        assert (report["stage"], report["t"]) == (stage, 0.0)
        assert report["min_N"] < report["floor"]
        assert stage in str(info.value)


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
