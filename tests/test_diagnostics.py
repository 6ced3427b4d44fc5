import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simkbm import diagnostics, measures
from simkbm import (
    Environment,
    MacroState,
    SimParams,
    SimulationError,
    TorusGrid,
    TraitGrid,
    fit_power_law,
    gaussian_deviation,
    gaussian_initial_state,
    holder_quotient,
    kbm_residuals,
    kinetic_moments,
    run_kbm,
    run_sim,
)
from simkbm.diagnostics import burn_in_time
from simkbm.measures import GridMeasure, gaussian_on_grid, wasserstein
from simkbm.sim_solver import KineticState

SIN_ENV = Environment(kind="sinusoidal_in_x", amplitude=0.5, wavenumber=1)
ZERO_ENV = Environment(kind="constant", offset=0.0)


def gauss_dev(state, A):
    """gaussian_deviation with the state's own moments."""
    moms = kinetic_moments(state)
    return gaussian_deviation(state, A, moms.N, moms.Z)


class TestGaussianDeviation:
    def test_exact_gaussian_columns_sit_at_the_floor(self, space64):
        trait = TraitGrid(-8.5, 8.5, 512)
        state = gaussian_initial_state(space64, trait, np.ones(64), np.zeros(64), 1.0)
        assert gauss_dev(state, 1.0) <= 2 * trait.spacing

    def test_wrong_variance_detected(self, space64):
        # Same-mean Gaussians: W2 distance is the gap of standard deviations.
        trait = TraitGrid(-8.5, 8.5, 512)
        state = gaussian_initial_state(space64, trait, np.ones(64), np.zeros(64), 2.0)
        dev = gauss_dev(state, 1.0)
        assert dev == pytest.approx(np.sqrt(2.0) - 1.0, abs=1e-3)

    def test_deviation_shrinks_with_faster_mixing(self):
        space = TorusGrid(32, 1.0)
        trait = TraitGrid(-8.5, 8.5, 256)
        devs = []
        for gamma in (4.0, 8.0, 16.0):
            state = gaussian_initial_state(space, trait, np.ones(32), np.zeros(32), 1.0)
            params = SimParams(A=1.0, gamma=gamma, dt=2e-3, snapshot_dt=1.0)
            traj = run_sim(state, params, SIN_ENV, 1.0)
            devs.append(gaussian_deviation(traj.snapshots[-1], 1.0, traj.N[-1], traj.Z[-1]))
        assert devs[0] >= devs[1] >= devs[2]


# Cell weights: zeros, subnormals (their cell masses once overflowed the
# segment slope h / mass), and values so small next to the rest that the CDF
# reaches 1 before the last cell (saturated tails).
_WEIGHTS = st.one_of(
    st.sampled_from([0.0, 5e-324, 2.2e-313, 1e-310, 1e-300, 1e-20]), st.floats(1e-12, 1.0)
)


@st.composite
def batched_cases(draw):
    """A state on the trait grid [-12, 12] whose columns live on [-4, 4], the
    reference variance, and the rows per W2 batch."""
    columns = draw(st.integers(4, 11))
    trait = TraitGrid(-12.0, 12.0, draw(st.integers(48, 96)))
    inner = np.flatnonzero(np.abs(trait.centers) <= 4.0)
    n = np.zeros((columns, trait.points))
    for i in range(columns):
        weights = draw(st.lists(_WEIGHTS, min_size=len(inner), max_size=len(inner)))
        n[i, inner] = weights
        n[i, inner[draw(st.integers(0, len(inner) - 1))]] += draw(st.floats(0.1, 5.0))
    state = KineticState(0.0, n, TorusGrid(columns, 1.0), trait)
    return state, draw(st.floats(0.5, 1.5)), draw(st.integers(1, columns))


def per_column_w2(state, A):
    moms = kinetic_moments(state)
    return [
        wasserstein(
            GridMeasure(state.trait, state.n[i] / moms.N[i]),
            gaussian_on_grid(moms.Z[i], A, state.trait),
            2,
        )
        for i in range(state.space.points_per_dim)
    ]


class TestBatchedGaussianDeviation:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(batched_cases())
    def test_matches_the_per_column_oracle(self, case):
        state, A, rows = case
        want = max(per_column_w2(state, A))
        with mock.patch.object(measures, "_CHUNK_CELLS", rows * state.trait.points):
            got = gauss_dev(state, A)
        assert abs(got - want) <= 1e-12 * want

    def test_every_column_matches_the_oracle(self, rng):
        trait = TraitGrid(-8.5, 8.5, 256)
        space = TorusGrid(9, 1.0)
        state = gaussian_initial_state(space, trait, np.ones(9), 0.4 * rng.normal(size=9), 1.3)
        state.n *= rng.uniform(0.5, 1.5, size=state.n.shape)
        state.n[:, :20] = 0.0
        state.n[2, 100:130] = 0.0
        moms = kinetic_moments(state)
        y = trait.centers
        target = np.exp(-((y - moms.Z[:, None]) ** 2) / 2.0) / np.sqrt(2.0 * np.pi)
        got = measures.wasserstein_rows(trait, state.n / moms.N[:, None], target, (2,))[0]
        want = np.array(per_column_w2(state, 1.0))
        assert np.abs(got - want).max() <= 1e-12 * want.max()

    def test_short_reference_reports_the_first_failing_column(self, space64):
        # Columns 40 and 50 sit 4.5 and 4 standard deviations from the top
        # end: one warning names the variance and the bounds, and the error
        # names column 40.
        trait = TraitGrid(-8.5, 8.5, 512)
        z0 = np.zeros(64)
        z0[40], z0[50] = 4.0, 4.5
        state = gaussian_initial_state(space64, trait, np.ones(64), z0, 0.25)
        with pytest.warns(RuntimeWarning, match="standard deviations") as record:
            with pytest.raises(SimulationError, match="at Z = 4 holds mass") as err:
                gauss_dev(state, 1.0)
        assert len(record) == 1 and "variance 1 " in str(record[0].message)
        assert "[-8.5, 8.5]" in str(record[0].message) and err.value.report["t"] == 0.0

    def test_profile_that_is_not_a_probability_density_raises(self, space64):
        trait = TraitGrid(-8.5, 8.5, 512)
        state = gaussian_initial_state(space64, trait, np.ones(64), np.zeros(64), 1.0)
        moms = kinetic_moments(state)
        with pytest.raises(ValueError, match="not normalized"):
            gaussian_deviation(state, 1.0, 1.5 * moms.N, moms.Z)
        state.n[37, 100] = -1e-9
        with pytest.raises(ValueError, match="nonnegative"):
            gaussian_deviation(state, 1.0, moms.N, moms.Z)

    def test_subnormal_cell_mass_gives_a_finite_distance(self):
        # A subnormal cell next to a full one: h / mass overflowed to inf and
        # the segment's quantile became 0 * inf = NaN.
        trait = TraitGrid(-12.0, 12.0, 48)
        n = np.zeros((4, 48))
        n[:, 22] = 1.0
        n[1, 21] = 2.2e-313
        state = KineticState(0.0, n, TorusGrid(4, 1.0), trait)
        want = per_column_w2(state, 1.0)
        assert np.all(np.isfinite(want))
        assert gauss_dev(state, 1.0) == pytest.approx(max(want), rel=1e-12)

    def test_non_finite_distance_raises(self, space64, monkeypatch):
        trait = TraitGrid(-8.5, 8.5, 512)
        state = gaussian_initial_state(space64, trait, np.ones(64), np.zeros(64), 1.0)
        state = KineticState(0.75, state.n, space64, trait)
        wasserstein_rows = measures.wasserstein_rows
        batches = []

        def nan_in_third_batch(*args):
            dist = wasserstein_rows(*args)
            batches.append(dist.shape[1])
            if len(batches) == 3:
                dist[0, 1] = np.nan
            return dist

        monkeypatch.setattr(diagnostics, "wasserstein_rows", nan_in_third_batch)
        with pytest.raises(SimulationError, match="column 9 .* is nan") as err:
            gauss_dev(state, 1.0)
        assert batches == [4, 4, 4]
        assert err.value.report == {"t": 0.75, "column": 9}

    def test_one_call_peaks_below_one_mebibyte(self, space64, rng):
        trait = TraitGrid(-8.5, 8.5, 512)
        z0 = 0.5 * np.sin(2 * np.pi * space64.centers)
        state = gaussian_initial_state(space64, trait, np.ones(64), z0, 1.3)
        state.n *= rng.uniform(0.8, 1.2, size=state.n.shape)
        moms = kinetic_moments(state)
        tracemalloc.start()
        try:
            gaussian_deviation(state, 1.0, moms.N, moms.Z)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2**20


class TestKbmResiduals:
    def test_vanishes_on_macroscopic_trajectory(self, space64):
        # A trajectory produced by the macroscopic solver satisfies its own
        # system up to scheme + differencing error.
        m0 = MacroState(0.0, np.ones(64), np.zeros(64), space64)
        traj = run_kbm(m0, SIN_ENV, 1.0, 5e-5, 5.0, 0.02)
        res = kbm_residuals(traj.times, traj.N, traj.Z, space64, SIN_ENV, 1.0)
        window = res.times >= 0.5
        worst = max(np.abs(res.phi_N[window]).max(), np.abs(res.phi_Z[window]).max())
        assert worst <= 1e-3

    def test_manufactured_forcing_recovered(self):
        # Prescribe smooth fields, compute their residual analytically, and
        # check the finite-difference recovery to differencing accuracy.
        space = TorusGrid(256, 1.0)
        x = space.centers
        times = np.arange(0, 1.0 + 1e-12, 0.01)
        a, b, w, A = 0.3, 0.5, 2 * np.pi, 1.0
        T, X = np.meshgrid(times, x, indexing="ij")
        decay_n, decay_z = np.exp(-T), np.exp(-2 * T)
        N = 1 + a * np.cos(w * X) * decay_n
        Z = b * np.sin(w * X) * decay_z
        dndt = -a * np.cos(w * X) * decay_n
        lap_n = -(w**2) * a * np.cos(w * X) * decay_n
        grad_n = -w * a * np.sin(w * X) * decay_n
        dzdt = -2 * b * np.sin(w * X) * decay_z
        lap_z = -(w**2) * b * np.sin(w * X) * decay_z
        grad_z = w * b * np.cos(w * X) * decay_z
        phi_n_true = (dndt - lap_n) / N - 1 + 0.5 * Z**2 + N
        phi_z_true = dzdt - lap_z - 2 * grad_n * grad_z / N + A * Z

        res = kbm_residuals(times, N, Z, space, ZERO_ENV, A)
        assert np.abs(res.phi_N - phi_n_true[1:-1]).max() <= 5e-3
        assert np.abs(res.phi_Z - phi_z_true[1:-1]).max() <= 5e-3

    def test_needs_three_snapshots(self, space64):
        with pytest.raises(ValueError, match="3 snapshots"):
            kbm_residuals(
                np.array([0.0, 0.1]), np.ones((2, 64)), np.zeros((2, 64)),
                space64, ZERO_ENV, 1.0,
            )

    def test_needs_uniform_cadence(self, space64):
        with pytest.raises(ValueError, match="uniformly spaced"):
            kbm_residuals(
                np.array([0.0, 0.1, 0.35]), np.ones((3, 64)), np.zeros((3, 64)),
                space64, ZERO_ENV, 1.0,
            )


def all_pairs_holder(times, period, centers, field, theta):
    """|f(t,x) - f(s,y)| / (|t-s| + d(x,y))^theta maximized over every pair, one row at a time."""
    t = np.repeat(times, len(centers))
    x = np.tile(centers, len(times))
    f = field.ravel()
    best = 0.0
    for i in range(len(f) - 1):
        dx = np.abs(x[i + 1:] - x[i])
        dist = np.abs(t[i + 1:] - t[i]) + np.minimum(dx, period - dx)
        keep = dist > 0
        if keep.any():
            best = max(best, float((np.abs(f[i + 1:] - f[i])[keep] / dist[keep] ** theta).max()))
    return best


def lattice_field(kind, times, centers, rng):
    if kind == "random":
        return rng.normal(size=(len(times), len(centers)))
    # smooth: a travelling wave that decays and drifts, so pairs far apart in time matter
    T, X = np.meshgrid(times, centers, indexing="ij")
    return np.sin(2 * np.pi * X - 3 * T) * np.exp(-T) + 0.4 * T


class TestHolderQuotient:
    @pytest.mark.parametrize("theta", [0.3, 0.5, 0.9])
    @pytest.mark.parametrize("kind", ["random", "smooth"])
    @pytest.mark.parametrize("snapshots,points,period", [(3, 4, 1.0), (5, 16, 2.0), (13, 64, 1.0)])
    def test_matches_all_pairs(self, snapshots, points, period, kind, theta, rng):
        space = TorusGrid(points, period)
        times = np.arange(snapshots) * 0.05
        field = lattice_field(kind, times, space.centers, rng)
        want = all_pairs_holder(times, period, space.centers, field, theta)
        assert want > 0
        assert holder_quotient(times, space, field, theta) == pytest.approx(want, rel=1e-12)

    def test_time_ramp_peaks_at_the_widest_lag(self, space64):
        # f = t: lag a scores (a tau)^(1 - theta), so the scan must reach the last lag.
        times = np.arange(21) * 0.05
        field = np.repeat(times[:, None], 64, axis=1)
        assert holder_quotient(times, space64, field, 0.5) == pytest.approx(1.0, rel=1e-12)

    def test_constant_field_is_zero(self, space64):
        times = np.linspace(0, 1, 11)
        assert holder_quotient(times, space64, np.ones((11, 64)), 0.5) == 0.0

    def test_scaling_homogeneity(self, space64):
        times = np.linspace(0, 1, 11)
        field = np.sin(2 * np.pi * space64.centers)[None, :] * np.ones((11, 1))
        q1 = holder_quotient(times, space64, field, 0.5)
        q3 = holder_quotient(times, space64, 3.0 * field, 0.5)
        assert q3 == pytest.approx(3.0 * q1, rel=1e-12)

    @pytest.mark.parametrize(
        "times,message",
        [([0.0, 0.1, 0.35], "uniformly spaced"), ([0.0, 0.0, 0.0], "increase")],
    )
    def test_needs_increasing_uniform_cadence(self, space64, times, message):
        with pytest.raises(ValueError, match=message):
            holder_quotient(np.array(times), space64, np.ones((3, 64)), 0.5)

    def test_memory_stays_one_lag_wide(self, space64, rng):
        # One (snapshots, points, points) array is 3.2 MiB at 101 x 64.
        times = np.arange(101) * 0.05
        field = rng.normal(size=(101, 64))
        tracemalloc.start()
        try:
            holder_quotient(times, space64, field, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20

    def test_chunked_gap_matches_one_shot(self, rng):
        # 8 start-time chunks at lag 0 and 3 at the last lag the test reads.
        space = TorusGrid(16, 1.0)
        times = np.arange(40) * 0.05
        field = rng.normal(size=(40, 16))
        want = holder_quotient(times, space, field, 0.5)
        with mock.patch.object(diagnostics, "_GAP_CHUNK", 5 * 16**2):
            for lag in (0, 1, 7, 25):
                gap = field[lag:, None, :] - field[: 40 - lag, :, None]
                np.testing.assert_array_equal(
                    diagnostics._max_gap(field, lag), np.abs(gap).max(axis=0)
                )
            assert holder_quotient(times, space, field, 0.5) == want

    @pytest.mark.parametrize("theta", [0.0, 1.0, -0.5])
    def test_rejects_bad_exponent(self, space64, theta):
        with pytest.raises(ValueError, match="theta"):
            holder_quotient(np.zeros(2), space64, np.ones((2, 64)), theta)


class TestPowerLawFit:
    def test_exact_recovery(self):
        gammas = [2.0, 4.0, 8.0, 16.0, 32.0]
        fit = fit_power_law(gammas, [g**-0.5 for g in gammas])
        assert fit.theta_hat == pytest.approx(0.5, abs=1e-12)
        assert fit.r2 == pytest.approx(1.0, abs=1e-12)

    def test_constant_errors_give_zero_exponent(self):
        fit = fit_power_law([2.0, 4.0, 8.0], [0.3, 0.3, 0.3])
        assert fit.theta_hat == pytest.approx(0.0, abs=1e-12)

    def test_perturbed_power_law(self, rng):
        gammas = [2.0, 4.0, 8.0, 16.0, 32.0]
        errors = [3 * g**-0.3 * (1 + rng.uniform(-0.01, 0.01)) for g in gammas]
        fit = fit_power_law(gammas, errors)
        assert 0.27 <= fit.theta_hat <= 0.33
        assert fit.r2 >= 0.99

    def test_rejects_short_or_nonpositive_input(self):
        with pytest.raises(ValueError, match="at least 3"):
            fit_power_law([2.0, 4.0], [1.0, 0.5])
        with pytest.raises(ValueError, match="positive"):
            fit_power_law([2.0, 4.0, 8.0], [1.0, 0.0, 0.5])


def test_burn_in_window():
    assert burn_in_time(4.0, 1e-3) == pytest.approx(0.5)
    assert burn_in_time(4.0, 0.2) == pytest.approx(1.0)  # 5 dt dominates
