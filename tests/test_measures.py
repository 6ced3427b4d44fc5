from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_transport
import simkbm.measures as measures
from simkbm import (
    GridMeasure,
    TraitGrid,
    gaussian_on_grid,
    wasserstein,
    wasserstein_oracle,
)
from simkbm.property_checks import random_mixtures

PHI_OF_ONE = 0.8413447460685429  # standard normal CDF at 1


def atom_measure(grid, index):
    dens = np.zeros(grid.points)
    dens[index] = 1.0 / grid.spacing
    return GridMeasure(grid, dens)


def quantile_at(mu, u):
    """mu's quantile at the levels u, read off the cells that wasserstein_rows
    would give segments starting at u."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    cum = measures.cdf_rows(mu.density[None], mu.grid.spacing)[0]
    j = np.searchsorted(cum, u, side="right") - 1
    q, _ = measures._quantile_lines(cum, j, u, u, mu.grid.edges, mu.grid.spacing)
    return q


def wide_mixture(rng, grid):
    """A random Gaussian mixture wider than random_mixtures draws: means within
    1 of the grid's midpoint and variances in (0.5, 1)."""
    k = int(rng.integers(1, 4))
    weights = rng.dirichlet(np.ones(k))
    means = 0.5 * (grid.y_min + grid.y_max) + rng.uniform(-1.0, 1.0, size=k)
    variances = rng.uniform(0.5, 1.0, size=k)
    y = grid.centers
    dens = sum(
        w * np.exp(-((y - m) ** 2) / (2.0 * v)) / np.sqrt(2.0 * np.pi * v)
        for w, m, v in zip(weights, means, variances)
    )
    return GridMeasure(grid, dens / (grid.spacing * dens.sum()))


def integer_grid():
    # Centers at the integers -8 .. 7, so atoms can sit exactly on 0 and 1.
    return TraitGrid(-8.5, 7.5, 16)


class TestGridMeasure:
    def test_rejects_negative_density(self, trait256):
        dens = np.ones(256)
        dens[3] = -1e-9
        with pytest.raises(ValueError, match="nonnegative"):
            GridMeasure(trait256, dens)

    def test_rejects_zero_mass(self, trait256):
        with pytest.raises(ValueError, match="positive mass"):
            GridMeasure(trait256, np.zeros(256))

    def test_rejects_shape_mismatch(self, trait256):
        with pytest.raises(ValueError, match="shape"):
            GridMeasure(trait256, np.ones(255))

    def test_probability_gate(self, trait256):
        mu = GridMeasure(trait256, np.full(256, 2.0))
        with pytest.raises(ValueError, match="not normalized"):
            mu.require_probability()

    def test_compares_and_hashes_by_identity(self, trait256):
        mu = GridMeasure(trait256, np.ones(256))
        nu = GridMeasure(trait256, np.ones(256))
        assert mu == mu and mu != nu
        assert mu in [nu, mu] and nu not in [mu]
        assert len({mu, nu, mu}) == 2


class TestRequireRows:
    def test_raises_for_the_first_failing_row(self, trait256):
        rows = np.full((4, 256), 1.0 / 16.0)
        rows[1] *= 2.0
        rows[2, 5] = -1.0
        rows[3, 7], rows[3, 8] = np.nan, -1.0
        with pytest.raises(ValueError, match="nonnegative"):
            measures.require_rows(trait256, rows)
        with pytest.raises(ValueError, match=r"not normalized: mass = 2\.0"):
            measures.require_rows(trait256, rows, probability=True)
        # A NaN row that is also negative fails the finiteness check first.
        with pytest.raises(ValueError, match="density contains non-finite entries"):
            measures.require_rows(trait256, rows[3:])
        with pytest.raises(ValueError, match="density contains non-finite entries"):
            GridMeasure(trait256, rows[3])

    def test_a_finite_row_whose_mass_overflows_is_a_grid_measure(self, trait256):
        rows = np.full((2, 256), 1e307)
        with np.errstate(over="ignore"):
            assert measures.require_rows(trait256, rows).tolist() == [np.inf, np.inf]
            assert GridMeasure(trait256, rows[0]).mass == np.inf
            with pytest.raises(ValueError, match="not normalized: mass = inf"):
                measures.require_rows(trait256, rows, probability=True)

    def test_masses_match_grid_measure_bit_for_bit(self, trait256, rng):
        rows = rng.random((50, 256)) * 10.0 ** rng.uniform(-300.0, 300.0, size=(50, 1))
        masses = measures.require_rows(trait256, rows).tolist()
        assert masses == [GridMeasure(trait256, row).mass for row in rows]
        assert masses == [trait256.spacing * row.sum() for row in rows]


class TestGaussianOnGrid:
    def test_unit_mass(self, trait512):
        assert abs(gaussian_on_grid(0.0, 1.0, trait512).mass - 1.0) <= 1e-10

    def test_moments_of_variance_A(self, trait512):
        _, variance = measures.moment_rows(
            trait512, gaussian_on_grid(0.0, 1.5, trait512).density[None]
        )
        assert variance[0] == pytest.approx(1.5, abs=1e-8)

    def test_warns_near_boundary(self, trait512):
        with pytest.warns(RuntimeWarning, match="standard deviations"):
            gaussian_on_grid(5.0, 1.0, trait512)  # 8 - 5 = 3 < 6 sigma

    def test_rejects_nonpositive_variance(self, trait512):
        with pytest.raises(ValueError, match="variance"):
            gaussian_on_grid(0.0, 0.0, trait512)

    @pytest.mark.parametrize("mean, variance", [(0.0, 1.0), (-1.3, 0.37), (2.0, 0.8)])
    def test_samples_the_closed_form(self, trait512, mean, variance):
        y = trait512.centers
        want = np.exp(-((y - mean) ** 2) / (2.0 * variance)) / np.sqrt(2.0 * np.pi * variance)
        assert np.array_equal(gaussian_on_grid(mean, variance, trait512).density, want)


class TestMoments:
    def test_shifted_gaussian(self, trait512):
        mean, variance = measures.moment_rows(
            trait512, gaussian_on_grid(2.0, 1.0, trait512).density[None]
        )
        assert mean[0] == pytest.approx(2.0, abs=1e-8)
        assert variance[0] == pytest.approx(1.0, abs=1e-7)

    def test_single_cell_variance_floor(self, trait256):
        variance = measures.moment_rows(trait256, atom_measure(trait256, 100).density[None])[1]
        assert 0.0 <= variance[0] <= trait256.spacing**2 / 12 + 1e-12

    def test_mixture_moments(self, trait512):
        dens = 0.5 * gaussian_on_grid(-2.0, 1.0, trait512).density
        dens += 0.5 * gaussian_on_grid(2.0, 1.0, trait512).density
        mean, variance = measures.moment_rows(trait512, dens[None])
        assert mean[0] == pytest.approx(0.0, abs=1e-7)
        assert variance[0] == pytest.approx(5.0, abs=1e-6)


class TestQuantile:
    def test_median_of_symmetric(self, trait512):
        mu = gaussian_on_grid(0.5, 1.0, trait512)
        assert quantile_at(mu, 0.5)[0] == pytest.approx(0.5, abs=trait512.spacing)

    def test_standard_normal_at_one_sigma(self, trait512):
        mu = gaussian_on_grid(0.0, 1.0, trait512)
        assert quantile_at(mu, PHI_OF_ONE)[0] == pytest.approx(1.0, abs=2 * trait512.spacing)

    def test_monotone(self, trait512, rng):
        mu = GridMeasure(trait512, random_mixtures(rng, trait512, 1)[0])
        u = np.sort(rng.uniform(0.01, 0.99, size=200))
        q = quantile_at(mu, u)
        assert np.all(np.diff(q) >= -1e-14)


class TestWasserstein:
    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_two_atoms(self, p):
        g = integer_grid()
        mu, nu = atom_measure(g, 8), atom_measure(g, 9)  # atoms at 0 and 1
        assert wasserstein(mu, nu, p) == pytest.approx(1.0, abs=1e-14)
        assert wasserstein_oracle(mu, nu, p) == pytest.approx(1.0, abs=1e-14)

    def test_translation_of_identical_shapes(self, trait512):
        mu = gaussian_on_grid(0.0, 1.0, trait512)
        nu = gaussian_on_grid(2.0, 1.0, trait512)
        assert wasserstein(mu, nu, 2) == pytest.approx(2.0, abs=1e-6)

    def test_uniform_stretch(self, trait512):
        c = trait512.centers
        mu = GridMeasure(trait512, np.where((c > 0) & (c < 1), 1.0, 0.0))
        nu = GridMeasure(trait512, np.where((c > 0) & (c < 2), 0.5, 0.0))
        assert wasserstein(mu, nu, 2) == pytest.approx(1 / np.sqrt(3), abs=1e-6)

    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_distance_to_point_mass_is_pth_moment(self, p, rng):
        # W_p(mu, delta)^p equals the p-th moment of |y - ybar| under mu.
        # Exact for the atomized oracle; the quantile path spreads the
        # single-cell "delta" over its cell, an O(h) perturbation.
        g = integer_grid()
        mu = wide_mixture(rng, g)
        delta = atom_measure(g, 10)  # atom exactly at 2.0
        ybar = 2.0
        target = float(np.sum(mu.cell_masses * np.abs(g.centers - ybar) ** p))
        assert wasserstein_oracle(mu, delta, p) ** p == pytest.approx(target, rel=1e-12)
        assert wasserstein(mu, delta, p) ** p == pytest.approx(
            target, rel=4 * g.spacing, abs=1e-9
        )

    def test_rejects_bad_order(self, trait512):
        mu = gaussian_on_grid(0.0, 1.0, trait512)
        with pytest.raises(ValueError, match="p must be"):
            wasserstein(mu, mu, 3)

    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_subnormal_cell_mass(self, p):
        # Weights 2.2e-313 and 1.0 side by side: h / mass overflowed to inf
        # and the subnormal cell's segment gave 0 * inf = NaN.
        g = TraitGrid(-12.0, 12.0, 48)
        dens = np.zeros(48)
        dens[20], dens[21] = 2.2e-313, 1.0
        mu = GridMeasure(g, dens / (g.spacing * dens.sum()))
        nu = gaussian_on_grid(0.0, 1.0, g)
        d = wasserstein(mu, nu, p)
        assert np.isfinite(d) and d == pytest.approx(wasserstein(nu, mu, p), rel=1e-14)
        assert d == pytest.approx(wasserstein_oracle(mu, nu, p), abs=g.spacing)

    def test_one_ulp_segment_takes_the_cell_it_lies_in(self):
        # Breakpoints 1 - 2^-52 and 1 - 2^-53 are adjacent doubles: the
        # segment's midpoint rounds to its start, and a midpoint lookup read
        # the quantile line of the cell below (-6 at both ends).
        g = TraitGrid(-8.0, 8.0, 16)
        cum = np.array([0.0, 0.5, 0.9999999999999998, 0.9999999999999999] + [1.0] * 13)
        mu = gaussian_on_grid(0.0, 1.0, g)  # only its grid is read
        q_lo, q_hi = reference_transport._segment_lines(mu, cum, cum[2:3], cum[3:4])
        assert q_lo[0] == pytest.approx(g.edges[2], abs=1e-12)
        assert q_hi[0] == pytest.approx(g.edges[3], abs=1e-12)

    def test_rejects_unnormalized(self, trait512):
        mu = gaussian_on_grid(0.0, 1.0, trait512)
        nu = GridMeasure(trait512, 2.0 * mu.density)
        with pytest.raises(ValueError, match="not normalized"):
            wasserstein(mu, nu, 2)

    def test_builds_each_cdf_once(self, trait512, monkeypatch):
        cdf_calls, rows_calls = [], []
        cdf_rows, wasserstein_rows = measures.cdf_rows, measures.wasserstein_rows
        monkeypatch.setattr(
            measures, "cdf_rows", lambda d, h: cdf_calls.append(d.copy()) or cdf_rows(d, h)
        )
        monkeypatch.setattr(
            measures,
            "wasserstein_rows",
            lambda *a: rows_calls.append(a) or wasserstein_rows(*a),
        )
        mu = gaussian_on_grid(0.0, 1.0, trait512)
        nu = gaussian_on_grid(1.0, 1.0, trait512)
        wasserstein(mu, nu, 2)
        assert len(cdf_calls) == 2 and len(rows_calls) == 1
        assert np.array_equal(cdf_calls[0], mu.density[None])
        assert np.array_equal(cdf_calls[1], nu.density[None])

    def test_rejects_two_grids(self):
        mu = gaussian_on_grid(0.0, 1.0, TraitGrid(-8.0, 8.0, 512))
        nu = gaussian_on_grid(2.0, 1.0, TraitGrid(-7.0, 9.0, 384))
        with pytest.raises(ValueError, match="two trait grids"):
            wasserstein(mu, nu, 2)


# Cell weights: zeros, subnormals, and values so small next to the rest that
# the CDF reaches 1 before the last cell (saturated tails).
_WEIGHTS = st.one_of(
    st.sampled_from([0.0, 5e-324, 2.2e-313, 1e-310, 1e-300, 1e-20]), st.floats(1e-12, 1.0)
)


@st.composite
def row_batches(draw):
    """Two batches of normalized density rows on one grid, and the rows per
    batch of wasserstein_rows."""
    rows = draw(st.integers(1, 9))
    grid = TraitGrid(-6.0, 6.0, draw(st.integers(16, 80)))

    def batch():
        dens = np.zeros((rows, grid.points))
        for i in range(rows):
            dens[i] = draw(st.lists(_WEIGHTS, min_size=grid.points, max_size=grid.points))
            dens[i, draw(st.integers(0, grid.points - 1))] += draw(st.floats(0.1, 5.0))
        return dens / (grid.spacing * dens.sum(axis=1))[:, None]

    return grid, batch(), batch(), draw(st.integers(1, rows))


class TestWassersteinRows:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(row_batches())
    def test_matches_the_scalar_distance(self, case):
        grid, mu, nu, per_batch = case
        with mock.patch.object(measures, "_CHUNK_CELLS", per_batch * grid.points):
            got = measures.wasserstein_rows(grid, mu, nu, (1, 2, 4))
        for i in range(len(mu)):
            pair = GridMeasure(grid, mu[i]), GridMeasure(grid, nu[i])
            for k, p in enumerate((1, 2, 4)):
                want = reference_transport.wasserstein(*pair, p)
                assert abs(got[k, i] - want) <= 1e-12 * want, (i, p)

    def test_one_ulp_merged_segment(self):
        # Breakpoints 1 - 2^-52 (mu) and 1 - 2^-53 (nu) are adjacent doubles.
        # Between them mu's quantile crosses half of cell 2 and nu's sits at
        # its lower edge, and on the last segment the roles swap: each adds
        # 2^-53 (h/2)^2 / 3 to W2^2, far more than the rest of the CDFs.
        g = TraitGrid(-8.0, 8.0, 16)
        cum_mu, cum_nu = (np.array([[0.0, 0.5, 1.0 - e] + [1.0] * 14]) for e in (2**-52, 2**-53))
        got = measures._merged_rows(g, cum_mu, cum_nu, (2,))[0][0]
        assert got == pytest.approx(np.sqrt(2.0**-52 / 12) * g.spacing, rel=1e-9)

    @pytest.mark.parametrize("bad", ["mu", "nu", "both"])
    def test_rejects_unnormalized_rows(self, trait256, bad):
        # Row 1 of mu weighs 2 and row 0 of nu weighs 3 where they are bad:
        # the error is require_rows', for mu's row when both batches have one.
        g = gaussian_on_grid(0.0, 1.0, trait256).density
        mu, nu = np.stack((g, g)), np.stack((g, g))
        if bad != "nu":
            mu[1] *= 2.0
        if bad != "mu":
            nu[0] *= 3.0
        mass = {"mu": 2.0, "nu": 3.0, "both": 2.0}[bad] * (trait256.spacing * g.sum())
        with pytest.raises(ValueError, match=f"not normalized: mass = {mass:.12f} "):
            measures.wasserstein_rows(trait256, mu, nu, (2,))

    def test_rejects_bad_order(self, trait256):
        cum = measures.cdf_rows(gaussian_on_grid(0.0, 1.0, trait256).density[None], 1.0)
        with pytest.raises(ValueError, match="p must be"):
            measures.wasserstein_rows(trait256, cum, cum, (2, 3))


def numpy_scalar_oracle(mu, nu, p):
    """The north-west-corner loop on numpy scalars, as wasserstein_oracle ran it
    before its loop moved to Python floats: the bit-for-bit reference."""
    xu, wu = measures._sorted_atoms(mu)
    xv, wv = measures._sorted_atoms(nu)
    wu = wu.copy()
    wv = wv.copy()
    i = j = 0
    cost = 0.0
    while i < len(xu) and j < len(xv):
        f = min(wu[i], wv[j])
        cost += f * abs(xu[i] - xv[j]) ** p
        wu[i] -= f
        wv[j] -= f
        if wu[i] == 0.0:
            i += 1
        if wv[j] == 0.0:
            j += 1
    return cost ** (1.0 / p)


def with_zero_cells(mu, cells):
    dens = mu.density.copy()
    dens[cells] = 0.0
    return GridMeasure(mu.grid, dens / (mu.grid.spacing * dens.sum()))


class TestWassersteinOracle:
    def test_identical_inputs(self, trait256, rng):
        mu = GridMeasure(trait256, random_mixtures(rng, trait256, 1)[0])
        for p in (1, 2, 4):
            assert wasserstein_oracle(mu, mu, p) == 0.0

    @pytest.mark.parametrize("points", [64, 256])
    def test_bit_identical_to_the_numpy_scalar_loop(self, points, rng):
        grid = TraitGrid(-4.0, 4.0, points)
        for _ in range(100):
            mu = GridMeasure(grid, random_mixtures(rng, grid, 1)[0])
            nu = GridMeasure(grid, random_mixtures(rng, grid, 1)[0])
            for p in (1, 2, 4):
                assert wasserstein_oracle(mu, nu, p) == numpy_scalar_oracle(mu, nu, p)

    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_edge_cases_bit_identical(self, trait256, rng, p):
        g = integer_grid()
        mu = GridMeasure(trait256, random_mixtures(rng, trait256, 1)[0])
        nu = GridMeasure(trait256, random_mixtures(rng, trait256, 1)[0])
        holes = with_zero_cells(mu, np.r_[0:90, 120:125, 131, 200:256])
        # Dyadic weights on both sides: every pairing empties both atoms at
        # once, down to the last step.
        c = g.centers
        left = GridMeasure(g, np.where((c >= -6) & (c <= -3), 0.25, 0.0))
        right = GridMeasure(g, np.where((c >= 2) & (c <= 5), 0.25, 0.0))
        pairs = [
            (mu, mu),
            (atom_measure(g, 8), atom_measure(g, 8)),
            (atom_measure(g, 3), wide_mixture(rng, g)),
            (wide_mixture(rng, g), atom_measure(g, 12)),
            (holes, nu),
            (nu, holes),
            (holes, with_zero_cells(nu, np.r_[0:100, 140:256])),
            (left, right),
        ]
        for a, b in pairs:
            assert wasserstein_oracle(a, b, p) == numpy_scalar_oracle(a, b, p)
        assert wasserstein_oracle(mu, mu, p) == 0.0
        assert wasserstein_oracle(atom_measure(g, 8), atom_measure(g, 8), p) == 0.0
        assert wasserstein_oracle(left, right, p) == 8.0

    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_agreement_on_random_pairs(self, trait256, rng, p):
        tol = max(1e-6, 2 * trait256.spacing)
        for _ in range(100):
            mu = GridMeasure(trait256, random_mixtures(rng, trait256, 1)[0])
            nu = GridMeasure(trait256, random_mixtures(rng, trait256, 1)[0])
            gap = abs(wasserstein(mu, nu, p) - wasserstein_oracle(mu, nu, p))
            assert gap <= tol


class TestMetricProperties:
    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_triangle_inequality(self, trait256, rng, p):
        for _ in range(25):
            mu = GridMeasure(trait256, random_mixtures(rng, trait256, 1)[0])
            nu = GridMeasure(trait256, random_mixtures(rng, trait256, 1)[0])
            rho = GridMeasure(trait256, random_mixtures(rng, trait256, 1)[0])
            lhs = wasserstein(mu, rho, p)
            rhs = wasserstein(mu, nu, p) + wasserstein(nu, rho, p)
            assert lhs <= rhs + 1e-9

    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_translation_invariance_exact(self, trait256, rng, p):
        mu = GridMeasure(trait256, random_mixtures(rng, trait256, 1)[0])
        nu = GridMeasure(trait256, random_mixtures(rng, trait256, 1)[0])
        a = 3.0  # shift both grids: densities unchanged, supports translated
        shifted = TraitGrid(trait256.y_min + a, trait256.y_max + a, trait256.points)
        mu_s = GridMeasure(shifted, mu.density)
        nu_s = GridMeasure(shifted, nu.density)
        assert wasserstein(mu_s, nu_s, p) == pytest.approx(
            wasserstein(mu, nu, p), abs=1e-12
        )

    def test_monotone_coupling_is_optimal(self, rng):
        # Any feasible transport plan on the atomized supports costs at least
        # the oracle value (which realizes the monotone coupling).
        grid = TraitGrid(-8.0, 8.0, 64)
        for _ in range(20):
            mu = GridMeasure(grid, random_mixtures(rng, grid, 1)[0])
            nu = GridMeasure(grid, random_mixtures(rng, grid, 1)[0])
            wu = mu.cell_masses / mu.mass
            wv = nu.cell_masses / nu.mass
            plan = np.outer(wu, wv)
            # random marginal-preserving two-cycle perturbations
            for _ in range(40):
                i1, i2 = rng.integers(0, 64, size=2)
                j1, j2 = rng.integers(0, 64, size=2)
                eps = min(plan[i1, j1], plan[i2, j2]) * rng.uniform(0, 1)
                plan[i1, j1] -= eps
                plan[i2, j2] -= eps
                plan[i1, j2] += eps
                plan[i2, j1] += eps
            cost_sq = np.abs(grid.centers[:, None] - grid.centers[None, :]) ** 2
            assert wasserstein_oracle(mu, nu, 2) ** 2 <= (plan * cost_sq).sum() + 1e-12

    def test_kantorovich_rubinstein(self, trait256, rng):
        # |int f dmu - int f dnu| <= Lip(f) * W1; exact for the atomized
        # oracle, an O(h * Lip) band for the quantile distance.
        y = trait256.centers
        for _ in range(20):
            mu = GridMeasure(trait256, random_mixtures(rng, trait256, 1)[0])
            nu = GridMeasure(trait256, random_mixtures(rng, trait256, 1)[0])
            slopes = rng.uniform(-2, 2, size=4)
            knots = np.sort(rng.uniform(-6, 6, size=3))
            f = slopes[0] * y
            for s, k in zip(slopes[1:], knots):
                f = f + s * np.clip(y - k, 0.0, None)
            lip = float(np.abs(np.cumsum(slopes)).max())
            gap = abs(
                float((mu.cell_masses / mu.mass) @ f) - float((nu.cell_masses / nu.mass) @ f)
            )
            assert gap <= lip * wasserstein_oracle(mu, nu, 1) + 1e-12
            assert gap <= lip * (wasserstein(mu, nu, 1) + trait256.spacing) + 1e-12

    def test_squared_w2_convexity(self, trait256, rng):
        # W2^2(mixture, nu) <= mixture of W2^2: exact for grid measures.
        for _ in range(20):
            parts = [GridMeasure(trait256, random_mixtures(rng, trait256, 1)[0]) for _ in range(3)]
            weights = rng.dirichlet(np.ones(3))
            nu = GridMeasure(trait256, random_mixtures(rng, trait256, 1)[0])
            mixed = GridMeasure(
                trait256, sum(w * part.density for w, part in zip(weights, parts))
            )
            lhs = wasserstein(mixed, nu, 2) ** 2
            rhs = sum(w * wasserstein(part, nu, 2) ** 2 for w, part in zip(weights, parts))
            assert lhs <= rhs + 1e-10
