import tracemalloc
import types

import numpy as np
import pytest

from simkbm import (
    GridMeasure,
    ReproductionKernel,
    TraitGrid,
    apply_T_fast,
    apply_T_oracle,
    contraction_ratio,
    gaussian_on_grid,
    moments,
    wasserstein,
)
from simkbm.infinitesimal import FFT_BLOCK_SAMPLES, W2_CONTRACTION, W4_CONTRACTION
from simkbm.property_checks import random_mixture


@pytest.fixture
def kernel256(trait256):
    return ReproductionKernel(1.0, trait256)


class TestKernel:
    def test_table_nonnegative_and_normalized(self, kernel256):
        assert np.all(kernel256.table >= 0)
        assert kernel256.mass_defect <= 1e-10

    def test_rejects_nonpositive_A(self, trait256):
        with pytest.raises(ValueError, match="A must be positive"):
            ReproductionKernel(0.0, trait256)

    def test_warns_when_grid_too_narrow(self):
        narrow = TraitGrid(-1.0, 1.0, 64)
        with pytest.warns(RuntimeWarning, match="mass defect"):
            ReproductionKernel(4.0, narrow)


class TestOracle:
    def test_atom_maps_to_segregation_kernel(self, kernel256, trait256):
        # Both parents at z: the offspring law is exactly the kernel there.
        dens = np.zeros(256)
        dens[130] = 1.0 / trait256.spacing
        out = apply_T_oracle(GridMeasure(trait256, dens), kernel256)
        z = trait256.centers[130]
        target = np.exp(-((trait256.centers - z) ** 2)) / np.sqrt(np.pi)  # variance 1/2
        assert np.abs(out.density - target).max() <= 1e-14

    def test_gaussian_in_gaussian_out(self, kernel256, trait256):
        mu = gaussian_on_grid(0.4, 0.8, trait256)
        m = moments(apply_T_oracle(mu, kernel256))
        assert m.mean == pytest.approx(0.4, abs=1e-6)
        assert m.variance == pytest.approx(0.8 / 2 + 0.5, abs=1e-6)

    def test_gaussian_fixed_point(self, kernel256, trait256):
        g = gaussian_on_grid(-0.5, 1.0, trait256)
        out = apply_T_oracle(g, kernel256)
        assert trait256.integrate(np.abs(out.density - g.density)) <= 1e-6

    def test_grid_mismatch_rejected(self, kernel256):
        other = TraitGrid(-8.0, 8.0, 128)
        mu = gaussian_on_grid(0.0, 1.0, other)
        with pytest.raises(ValueError, match="grid"):
            apply_T_oracle(mu, kernel256)

    def test_unnormalized_rejected(self, kernel256, trait256):
        mu = GridMeasure(trait256, 2.0 * gaussian_on_grid(0.0, 1.0, trait256).density)
        with pytest.raises(ValueError, match="not normalized"):
            apply_T_oracle(mu, kernel256)


class TestFastPath:
    def test_matches_oracle_on_random_measures(self, kernel256, trait256, rng):
        worst = 0.0
        for _ in range(10):
            mu = random_mixture(rng, trait256)
            fast = apply_T_fast(mu, kernel256)
            slow = apply_T_oracle(mu, kernel256)
            worst = max(worst, trait256.integrate(np.abs(fast.density - slow.density)))
        assert worst <= 1e-6

    def test_mass_and_mean_conserved(self, kernel256, trait256, rng):
        for _ in range(50):
            mu = random_mixture(rng, trait256)
            out = apply_T_fast(mu, kernel256)
            assert abs(out.mass - mu.mass) <= 1e-8
            assert abs(moments(out).mean - moments(mu).mean) <= 1e-8

    def test_variance_map(self, kernel256, trait256, rng):
        for _ in range(50):
            mu = random_mixture(rng, trait256)
            out = apply_T_fast(mu, kernel256)
            assert moments(out).variance == pytest.approx(
                0.5 * moments(mu).variance + 0.5, abs=1e-6
            )

    def test_positivity(self, kernel256, trait256, rng):
        for _ in range(20):
            out = apply_T_fast(random_mixture(rng, trait256), kernel256)
            assert out.density.min() >= 0.0


class TestRowBlocks:
    @staticmethod
    def _kernel_and_block(m):
        kernel = ReproductionKernel(1.0, TraitGrid(-4.0, 4.0, m))
        return kernel, max(1, FFT_BLOCK_SAMPLES // kernel._nfft)

    @pytest.mark.parametrize("m", [17, 512])
    def test_rows_match_single_row_calls_bit_for_bit(self, m, rng):
        kernel, block = self._kernel_and_block(m)
        for rows in sorted({1, block - 1, block, block + 1, 64}):
            profiles = rng.random((rows, m))
            batched = kernel.apply_to_profiles(profiles)
            assert batched.shape == (rows, m) and batched.flags.c_contiguous
            for i in range(rows):
                assert np.array_equal(batched[i], kernel.apply_to_profiles(profiles[i])[0])

    @pytest.mark.parametrize("m", [17, 512])
    def test_row_strided_input(self, m, rng):
        kernel, block = self._kernel_and_block(m)
        base = rng.random((2 * block + 6, m))
        view = base[::2]
        assert not view.flags.c_contiguous
        assert np.array_equal(
            kernel.apply_to_profiles(view), kernel.apply_to_profiles(view.copy())
        )

    def test_transient_memory_stays_block_sized(self, trait512, rng):
        # The whole 64-row batch at nfft 4096 would hold about 6 MiB of spectra;
        # the work blocks are the kernel's, so a call adds little beyond its
        # 0.25 MiB result.
        kernel = ReproductionKernel(1.0, trait512)
        profiles = rng.random((64, 512))
        tracemalloc.start()
        try:
            kernel.apply_to_profiles(profiles)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.5 * 2**20


class TestFold:
    @staticmethod
    def _strided_reference(kernel, profiles):
        # The full-length product and its every-other-sample read.
        m, nfft = kernel.grid.points, kernel._nfft
        w_hat = np.fft.rfft(profiles * kernel.grid.spacing, nfft, axis=1)
        full = np.fft.irfft(w_hat**2 * np.fft.rfft(kernel.table, nfft), nfft, axis=1)
        return np.clip(full[:, 2 * m - 2 : 4 * m - 3 : 2], 0.0, None)

    # nfft 32 to 8192, with the lengths pocketfft factors into radix-4 passes
    # only (256, 1024, 4096) and the others.
    @pytest.mark.filterwarnings("ignore:segregation kernel mass defect")
    @pytest.mark.parametrize("m", [3, 16, 40, 64, 100, 256, 512, 1000])
    def test_matches_full_length_strided_product(self, m, rng):
        # TraitGrid needs 16 points; the transform reads only points and spacing.
        grid = types.SimpleNamespace(points=m, spacing=8.0 / m)
        kernel = ReproductionKernel(1.0, grid if m < 16 else TraitGrid(-4.0, 4.0, m))
        profiles = rng.random((5, m))
        got = kernel.apply_to_profiles(profiles)
        want = self._strided_reference(kernel, profiles)
        tol = 4 * np.finfo(float).eps * want.max(axis=1, keepdims=True)
        assert np.all(np.abs(got - want) <= tol)

    def test_result_owns_its_memory(self, kernel256, rng):
        profiles = rng.random((3, 256))
        first = kernel256.apply_to_profiles(profiles)
        kept = first.copy()
        assert not any(np.shares_memory(first, b) for b in kernel256._blocks)
        kernel256.apply_to_profiles(rng.random((3, 256)))
        assert np.array_equal(first, kept)


class TestContraction:
    def test_gaussian_spot_check(self):
        # Same-mean Gaussians of variance 1 and 4: W2 = |2 - 1| = 1 and after
        # mixing |sqrt(2.5) - 1|, so the ratio is sqrt(2.5) - 1 ~ 0.5811.
        grid = TraitGrid(-16.0, 16.0, 2048)
        kernel = ReproductionKernel(1.0, grid)
        mu = gaussian_on_grid(0.0, 1.0, grid)
        nu = gaussian_on_grid(0.0, 4.0, grid)
        assert wasserstein(mu, nu, 2) == pytest.approx(1.0, abs=1e-5)
        ratio = contraction_ratio(mu, nu, kernel, 2)
        assert ratio == pytest.approx(np.sqrt(2.5) - 1.0, abs=1e-3)
        assert ratio <= W2_CONTRACTION

    @pytest.mark.parametrize("p,bound", [(2, W2_CONTRACTION), (4, W4_CONTRACTION)])
    def test_random_equal_mean_pairs(self, kernel256, trait256, rng, p, bound):
        for _ in range(100):
            mean = float(rng.uniform(-0.5, 0.5))
            mu = random_mixture(rng, trait256, target_mean=mean)
            nu = random_mixture(rng, trait256, target_mean=mean)
            assert contraction_ratio(mu, nu, kernel256, p) <= bound + 1e-4

    def test_rejects_mean_mismatch(self, kernel256, trait256):
        mu = gaussian_on_grid(0.0, 1.0, trait256)
        nu = gaussian_on_grid(0.5, 1.0, trait256)
        with pytest.raises(ValueError, match="mean"):
            contraction_ratio(mu, nu, kernel256, 2)

    def test_rejects_identical_inputs(self, kernel256, trait256):
        mu = gaussian_on_grid(0.0, 1.0, trait256)
        with pytest.raises(ValueError, match="distance 0"):
            contraction_ratio(mu, mu, kernel256, 2)

    def test_rejects_bad_order(self, kernel256, trait256):
        mu = gaussian_on_grid(0.0, 1.0, trait256)
        nu = gaussian_on_grid(0.0, 1.5, trait256)
        with pytest.raises(ValueError, match="p in"):
            contraction_ratio(mu, nu, kernel256, 1)
