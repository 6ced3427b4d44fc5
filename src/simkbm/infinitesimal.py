"""Infinitesimal-model reproduction: offspring trait = midparent average + Gaussian noise.

The mixing operator T maps a parent profile to the law of
(Y1 + Y2)/2 + G, with Y1, Y2 independent draws from the profile and G a
centered Gaussian of variance A/2.  T conserves mass and mean, halves the
centered variance before adding A/2, fixes the Gaussian of variance A, and
contracts the W2 (W4) distance between equal-mean profiles by at least
2^(-1/2) (2^(-1/4)).
"""

from __future__ import annotations

import warnings

import numpy as np

from .grids import TraitGrid
from .measures import GridMeasure, moments, wasserstein

W2_CONTRACTION = 2.0 ** (-0.5)
W4_CONTRACTION = 2.0 ** (-0.25)
MEAN_MATCH_TOL = 1e-9
KERNEL_MASS_DEFECT_TOL = 1e-10
# Samples per FFT block in ReproductionKernel.apply_to_profiles: the kernel's
# preallocated work blocks hold about 0.75 MiB, inside a core's L2 cache, where
# a whole 64-row batch at nfft 4096 would stream about 8 MiB through it.
FFT_BLOCK_SAMPLES = 2**15


def segregation_kernel(A: float, grid: TraitGrid) -> tuple:
    """Gamma_{A/2} tabulated at the half-spacing offsets of a trait grid, and its mass defect.

    The table holds samples of the normalized Gaussian of variance A/2 at
    integer multiples of spacing/2.  The defect is the worst quadrature-mass
    error at grid spacing over the two parity classes of that lattice; it
    bounds the mass leak of every T output.  It stays below
    KERNEL_MASS_DEFECT_TOL only when the spacing is below about 0.9 sqrt(A/2)
    and the grid is at least about 7 sqrt(A/2) wide.
    """
    m = grid.points
    offsets = np.arange(-(2 * m - 2), 2 * m - 1) * (0.5 * grid.spacing)
    var = 0.5 * A
    table = np.exp(-(offsets**2) / (2.0 * var)) / np.sqrt(2.0 * np.pi * var)
    even = grid.spacing * table[::2].sum()
    odd = grid.spacing * table[1::2].sum()
    return table, float(max(abs(1.0 - even), abs(1.0 - odd)))


class ReproductionKernel:
    """Segregation kernel Gamma_{A/2} precomputed for one trait grid.

    Midparent locations of two grid cells land on the half-spacing lattice,
    so the kernel is tabulated at integer multiples of spacing/2; the same
    table serves the direct pair summation and the convolution fast path.
    Samples of the normalized Gaussian of variance A/2 are used (the kernel
    must integrate to 1 for T to conserve mass).
    """

    def __init__(self, A: float, grid: TraitGrid):
        if not A > 0:
            raise ValueError(f"A must be positive, got {A}")
        self.A = float(A)
        self.grid = grid
        m = grid.points
        self.table, self.mass_defect = segregation_kernel(self.A, grid)
        if not self.mass_defect <= KERNEL_MASS_DEFECT_TOL:
            warnings.warn(
                f"segregation kernel mass defect {self.mass_defect:.3e} on this grid; "
                "the trait spacing must be below about 0.9*sqrt(A/2) and the interval "
                "at least about 7*sqrt(A/2) wide",
                RuntimeWarning,
                stacklevel=2,
            )

        # FFT plan for the fast path: linear convolution of the midparent mass
        # vector (length 2m-1) with the kernel table (length 4m-3).
        n = 1
        while n < 6 * m:
            n *= 2
        self._nfft = n
        self._half_table_hat = 0.5 * np.fft.rfft(self.table, n)
        # One row block's zero-padded signal, spectrum, fold and even samples,
        # reused by every call (the padding past column m is never written).
        block = max(1, FFT_BLOCK_SAMPLES // n)
        self._blocks = (
            np.zeros((block, n)),
            np.empty((block, n // 2 + 1), dtype=complex),
            np.empty((block, n // 4 + 1), dtype=complex),
            np.empty((block, n // 2)),
        )

    def apply_to_profiles(self, profiles: np.ndarray) -> np.ndarray:
        """Apply T to a batch of normalized trait densities, one per row.

        Self-convolution of the cell masses realizes the midparent mass
        distribution on the half-spacing lattice; convolving that with the
        kernel table and reading every other output lands T back on the cell
        centers with no interpolation.  Tiny FFT-roundoff negatives are
        clipped to keep T order-preserving.

        Rows are transformed FFT_BLOCK_SAMPLES // nfft at a time (at least
        one) in preallocated blocks, forward at length nfft.  Only the even
        product samples are read, so the spectrum Y is folded to
        F[k] = Y[k] + conj(Y[nfft/2 - k]), k <= nfft/4 (the 1/2 rides in the
        table spectrum) and inverted at length nfft/2, where T lies at
        [m - 1, 2m - 1).  Rows are independent, so the result does not depend
        on the block size.
        """
        profiles = np.atleast_2d(np.asarray(profiles, dtype=float))
        m = self.grid.points
        if profiles.shape[1] != m:
            raise ValueError("profile length does not match the kernel grid")
        nfft = self._nfft
        block = len(self._blocks[0])
        res = np.empty(profiles.shape)
        for lo in range(0, len(profiles), block):
            rows = profiles[lo : lo + block]
            signal, spec, fold, even = (b[: len(rows)] for b in self._blocks)
            np.multiply(rows, self.grid.spacing, out=signal[:, :m])
            np.fft.rfft(signal, axis=1, out=spec)
            spec *= spec
            spec *= self._half_table_hat
            np.conjugate(spec[:, nfft // 2 : nfft // 4 - 1 : -1], out=fold)
            fold += spec[:, : nfft // 4 + 1]
            np.fft.irfft(fold, nfft // 2, axis=1, out=even)
            res[lo : lo + block] = even[:, m - 1 : 2 * m - 1]
        np.clip(res, 0.0, None, out=res)
        return res


def _check_inputs(mu: GridMeasure, kernel: ReproductionKernel):
    if mu.grid != kernel.grid:
        raise ValueError("measure grid does not match the kernel grid")
    mu.require_probability()


def apply_T_fast(mu: GridMeasure, kernel: ReproductionKernel) -> GridMeasure:
    """Reproduction operator via self-convolution + kernel convolution."""
    _check_inputs(mu, kernel)
    return GridMeasure(kernel.grid, kernel.apply_to_profiles(mu.density)[0])


def apply_T_oracle(mu: GridMeasure, kernel: ReproductionKernel) -> GridMeasure:
    """Reference implementation: direct summation over all parent pairs.

    T(mu)(y_j) = sum_{a,b} Gamma_{A/2}(y_j - (y_a + y_b)/2) w_a w_b with
    w the cell masses.  Pairs with the same a + b share a midparent, so their
    masses are summed first (a direct np.convolve, no FFT), then row j takes
    the kernel table at (2m - 2) - (a + b) + 2j in one dense gather.  O(points^2)
    work and still literal: no transform, zero padding or strided read of a
    full convolution, so it stays an independent cross-check of the fast path.
    """
    _check_inputs(mu, kernel)
    m = kernel.grid.points
    w = mu.cell_masses
    midparent_mass = np.convolve(w, w)
    s = np.arange(2 * m - 1)
    j = np.arange(m)
    gather = kernel.table[(2 * m - 2) - s[None, :] + 2 * j[:, None]]
    return GridMeasure(kernel.grid, gather @ midparent_mass)


def contraction_ratio(
    mu: GridMeasure, nu: GridMeasure, kernel: ReproductionKernel, p: int
) -> float:
    """W_p(T mu, T nu) / W_p(mu, nu) for equal-mean inputs.

    The Tanaka inequality guarantees a factor <= 2^(-1/2) for p = 2 and its
    fourth-order analogue <= 2^(-1/4) for p = 4, provided the means match.
    """
    if p not in (2, 4):
        raise ValueError(f"contraction factor is only available for p in (2, 4), got {p}")
    mean_mu = moments(mu).mean
    mean_nu = moments(nu).mean
    if abs(mean_mu - mean_nu) > MEAN_MATCH_TOL:
        raise ValueError(
            f"inputs must share their mean (got {mean_mu:.12f} vs {mean_nu:.12f})"
        )
    base = wasserstein(mu, nu, p)
    if base == 0.0:
        raise ValueError("inputs coincide: contraction ratio is undefined at distance 0")
    mixed = wasserstein(apply_T_fast(mu, kernel), apply_T_fast(nu, kernel), p)
    return mixed / base
