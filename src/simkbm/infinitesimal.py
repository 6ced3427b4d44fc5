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
from .measures import PROBABILITY_TOL, GridMeasure, normal_density

W2_CONTRACTION = 2.0 ** (-0.5)
W4_CONTRACTION = 2.0 ** (-0.25)
KERNEL_MASS_DEFECT_TOL = 1e-10
# Samples per FFT block in ReproductionKernel.apply_to_profiles: the kernel's
# preallocated work blocks hold about 0.75 MiB, inside a core's L2 cache, where
# a whole 64-row batch at nfft 4096 would stream about 8 MiB through it.
FFT_BLOCK_SAMPLES = 2**15
# Rows per dense forward product.  Every product has this one shape, so a
# row's bits depend neither on its batch nor on the BLAS thread count
# (OpenBLAS takes gemv for one row and splits columns by thread).
DENSE_BLOCK_ROWS = 16
# Kernel spectrum modes below this fraction of its peak are dropped by the
# dense forward transform.
DENSE_SPECTRUM_CUTOFF = 1e-17


def segregation_kernel(A: float, grid: TraitGrid) -> tuple:
    """Gamma_{A/2} tabulated at the half-spacing offsets of a trait grid, and its mass defect.

    The table holds samples of the normalized Gaussian of variance A/2 at
    integer multiples of spacing/2.  The defect is the worst quadrature-mass
    error at grid spacing over the two parity classes of that lattice; it
    bounds the mass leak of every T output; see defect_problem.
    """
    m = grid.points
    offsets = np.arange(-(2 * m - 2), 2 * m - 1) * (0.5 * grid.spacing)
    table = normal_density(offsets, 0.5 * A)
    even = grid.spacing * table[::2].sum()
    odd = grid.spacing * table[1::2].sum()
    return table, float(max(abs(1.0 - even), abs(1.0 - odd)))


def defect_problem(A: float, grid: TraitGrid, defect: float) -> str | None:
    """Why segregation_kernel's mass defect on the grid fails KERNEL_MASS_DEFECT_TOL
    (a NaN defect fails too), or None when it passes."""
    if not defect <= KERNEL_MASS_DEFECT_TOL:
        return (
            f"segregation kernel mass defect {defect:.3e} on this trait grid: the spacing "
            f"{grid.spacing:.4g} must be below about 0.9*sqrt(A/2) = {0.9 * np.sqrt(0.5 * A):.4g}"
            " and the grid at least about 7*sqrt(A/2) wide"
        )


def resolution_problem(V0: float, grid: TraitGrid) -> str | None:
    """Why the spacing does not resolve the initial variance V0 (a NaN error does not
    either), or None when it does: segregation_kernel's defect at 2 V0, the mass error
    of a Gaussian of variance V0 sampled at the cell centers, away from the grid's ends,
    must be at most PROBABILITY_TOL.  Near the ends, sim_solver.margin_problem governs."""
    with np.errstate(over="ignore", invalid="ignore"):
        error = segregation_kernel(2.0 * V0, grid)[1]
    if not error <= PROBABILITY_TOL:
        return (
            f"the trait spacing {grid.spacing:.4g} does not resolve the initial variance "
            f"V0 = {V0:.6g}: a sampled Gaussian of that variance is off mass 1 by {error:.3e}, "
            f"more than {PROBABILITY_TOL:g}; the spacing must be below about sqrt(V0) = "
            f"{np.sqrt(V0):.4g}"
        )


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
        self.table, mass_defect = segregation_kernel(self.A, grid)
        if problem := defect_problem(self.A, grid, mass_defect):
            warnings.warn(problem, RuntimeWarning, stacklevel=2)

        # FFT plan for the fast path: linear convolution of the midparent mass
        # vector (length 2m-1) with the kernel table (length 4m-3).
        n = 1
        while n < 6 * m:
            n *= 2
        self._nfft = n
        self._half_table_hat = 0.5 * np.fft.rfft(self.table, n)
        # Modes past kc carry less than DENSE_SPECTRUM_CUTOFF of the kernel
        # spectrum's peak: K^(xi) = exp(-xi^2 A/4) on the half-spacing lattice.
        xi_max = np.sqrt(2.0 * np.log(1.0 / DENSE_SPECTRUM_CUTOFF) / (0.5 * self.A))
        kc = int(np.ceil(xi_max * n * 0.5 * grid.spacing / (2.0 * np.pi))) + 1
        kc = -(-kc // 8) * 8
        self._kc = kc
        if kc <= n // 4 and m * kc <= 2 * n * np.log2(n):
            # Dense forward: h-weighted modes 0..kc-1 of the zero-padded rfft,
            # real and imaginary parts interleaved so a real product's row
            # views as kc complex modes.  The phase index a*k is reduced mod
            # nfft (a power of two) in integers and picks one of the nfft
            # h-weighted roots of unity.
            roots = grid.spacing * np.exp(-2j * np.pi / n * np.arange(n))
            self._forward = roots[np.outer(np.arange(m), np.arange(kc)) & (n - 1)].view(float)
            block = DENSE_BLOCK_ROWS
            head = (np.zeros((block, m)), np.empty((block, 2 * kc)))
        else:
            # Too many live modes for a product to beat the FFT, or a table
            # too large to hold: wide, coarse grids transform the zero-padded
            # signal at length nfft (the padding past column m is never written).
            self._forward = None
            block = max(1, FFT_BLOCK_SAMPLES // n)
            head = (np.zeros((block, n)), np.empty((block, n // 2 + 1), dtype=complex))
        # One row block's forward buffers, fold and even samples, reused by
        # every call; on the dense path fold modes [kc, nfft/4] stay zero.
        self._blocks = (
            *head,
            np.zeros((block, n // 4 + 1), dtype=complex),
            np.empty((block, n // 2)),
        )

    def _dense_modes(self, rows: np.ndarray) -> np.ndarray:
        """Modes 0..kc-1 of rfft(rows * spacing, nfft), for at most one block of rows.

        The rows are copied into the zero-padded block, so the product always
        has the one shape DENSE_BLOCK_ROWS x points; the result views the
        kernel's modes buffer.
        """
        signal, modes = self._blocks[:2]
        signal[: len(rows)] = rows
        signal[len(rows) :] = 0.0
        np.matmul(signal, self._forward, out=modes)
        return modes.view(complex)[: len(rows)]

    def apply_to_profiles(self, profiles: np.ndarray) -> np.ndarray:
        """Apply T to a batch of normalized trait densities, one per row.

        Self-convolution of the cell masses realizes the midparent mass
        distribution on the half-spacing lattice; convolving that with the
        kernel table and reading every other output lands T back on the cell
        centers with no interpolation.  Tiny FFT-roundoff negatives are
        clipped to keep T order-preserving.

        The product spectrum is Y = X^2 K^ with X the rows' spectrum at
        length nfft.  Only the even product samples are read, so Y is folded
        to F[k] = Y[k] + conj(Y[nfft/2 - k]), k <= nfft/4 (the 1/2 rides in
        the table spectrum) and inverted at length nfft/2, where T lies at
        [m - 1, 2m - 1).  X comes one of two ways:

        - dense: where K^ has at most nfft/4 live modes (kc) and m * kc is at
          most 2 nfft log2 nfft, X[:kc] is one product of DENSE_BLOCK_ROWS
          rows with the kernel's points x 2kc table, and F[k] = Y[k] for
          k < kc, zero past it;
        - FFT: otherwise, FFT_BLOCK_SAMPLES // nfft rows at a time (at least
          one) are transformed at length nfft and folded in full.

        Rows are independent and every dense product has one shape, so the
        result does not depend on the batch.
        """
        profiles = np.atleast_2d(np.asarray(profiles, dtype=float))
        m = self.grid.points
        if profiles.shape[1] != m:
            raise ValueError("profile length does not match the kernel grid")
        nfft, kc = self._nfft, self._kc
        block = len(self._blocks[0])
        res = np.empty(profiles.shape)
        for lo in range(0, len(profiles), block):
            rows = profiles[lo : lo + block]
            fold, even = (b[: len(rows)] for b in self._blocks[2:])
            if self._forward is None:
                signal, spec = (b[: len(rows)] for b in self._blocks[:2])
                np.multiply(rows, self.grid.spacing, out=signal[:, :m])
                np.fft.rfft(signal, axis=1, out=spec)
                spec *= spec
                spec *= self._half_table_hat
                np.conjugate(spec[:, nfft // 2 : nfft // 4 - 1 : -1], out=fold)
                fold += spec[:, : nfft // 4 + 1]
            else:
                modes = self._dense_modes(rows)
                np.multiply(modes, modes, out=fold[:, :kc])
                fold[:, :kc] *= self._half_table_hat[:kc]
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
    the kernel table at (2m - 2) - s + 2j, s = a + b.  Those weights are row j
    of a sliding window over the reversed table, read in place: O(points^2)
    work and O(points) memory, and still literal: no transform, zero padding
    or strided read of a full convolution, so it stays an independent
    cross-check of the fast path.
    """
    _check_inputs(mu, kernel)
    m = kernel.grid.points
    w = mu.cell_masses
    midparent_mass = np.convolve(w, w)
    weights = np.lib.stride_tricks.sliding_window_view(kernel.table[::-1], 2 * m - 1)[::-2]
    return GridMeasure(kernel.grid, weights @ midparent_mass)

