"""Probability densities on a trait grid: moments and exact 1-D Wasserstein distances.

Densities are piecewise constant per cell, so cumulative distribution
functions are piecewise linear and the quantile coupling behind the 1-D
Wasserstein distance can be integrated segment by segment in closed form
(wasserstein_rows, for a batch of pairs at once).  A brute-force discrete-
transport oracle (north-west-corner rule on sorted atoms) cross-checks it.
"""

from __future__ import annotations

import dataclasses
import warnings

import numpy as np

from .grids import TraitGrid

PROBABILITY_TOL = 1e-8
WASSERSTEIN_ORDERS = (1, 2, 4)
# Standard deviations from a trait end inside which a sampled Gaussian visibly misses mass 1.
MARGIN_SIGMAS = 6.0


@dataclasses.dataclass(frozen=True, eq=False)
class GridMeasure:
    """Nonnegative density (w.r.t. dy) sampled at the cell centers of a trait grid.

    Measures compare and hash by identity: an ndarray field has no truth
    value for the generated __eq__ to return.
    """

    grid: TraitGrid
    density: np.ndarray

    def __post_init__(self):
        dens = np.asarray(self.density, dtype=float)
        if dens.shape != (self.grid.points,):
            raise ValueError(
                f"density shape {dens.shape} does not match grid with {self.grid.points} cells"
            )
        object.__setattr__(self, "density", dens)
        require_rows(self.grid, dens[None])

    @property
    def mass(self) -> float:
        """require_rows' mass of the density, bit for bit."""
        return float(self.grid.spacing * self.density.sum())

    @property
    def cell_masses(self) -> np.ndarray:
        return self.density * self.grid.spacing

    def require_probability(self):
        """Reject inputs that are not unit mass instead of renormalizing them;
        a silent rescale here would hide mass bugs upstream."""
        require_rows(self.grid, self.density[None], probability=True)


def unit_mass(mass):
    """Whether a mass (elementwise) is within PROBABILITY_TOL of 1; a NaN is not."""
    return np.abs(mass - 1.0) <= PROBABILITY_TOL


def require_rows(grid: TraitGrid, rows: np.ndarray, probability: bool = False) -> np.ndarray:
    """Masses of the grid measures of density rows, one per row; raises the
    error of the first row that GridMeasure (or, with `probability`,
    require_probability) rejects.  A non-finite entry leaves a non-finite
    mass or a negative entry, so only the rows flagged here are checked."""
    mass = grid.spacing * rows.sum(axis=1)
    flagged = (rows < 0).any(axis=1) | ~np.isfinite(mass) | ~(mass > 0)
    if probability:
        flagged |= ~unit_mass(mass)
    for i in np.flatnonzero(flagged):
        if not np.isfinite(rows[i]).all():
            raise ValueError("density contains non-finite entries")
        if (rows[i] < 0).any():
            raise ValueError(f"density must be nonnegative (min = {rows[i].min():.3e})")
        if not mass[i] > 0:
            raise ValueError("density must carry positive mass")
        if probability and not unit_mass(mass[i]):
            raise ValueError(
                f"measure is not normalized: mass = {mass[i]:.12f} "
                f"(|mass - 1| > {PROBABILITY_TOL:g})"
            )
    return mass


def gaussian_on_grid(mean: float, variance: float, grid: TraitGrid) -> GridMeasure:
    """Sample the normalized Gaussian of the given mean and variance at cell centers.

    The samples are NOT renormalized afterwards: the mass defect of the
    sampled density is a truncation diagnostic in its own right; see
    warn_near_ends.
    """
    means = np.array([mean])
    density = gaussian_rows(means, variance, grid)[0]
    warn_near_ends(means, variance, grid)
    return GridMeasure(grid, density)


def normal_density(offsets, variance: float):
    """The centered normal density of the given variance at the offsets."""
    if not variance > 0:
        raise ValueError(f"variance must be positive, got {variance}")
    return np.exp(-(offsets**2) / (2.0 * variance)) / np.sqrt(2.0 * np.pi * variance)


def gaussian_rows(means: np.ndarray, variance: float, grid: TraitGrid) -> np.ndarray:
    """gaussian_on_grid's samples for every mean, one row each, without its warning."""
    return normal_density(grid.centers - means[:, None], variance)


def warn_near_ends(means: np.ndarray, variance: float, grid: TraitGrid):
    """Warn when a Gaussian of the variance centered at one of the means comes within
    MARGIN_SIGMAS standard deviations of a grid end.  The text names no mean, and the
    warning is raised here for every caller, so a warnings registry shows it once per
    variance and grid."""
    margin = np.minimum(means - grid.y_min, grid.y_max - means)
    if np.any(margin < MARGIN_SIGMAS * np.sqrt(variance)):
        warnings.warn(
            f"a Gaussian of variance {variance:g} has its mean within {MARGIN_SIGMAS:g} standard "
            f"deviations of the trait bounds [{grid.y_min:g}, {grid.y_max:g}]; its sampled mass "
            "may be visibly short of 1",
            RuntimeWarning,
        )


def moment_rows(grid: TraitGrid, density: np.ndarray) -> tuple:
    """Mean and variance of every density row, by midpoint quadrature.

    Row sums along the last axis take the same additions as a sum over one
    row, so row i holds the bits of the one-row call on density row i.
    """
    y = grid.centers
    w = density * grid.spacing
    mass = grid.spacing * density.sum(axis=1)
    mean = (w * y).sum(axis=1) / mass
    variance = (w * (y - mean[:, None]) ** 2).sum(axis=1) / mass
    return mean, variance


def wasserstein(mu: GridMeasure, nu: GridMeasure, p: int) -> float:
    """Exact p-Wasserstein distance between two normalized measures on one
    grid: the one-row case of wasserstein_rows."""
    if mu.grid != nu.grid:
        raise ValueError(f"measures lie on two trait grids: {mu.grid} and {nu.grid}")
    return float(wasserstein_rows(mu.grid, mu.density[None], nu.density[None], (p,))[0, 0])


# Cells per batch of wasserstein_rows.  Every temporary of a batch holds
# about twice this many doubles (32 KiB) whatever the measure size.
_CHUNK_CELLS = 2048


def batch_rows(points: int) -> int:
    """Rows of `points` cells that wasserstein_rows takes at a time (at least one)."""
    return max(1, _CHUNK_CELLS // points)


def cdf_rows(density: np.ndarray, spacing: float) -> np.ndarray:
    """Normalized CDFs at the cell edges, one row per density row: each row
    has points + 1 entries, starts at 0 and ends at exactly 1."""
    cum = np.zeros((len(density), density.shape[1] + 1))
    np.cumsum(density * spacing, axis=1, out=cum[:, 1:])
    cum /= cum[:, -1:].copy()
    cum[:, -1] = 1.0
    return cum


def wasserstein_rows(grid: TraitGrid, mu: np.ndarray, nu: np.ndarray, orders) -> np.ndarray:
    """W_p between matching density rows of mu and nu, one row of the result
    per order p in `orders`.  After the orders, require_rows checks that
    every row of mu, then of nu, is a probability density.

    The monotone coupling is optimal in 1-D, so W_p is the L^p norm of the
    difference of quantile functions, affine between merged breakpoints.
    Rows are taken batch_rows(grid.points) at a time.  Per batch, one stable
    argsort per row merges the breakpoints of the two CDFs and serves every
    order; a running count of mu's breakpoints then names the cell of either
    measure that serves each merged segment.
    """
    for p in orders:
        if p not in WASSERSTEIN_ORDERS:
            raise ValueError(f"p must be one of {WASSERSTEIN_ORDERS}, got {p}")
    require_rows(grid, mu, probability=True)
    require_rows(grid, nu, probability=True)
    out = np.empty((len(orders), len(mu)))
    step = batch_rows(grid.points)
    for lo in range(0, len(mu), step):
        rows = slice(lo, lo + step)
        cum_mu, cum_nu = cdf_rows(mu[rows], grid.spacing), cdf_rows(nu[rows], grid.spacing)
        out[:, rows] = _merged_rows(grid, cum_mu, cum_nu, orders)
    return out


def _merged_rows(grid, cum_mu, cum_nu, orders):
    """One batch of wasserstein_rows, from CDF rows: a list of per-row distances per order."""
    rows, m1 = cum_mu.shape
    width = 2 * m1
    merged = np.concatenate((cum_mu, cum_nu), axis=1)
    order = np.argsort(merged, axis=1, kind="stable")
    # Breakpoints of mu at or before each merged position.
    seen = np.cumsum(order < m1, axis=1)[:, :-1]
    order += np.arange(0, rows * width, width)[:, None]
    u = merged.take(order)
    # A segment of positive width, from merged position k to k + 1, lies in
    # cell seen - 1 of mu and cell k - seen of nu; indices below are flat.
    keep = u[:, 1:] > u[:, :-1]
    u_lo = u[:, :-1][keep]
    u_hi = u[:, 1:][keep]
    first = np.arange(0, rows * m1, m1)[:, None]
    j_mu = (first - 1 + seen)[keep]
    j_nu = (first + np.arange(width - 1) - seen)[keep]
    edges = np.tile(grid.edges, rows)
    h = grid.spacing
    f_lo, f_hi = _quantile_lines(cum_mu.ravel(), j_mu, u_lo, u_hi, edges, h)
    g_lo, g_hi = _quantile_lines(cum_nu.ravel(), j_nu, u_lo, u_hi, edges, h)
    a = f_lo - g_lo
    b = f_hi - g_hi
    # Every row has a segment: its CDF climbs from 0 to 1.
    starts = np.concatenate(([0], np.cumsum(keep.sum(axis=1))[:-1]))
    dist = []
    for p in orders:
        if p == 1:
            w = u_hi - u_lo
            both = np.abs(a) + np.abs(b)
            # A sign change inside the segment leaves two triangles; both > 0 there.
            safe = np.where(both > 0, both, 1.0)
            seg = np.where(a * b >= 0, 0.5 * w * both, 0.5 * w * (a * a + b * b) / safe)
            dist.append(np.add.reduceat(seg, starts))
        elif p == 2:
            seg = (u_hi - u_lo) * (a * a + a * b + b * b) / 3.0
            dist.append(np.sqrt(np.add.reduceat(seg, starts)))
        else:
            # w (a^4 + a^3 b + a^2 b^2 + a b^3 + b^4) / 5, from products
            # instead of powers (ten times cheaper, within a few ulps).
            a2, ab, b2 = a * a, a * b, b * b
            seg = (u_hi - u_lo) * (a2 * a2 + a2 * ab + ab * ab + ab * b2 + b2 * b2) / 5.0
            dist.append(np.add.reduceat(seg, starts) ** 0.25)
    return dist


def _quantile_lines(cum, j, u_lo, u_hi, edges, h):
    """The quantile at both ends of each segment, read off its cell j, with
    the mass share formed first: spacing / cell_mass overflows when a cell's
    mass is subnormal."""
    c0 = cum.take(j)
    cell_mass = cum.take(j + 1) - c0
    e = edges.take(j)
    return e + (u_lo - c0) / cell_mass * h, e + (u_hi - c0) / cell_mass * h


def _sorted_atoms(mu: GridMeasure):
    """Atomize: one atom per cell at its center, zero-mass cells dropped."""
    w = mu.cell_masses
    keep = w > 0
    w = w[keep] / mu.mass
    return mu.grid.centers[keep], w


def wasserstein_oracle(mu: GridMeasure, nu: GridMeasure, p: int) -> float:
    """Independent transport oracle: north-west-corner rule on sorted atoms.

    Treats each cell as an atom at its center and pairs mass front to front.
    On sorted supports this greedy plan is the monotone coupling, so the
    value agrees with `wasserstein` up to the O(h) atomization gap.

    The loop runs on Python floats, with the residual weights of the two
    current atoms in locals a and b: a literal pairing loop, kept apart
    from the CDF merge it checks.
    """
    if p not in WASSERSTEIN_ORDERS:
        raise ValueError(f"p must be one of {WASSERSTEIN_ORDERS}, got {p}")
    mu.require_probability()
    nu.require_probability()

    xu, wu = (v.tolist() for v in _sorted_atoms(mu))
    xv, wv = (v.tolist() for v in _sorted_atoms(nu))
    # Both lists hold at least one atom: a GridMeasure has positive mass.
    i = j = 0
    a, b = wu[0], wv[0]
    cost = 0.0
    while True:
        f = b if b < a else a
        cost += f * abs(xu[i] - xv[j]) ** p
        a -= f
        b -= f
        if a == 0.0:
            i += 1
            if i == len(xu):
                break
            a = wu[i]
        if b == 0.0:
            j += 1
            if j == len(xv):
                break
            b = wv[j]
    return cost ** (1.0 / p)
