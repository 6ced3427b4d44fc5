"""Exact W_p between two grid measures, one merged CDF segment at a time, each
segment's cells looked up on their own: the reference for measures.wasserstein_rows."""

import numpy as np


def _cdf_values(mu):
    """Normalized CDF at the cell edges: length points+1, starts at 0, ends at 1."""
    cum = np.concatenate(([0.0], np.cumsum(mu.cell_masses)))
    cum /= cum[-1]
    cum[-1] = 1.0
    return cum


def _segment_lines(mu, cum, u_lo, u_hi):
    """Affine law of the quantile on the open segments (u_lo, u_hi); cum is mu's CDF.

    Each segment lies between consecutive merged breakpoints, so its cell
    is the last one starting at or below u_lo: segments that start or end
    exactly at a CDF breakpoint pick up the one-sided limit rather than an
    arbitrary value at the jump.  (A midpoint lookup fails on a segment one
    ulp wide, whose midpoint rounds to u_lo.)  The mass share is formed
    before the spacing multiplies it: spacing / cell_mass overflows when a
    cell's mass is subnormal.
    """
    edges = mu.grid.edges
    h = mu.grid.spacing
    j = np.searchsorted(cum, u_lo, side="right") - 1
    c0 = cum[j]
    cell_mass = cum[j + 1] - c0
    q_lo = edges[j] + (u_lo - c0) / cell_mass * h
    q_hi = edges[j] + (u_hi - c0) / cell_mass * h
    return q_lo, q_hi


def wasserstein(mu, nu, p):
    """Exact p-Wasserstein distance (p in 1, 2, 4) between two normalized grid measures."""
    assert p in (1, 2, 4), p
    cum_mu, cum_nu = _cdf_values(mu), _cdf_values(nu)
    breaks = np.unique(np.concatenate((cum_mu, cum_nu)))
    u_lo, u_hi = breaks[:-1], breaks[1:]
    f_lo, f_hi = _segment_lines(mu, cum_mu, u_lo, u_hi)
    g_lo, g_hi = _segment_lines(nu, cum_nu, u_lo, u_hi)
    a = f_lo - g_lo
    b = f_hi - g_hi
    w = u_hi - u_lo

    if p == 1:
        both = np.abs(a) + np.abs(b)
        same_sign = a * b >= 0
        # Sign change inside the segment: two triangles around the zero of the
        # affine difference; 'both' is nonzero there since a, b are not both 0.
        safe = np.where(both > 0, both, 1.0)
        seg = np.where(same_sign, 0.5 * w * both, 0.5 * w * (a * a + b * b) / safe)
    elif p == 2:
        seg = w * (a * a + a * b + b * b) / 3.0
    else:
        seg = w * (a**4 + a**3 * b + a**2 * b**2 + a * b**3 + b**4) / 5.0
    total = float(seg.sum())
    return total ** (1.0 / p)
