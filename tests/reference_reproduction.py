"""T by direct pair summation, each row's kernel weights gathered into one dense
m x (2m - 1) array: the reference for infinitesimal.apply_T_oracle."""

import numpy as np


def apply_T(mu, kernel):
    """Density of T(mu): midparent masses by np.convolve, then row j takes the
    kernel table at (2m - 2) - s + 2j for every midparent index s = a + b.
    The index array and the gathered table hold 16 m^2 bytes each."""
    m = kernel.grid.points
    w = mu.cell_masses
    midparent_mass = np.convolve(w, w)
    s = np.arange(2 * m - 1)
    j = np.arange(m)
    gather = kernel.table[(2 * m - 2) - s[None, :] + 2 * j[:, None]]
    return gather @ midparent_mass
