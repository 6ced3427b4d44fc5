import math

import numpy as np
import pytest

from simkbm import Environment, TorusGrid, TraitGrid
from simkbm.diagnostics import kbm_residuals
from simkbm.kbm_solver import MacroState
from simkbm.sim_solver import KineticState, SimulationError, gaussian_initial_state, kinetic_moments


def test_star_import_binds_every_public_name():
    # A name in simkbm.__all__ that the package does not bind raises AttributeError here.
    exec("from simkbm import *", {})


@pytest.mark.parametrize(
    "build",
    [
        lambda: Environment("constant", offset=math.nan),
        lambda: Environment("sinusoidal_in_x", amplitude=math.inf),
        lambda: Environment("affine_in_t", rate=-math.inf),
        lambda: Environment("sinusoidal_in_x", amplitude=1.0, period=math.inf),
        lambda: TraitGrid(-math.inf, 0.0, 16),
        lambda: TraitGrid(0.0, math.inf, 16),
        lambda: TorusGrid(8, math.inf),
    ],
    ids=["offset", "amplitude", "rate", "period", "y_min", "y_max", "torus-period"],
)
def test_rejects_non_finite_parameters(build):
    # The parser requires finite JSON numbers; the Python API checks its own.
    with pytest.raises(ValueError, match="finite"):
        build()


def _sizes(least):
    """Eight column sizes of 1 but one, `least`."""
    N = np.ones(8)
    N[5] = least
    return N


SPACE = TorusGrid(8)


def _moments(N):
    # Trait spacing 1: each column of 16 equal cells holds N / 16 per cell.
    n = np.repeat(N[:, None] / 16, 16, axis=1)
    return kinetic_moments(KineticState(0.0, n, SPACE, TraitGrid(-8.0, 8.0, 16)))


def _residuals(N):
    times, Z = np.array([0.0, 0.1, 0.2]), np.zeros((3, 8))
    N = np.stack((np.ones(8), N, np.ones(8)))
    return kbm_residuals(times, N, Z, SPACE, Environment("constant"), 1.0)


FLOOR_CALLERS = {
    "kinetic_moments": (SimulationError, _moments),
    "kbm_residuals": (SimulationError, _residuals),
    "MacroState": (ValueError, lambda N: MacroState(0.0, N, np.zeros(8), SPACE)),
    "gaussian_initial_state": (
        ValueError,
        lambda N: gaussian_initial_state(SPACE, TraitGrid(-8.0, 8.0, 64), N, np.zeros(8), 1.0),
    ),
}


@pytest.mark.parametrize(
    "caller, least",
    [
        ("kinetic_moments", math.nan),
        ("kinetic_moments", 1e-14),
        ("kbm_residuals", math.nan),
        ("kbm_residuals", 1e-14),
        ("MacroState", 1e-14),
        ("gaussian_initial_state", 1e-14),
    ],
)
def test_population_floor_on_every_caller(caller, least):
    # One rule: a column size below N_FLOOR = 1e-12, or a NaN one, is rejected.
    error, call = FLOOR_CALLERS[caller]
    with pytest.raises(error, match="floor"):
        call(_sizes(least))
