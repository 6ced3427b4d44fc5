"""Kinetic trait-structured population model and its macroscopic limit.

Simulates the spatially structured infinitesimal model (SIM) and the
Kirkpatrick-Barton system (KBM) on the periodic interval, and measures how
fast the kinetic moments and trait profiles approach the macroscopic model
as the reproduction rate grows.
"""

from .grids import TorusGrid, TraitGrid
from .measures import GridMeasure, gaussian_on_grid, wasserstein, wasserstein_oracle
from .infinitesimal import ReproductionKernel, apply_T_fast, apply_T_oracle
from .environment import Environment
from .sim_solver import (
    KineticState,
    SimParams,
    SimulationError,
    gaussian_initial_state,
    init_state,
    kinetic_moments,
    run_sim,
    sim_step,
)
from .kbm_solver import MacroState, kbm_step, run_kbm
from .diagnostics import (
    SweepReport,
    fit_power_law,
    gaussian_deviation,
    holder_quotient,
    kbm_residuals,
)
from .config import ConfigError, RunConfig, parse_config

__all__ = [
    "TorusGrid",
    "TraitGrid",
    "GridMeasure",
    "gaussian_on_grid",
    "wasserstein",
    "wasserstein_oracle",
    "ReproductionKernel",
    "apply_T_fast",
    "apply_T_oracle",
    "Environment",
    "KineticState",
    "SimParams",
    "SimulationError",
    "gaussian_initial_state",
    "init_state",
    "kinetic_moments",
    "run_sim",
    "sim_step",
    "MacroState",
    "kbm_step",
    "run_kbm",
    "SweepReport",
    "fit_power_law",
    "gaussian_deviation",
    "holder_quotient",
    "kbm_residuals",
    "ConfigError",
    "RunConfig",
    "parse_config",
]
