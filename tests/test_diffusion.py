import math
import os
import subprocess
import sys

import numpy as np
import pytest

import simkbm
from simkbm.diffusion import PeriodicHeatCN


@pytest.mark.parametrize("n", [4, 7, 64, 512])
def test_cn_step_matches_dense(n, rng):
    # (I - mu L) u_new = (I + mu L) u with L the periodic three-point stencil.
    h, dt = 1.0 / n, 3e-3
    mu = dt / (2.0 * h * h)
    lap = -2.0 * np.eye(n) + np.roll(np.eye(n), 1, axis=1) + np.roll(np.eye(n), -1, axis=1)
    eye = np.eye(n)
    heat = PeriodicHeatCN(n, h, dt)
    block = rng.normal(size=(n, 5))
    dense = np.linalg.solve(eye - mu * lap, (eye + mu * lap) @ block)
    assert np.abs(heat.step(block) - dense).max() <= 1e-12 * np.abs(block).max()
    assert np.abs(heat.step(block[:, 2]) - dense[:, 2]).max() <= 1e-12 * np.abs(block).max()


def test_no_command_imports_scipy():
    # A fresh interpreter: this one has already imported scipy through other tests.
    code = (
        "import sys, simkbm.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    src = os.path.dirname(os.path.dirname(simkbm.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    ).stdout
    assert out.strip() == "[]"


class TestPeriodicHeat:
    def test_conserves_mass(self, rng):
        heat = PeriodicHeatCN(64, 1 / 64, 1e-3)
        f = 1.0 + 0.5 * rng.normal(size=64)
        g = heat.step(f)
        assert abs(g.sum() - f.sum()) <= 1e-10 * abs(f.sum())

    def test_constants_are_fixed(self):
        heat = PeriodicHeatCN(32, 1 / 32, 5e-3)
        out = heat.step(np.full(32, 3.7))
        assert np.abs(out - 3.7).max() <= 1e-12

    def test_mode_damping_matches_cn_factor(self):
        n, dt = 64, 1e-3
        h = 1.0 / n
        heat = PeriodicHeatCN(n, h, dt)
        mode = np.sin(2 * np.pi * np.arange(n) / n)
        lam = 2.0 * (1.0 - np.cos(2 * np.pi / n)) / h**2
        factor = (1 - dt * lam / 2) / (1 + dt * lam / 2)
        assert np.abs(heat.step(mode) - factor * mode).max() <= 1e-12

    def test_batched_columns(self, rng):
        heat = PeriodicHeatCN(16, 1 / 16, 1e-3)
        block = rng.normal(size=(16, 7))
        cols = np.stack([heat.step(block[:, j]) for j in range(7)], axis=1)
        assert np.abs(heat.step(block) - cols).max() <= 1e-14

    def test_fortran_ordered_pair(self, rng):
        # kbm_step passes the (2, n) state transposed: an F-ordered (n, 2) view.
        heat = PeriodicHeatCN(64, 1 / 64, 1e-3)
        U = rng.normal(size=(2, 64))
        cols = np.stack([heat.step(U[j]) for j in range(2)], axis=1)
        assert np.abs(heat.step(U.T) - cols).max() <= 1e-14

    @pytest.mark.parametrize("n, dt", [(32, 5e-3), (64, 2e-3), (512, 1e-4)])
    def test_columns_sum_to_one(self, n, dt):
        # The columns of the identity's step are the matrix's; fsum rounds once.
        matrix = PeriodicHeatCN(n, 1.0 / n, dt).step(np.eye(n))
        sums = np.array([math.fsum(col) for col in matrix.T])
        assert np.abs(sums - 1.0).max() <= 4 * np.finfo(float).eps
