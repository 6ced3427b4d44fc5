import collections

import numpy as np
import pytest

from simkbm import TorusGrid, TraitGrid


@pytest.fixture
def trait512():
    return TraitGrid(-8.0, 8.0, 512)


@pytest.fixture
def trait256():
    return TraitGrid(-8.0, 8.0, 256)


@pytest.fixture
def space64():
    return TorusGrid(64, 1.0)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(owner, name) wraps owner.name for the test; returns the shared counts."""
    counts = collections.Counter()

    def install(owner, name):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
        return counts

    return install


@pytest.fixture
def near_end_doc():
    """A compare document whose trait grid ends 5.6 to 5.95 sqrt(A) below the
    initial mean traits: every reference Gaussian of gauss_dev lies near the
    lower end, and those at the lowest means hold less than 1 - 1e-8 of their
    mass, so the run stops with exit 2 at t = 0."""

    def sinusoidal(amplitude):
        return {"kind": "sinusoidal", "offset": 0.0, "amplitude": amplitude, "wavenumber": 1}

    return {
        "physical": {
            "A": 1.0,
            "gamma": 8.0,
            "env": {"kind": "sinusoidal_in_x", "amplitude": 0.3},
            "initial": {"Z0": sinusoidal(0.2), "V0": 0.25},
        },
        "numerical": {
            "space_points": 16,
            "trait_points": 256,
            "trait_bounds": [-5.75, 8.0],
            "dt": 0.002,
            "t_end": 0.1,
            "snapshot_dt": 0.02,
        },
    }
