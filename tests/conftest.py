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
