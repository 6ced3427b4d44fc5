import math

import pytest

from simkbm import Environment, TorusGrid, TraitGrid


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
