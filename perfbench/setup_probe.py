"""Time `import simkbm` plus building a run's inputs, in a fresh process.

Usage: python3 perfbench/setup_probe.py CONFIG.json

Prints one JSON line: setup_s (import, parse_config, ReproductionKernel,
PeriodicHeatCN, init_state), the numpy and scipy versions, and the path the
package was imported from.
"""

import json
import sys
import time

start = time.perf_counter()
import simkbm  # noqa: E402
from simkbm.diffusion import PeriodicHeatCN  # noqa: E402

with open(sys.argv[1]) as fh:
    config = simkbm.parse_config(fh.read())
space = config.space_grid()
simkbm.ReproductionKernel(config.A, config.trait_grid())
PeriodicHeatCN(space.points_per_dim, space.spacing, config.dt)
simkbm.init_state(config)
setup_s = time.perf_counter() - start

import numpy  # noqa: E402
import scipy  # noqa: E402

print(
    json.dumps(
        {
            "setup_s": setup_s,
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "package_file": simkbm.__file__,
        }
    )
)
