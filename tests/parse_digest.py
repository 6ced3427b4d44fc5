"""How parse_config resolves the time grid over a fixed ladder of documents.

Every document has A = 1, gamma = 8, the benchmark workloads' environment
(sinusoidal_in_x, amplitude 0.5) and the default grids; only the numerical
time keys vary:

- an explicit dt of 0.0005, 0.001, 0.002 or 0.003, with t_end = n dt for
  n = 1..4000 steps, and snapshot_dt "auto";
- an auto dt, with t_end = k * 0.0025 for k = 1..4000, and snapshot_dt "auto";
- an auto dt with an explicit snapshot_dt of 0.01, 0.05 or 0.25, with
  t_end = k * 0.0025 for each k = 1..4000 that makes t_end a whole number
  of snapshot intervals.

The documents are parsed by SRC_ROOT's package, in a fresh interpreter with
SRC_ROOT/src first on the path, and the tool prints one line per document:
the resolved dt and snapshot_dt with the snapshot count, or the ConfigError
line.  It takes a few seconds and is not collected by pytest.

Usage: python tests/parse_digest.py SRC_ROOT

To see which documents a change to the parser resolves differently, run it
on a checkout of the parent and on the change and compare the lines:

    python tests/parse_digest.py PARENT_CHECKOUT > parent.txt
    python tests/parse_digest.py . > change.txt
    diff parent.txt change.txt
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys

EXPLICIT_DTS = (0.0005, 0.001, 0.002, 0.003)
RUNGS = range(1, 4001)
AUTO_T_UNIT = 0.0025
CADENCES = (0.01, 0.05, 0.25)
PHYSICAL = {"A": 1.0, "gamma": 8.0, "env": {"kind": "sinusoidal_in_x", "amplitude": 0.5}}


def ladder():
    """(label, numerical section) of every document, the explicit dts first."""
    for dt in EXPLICIT_DTS:
        for n in RUNGS:
            yield f"dt={dt!r} steps={n}", {"dt": dt, "t_end": n * dt}
    for k in RUNGS:
        yield f"dt=auto t_end={k}*{AUTO_T_UNIT!r}", {"t_end": k * AUTO_T_UNIT}
    for cadence in CADENCES:
        for k in RUNGS[round(cadence / AUTO_T_UNIT) - 1 :: round(cadence / AUTO_T_UNIT)]:
            label = f"dt=auto t_end={k}*{AUTO_T_UNIT!r} snapshot_dt={cadence!r}"
            yield label, {"t_end": k * AUTO_T_UNIT, "snapshot_dt": cadence}


def emit():
    """Print the line of every document, parsed by the simkbm on the path."""
    from simkbm.config import ConfigError, parse_config
    from simkbm.sim_solver import plan_steps

    for label, numerical in ladder():
        try:
            cfg = parse_config({"physical": PHYSICAL, "numerical": numerical})
        except ConfigError as exc:
            print(f"{label}: ConfigError: {exc}")
            continue
        n_steps, every = plan_steps(0.0, cfg.t_end, cfg.dt, cfg.snapshot_dt)
        print(
            f"{label}: dt={cfg.dt!r} snapshot_dt={cfg.snapshot_dt!r} "
            f"snapshots={n_steps // every + 1}"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src_root", help="checkout whose src/ parses the documents")
    args = parser.parse_args(argv)

    src = os.path.join(os.path.abspath(args.src_root), "src")
    if not os.path.isfile(os.path.join(src, "simkbm", "config.py")):
        print(f"no simkbm sources under {src}", file=sys.stderr)
        return 2
    here = os.path.dirname(os.path.abspath(__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join((src, here))}
    code = "import parse_digest; parse_digest.emit()"
    return subprocess.run([sys.executable, "-c", code], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
