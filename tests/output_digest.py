"""Digests of what the benchmark workloads write, for byte-identity checks.

Runs the command of every workload in `perfbench/run.py` (its WORKLOADS and
ENTRY, read without change), simulate-sim on the compare workload's
configuration, which no workload runs, and compare on that configuration with
a drifting optimal trait (DRIFT_ENV), which no workload has, so the drift
terms of the SIM reaction substep and of the KBM optimum are covered too.
A compare leaves that configuration's dt and snapshot_dt "auto" (174
steps), so the parser's time planner is covered as well.  Last, compare and
gamma-sweep run on their workloads' configurations with the trait bounds
EDGE_BOUNDS, whose upper end lies 5.9 standard deviations above the mean
traits, so their stderr carries the six-sigma warning.
Each runs once, in a fresh interpreter with SRC_ROOT/src first on the path
and one BLAS thread, and the tool prints per run the exit code and the sha256
of the output tree, of stdout and of stderr.
The outputs echo the resolved config, output directory included, so every
run writes to one fixed path under the system's temporary directory.  A
marker file beside it, created exclusively and removed at the end, makes a
second digest started meanwhile exit 2 instead of overwriting the first's
runs.  The file is not collected by pytest.

Usage: python tests/output_digest.py SRC_ROOT [SEED]

To check that a change keeps every output byte for byte, run it on a
checkout of the parent and on the change and compare the lines:

    python tests/output_digest.py PARENT_CHECKOUT 3 > parent.txt
    python tests/output_digest.py . 3 > change.txt
    diff parent.txt change.txt
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import importlib.util
import json
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile

RUN_PY = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "run.py"
WORK = os.path.join(tempfile.gettempdir(), "simkbm-output-digest")
MARKER = WORK + ".running"
# The compare workload's environment with its optimal trait drifting at rate 0.5.
DRIFT_ENV = {
    "kind": "sinusoidal_plus_drift", "offset": 0.0, "amplitude": 0.5, "wavenumber": 1, "rate": 0.5
}
EDGE_BOUNDS = [-8.5, 5.9]


def load_bench():
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN_PY)
    bench = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = bench  # dataclasses look their module up here
    spec.loader.exec_module(bench)
    return bench


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src_root", help="checkout whose src/ is run")
    parser.add_argument("seed", nargs="?", type=int, default=0)
    args = parser.parse_args(argv)

    src = os.path.join(os.path.abspath(args.src_root), "src")
    if not os.path.isfile(os.path.join(src, "simkbm", "cli.py")):
        print(f"no simkbm sources under {src}", file=sys.stderr)
        return 2
    bench = load_bench()
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path, **{var: "1" for var in bench.THREAD_VARS}}
    compare = bench.WORKLOADS["compare"]
    sim = dataclasses.replace(compare, name="simulate-sim", command="simulate-sim")
    runs = [(name, wl, wl.config()) for name, wl in {**bench.WORKLOADS, sim.name: sim}.items()]
    drift = compare.config()
    drift["physical"]["env"] = DRIFT_ENV
    runs.append(("compare-drift", compare, drift))
    auto = compare.config()
    for key in ("dt", "snapshot_dt"):
        del auto["numerical"][key]
    runs.append(("compare-auto", compare, auto))
    for name in ("compare", "sweep"):
        edge = bench.WORKLOADS[name].config()
        edge["numerical"]["trait_bounds"] = EDGE_BOUNDS
        runs.append((f"{name}-edge", bench.WORKLOADS[name], edge))
    try:
        os.close(os.open(MARKER, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
    except FileExistsError:
        print(f"another output digest is running: {MARKER} exists", file=sys.stderr)
        return 2
    config_path = os.path.join(WORK, "config.json")
    out_dir = os.path.join(WORK, "out")
    try:
        for name, wl, doc in runs:
            shutil.rmtree(WORK, ignore_errors=True)
            os.makedirs(WORK)
            with open(config_path, "w") as fh:
                json.dump(doc, fh)
            proc = subprocess.run(
                [sys.executable, "-c", bench.ENTRY, *wl.cli_args(config_path, out_dir, args.seed)],
                cwd=WORK,
                env=env,
                capture_output=True,
                timeout=bench.INVOCATION_TIMEOUT_S,
            )
            print(
                f"{name} exit={proc.returncode} tree={bench.digest_tree(out_dir)} "
                f"stdout={sha256(proc.stdout)} stderr={sha256(proc.stderr)}"
            )
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        os.remove(MARKER)
    return 0


if __name__ == "__main__":
    sys.exit(main())
