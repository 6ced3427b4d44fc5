"""The benchmark's interface to the program, kept working by tier-1.

perfbench/ runs each workload's CLI command under perfbench/traced.py, which
wraps functions and methods by name and reads attributes such as
TorusGrid.points_per_dim.  A refactor that drops one of those names fails
here rather than at the benchmark gate.  Every workload runs once, in a
subprocess, at the harness self-test's tiny sizes; nothing under perfbench/
is written.

No command calls run_sim: compare, gamma-sweep and simulate-sim reduce
their snapshots on arrival through experiments.reduced_snapshots.  So the
retained-bytes hook that traced.py puts on run_sim, which reads
KineticTrajectory.snapshots, is called here directly.
"""

import dataclasses
import importlib.util
import json
import math
import os
import pathlib
import subprocess
import sys
import time

import pytest

from simkbm.config import parse_config
from simkbm.sim_solver import init_state, run_sim

ROOT = pathlib.Path(__file__).resolve().parents[1]
TINY = {"space_points": 16, "trait_points": 64, "t_end": 0.2}


def _load_harness():
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


HARNESS = _load_harness()


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    env.update({var: "1" for var in HARNESS.THREAD_VARS})
    return env


def _tiny(name, tmp_path):
    wl = dataclasses.replace(HARNESS.WORKLOADS[name], **TINY)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(wl.config()))
    return wl, str(config)


@pytest.mark.parametrize("name", sorted(HARNESS.WORKLOADS))
def test_workload_runs_under_the_tracer(tmp_path, name):
    wl, config = _tiny(name, tmp_path)
    spans, out = tmp_path / "spans", tmp_path / "out"
    spans.mkdir()
    cmd = [sys.executable, HARNESS.TRACED, str(spans)] + wl.cli_args(config, str(out), 3)
    start = time.perf_counter()
    proc = subprocess.run(cmd, env=_env(), capture_output=True, text=True, timeout=120)
    end = time.perf_counter()
    assert proc.returncode == 0, proc.stderr
    names = [m["name"] for m in json.loads(pathlib.Path(HARNESS.BENCHMARK_JSON).read_text())["per_layer"]]
    layers = HARNESS.layer_metrics(names, str(spans), start, end, wl.jobs)
    counts = {span: layers["_counts"].get(span, 0) for span in wl.expected_counts()}
    assert counts == wl.expected_counts()
    assert all(math.isfinite(layers[n]) for n in names if n != "trace.overhead")
    assert HARNESS.observe(wl, str(out))


def test_setup_probe_runs(tmp_path):
    _, config = _tiny("compare", tmp_path)
    proc = subprocess.run(
        [sys.executable, HARNESS.SETUP_PROBE, config],
        env=_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["setup_s"] > 0


def test_retained_bytes_hook_reads_a_run_sim_trajectory(tmp_path):
    spec = importlib.util.spec_from_file_location("perfbench_traced", HARNESS.TRACED)
    traced = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced)
    wl, _ = _tiny("compare", tmp_path)
    config = parse_config(wl.config())
    traj = run_sim(init_state(config), config.sim_params(), config.env, config.t_end)
    density = TINY["space_points"] * TINY["trait_points"] * 8
    moments = 3 * wl.snapshots * TINY["space_points"] * 8
    assert traced._retained_bytes(None, traj) == wl.snapshots * density + moments
