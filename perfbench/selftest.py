"""Tiny-size self-test of the benchmark harness.

Usage (from the root of a checkout): python3 perfbench/selftest.py

For every workload, shrunk to 16 x 64 cells and a short horizon, it checks:
  * an untraced and a traced invocation pass the gate against references
    taken from the first invocation, with byte-identical outputs;
  * the traced invocation reproduces its exact call counts, gives every
    per-layer metric of BENCHMARK.json as a number and reconciles its coverage;
  * the gate admits a roundoff-sized change in a reference value, and an
    invocation fails when a reference value is perturbed by 1e-6 relative;
  * the result object has exactly the keys and metric names the contract fixes.
Finally the benchmark must exit non-zero, printing no result, in a directory
that holds only BENCHMARK.json and perfbench/.  Exit code 0 when all pass.
"""

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys

import run

TINY = {"space_points": 16, "trait_points": 64, "t_end": 0.2}


def check(ok, message, failures):
    print(f"{'ok  ' if ok else 'FAIL'} {message}")
    if not ok:
        failures.append(message)


def check_result_schema(spec, result, trace, failures, label):
    wanted = [m["name"] for m in (spec["per_layer"] if trace else spec["end_to_end"])]
    check(
        set(result) == {"correct", "attempted", "failed", "metrics"}
        and isinstance(result["attempted"], int)
        and isinstance(result["failed"], int)
        and result["attempted"] >= 1
        and list(result["metrics"]) == wanted
        and all(
            set(v) == {"value", "unit"} and math.isfinite(v["value"])
            for v in result["metrics"].values()
        ),
        f"{label}: result object matches the contract (--trace {trace})",
        failures,
    )


def selftest_workload(root, spec, wl, failures):
    layer_names = [m["name"] for m in spec["per_layer"]]
    ctx = run.make_context(root, wl, seed=3, reference=None, layer_names=layer_names)
    try:
        first = run.invoke(ctx, traced=False)
        check(not first["misses"], f"{wl.name}: first invocation runs {first['misses']}", failures)
        ctx.reference = dict(first["observed"])
        probe = run.setup_probe(ctx)
        check("setup_s" in probe, f"{wl.name}: setup probe reports setup_s", failures)
        measured = run.measure(ctx, trace=1, seconds=0.0, probe=probe)
        check(
            measured["failed"] == 0,
            f"{wl.name}: traced and untraced invocations pass gate, determinism and counts "
            f"{measured['misses']}",
            failures,
        )
        _, result = run.summarize(spec, measured, trace=1)
        check_result_schema(spec, result, 1, failures, wl.name)
        counts = measured["samples"]["_counts"][0]
        check(
            all(counts.get(span) == n for span, n in wl.expected_counts().items()),
            f"{wl.name}: exact call counts {wl.expected_counts()}",
            failures,
        )
        measured = run.measure(ctx, trace=0, seconds=0.0, probe=probe)
        _, result = run.summarize(spec, measured, trace=0)
        check_result_schema(spec, result, 0, failures, wl.name)

        observed = first["observed"]
        key = sorted(k for k, v in observed.items() if abs(v) > 1e-3 and k != "all_passed")[0]
        roundoff = dict(observed, **{key: observed[key] * (1 + 1e-13)})
        check(not run.gate(observed, roundoff), f"{wl.name}: gate admits a 1e-13 change in {key}", failures)
        ctx.reference = dict(observed, **{key: observed[key] * (1 + 1e-6)})
        missed = run.invoke(ctx, traced=False)["misses"]
        check(
            len(missed) == 1 and missed[0].startswith(key),
            f"{wl.name}: an invocation fails the gate when {key} is perturbed by 1e-6",
            failures,
        )
    finally:
        shutil.rmtree(ctx.work, ignore_errors=True)


def selftest_bare_directory(root, failures):
    bare = os.path.join(root, ".perfbench_work", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(run.BENCHMARK_JSON, bare)
        shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "kbm", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
        check(
            proc.returncode != 0 and not proc.stdout.strip(),
            f"without the program's sources the benchmark exits {proc.returncode} and prints no result",
            failures,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    root = os.getcwd()
    with open(run.BENCHMARK_JSON) as fh:
        spec = json.load(fh)
    failures = []
    for wl in run.WORKLOADS.values():
        selftest_workload(root, spec, dataclasses.replace(wl, **TINY), failures)
    selftest_bare_directory(root, failures)
    try:
        os.rmdir(os.path.join(root, ".perfbench_work"))
    except OSError:
        pass
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
