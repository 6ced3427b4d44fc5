"""Peak RSS of a benchmark workload's command, per trait-point count.

Runs the command of one workload of `perfbench/run.py` (its WORKLOADS and
ENTRY, read without change; `check-operator`'s operator workload unless
--workload names another) on that workload's document with trait_points
set to each given count, once per count, in a fresh interpreter with
SRC_ROOT/src first on the path and one BLAS thread, and prints the exit
code and the peak resident set size (ru_maxrss) of the process and every
child it reaped, in MiB.  The process is measured as `perfbench/run.py`
measures its peak_rss_mb.  The file is not collected by pytest.

Usage: python tests/peak_rss.py [--workload NAME] SRC_ROOT [TRAIT_POINTS ...]

With no counts it measures the workload's own trait_points; for the
operator workload, also 2048 and 4096 (the largest that parse_config
accepts).  To compare two checkouts on every workload:

    for w in compare kbm sweep operator; do
        python tests/peak_rss.py --workload $w PARENT_CHECKOUT
        python tests/peak_rss.py --workload $w .
    done
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import shutil
import sys
import tempfile

from output_digest import load_bench

# The operator workload's extra counts: check-operator's memory grows fastest with them.
OPERATOR_POINTS = (2048, 4096)


def main(argv=None) -> int:
    bench = load_bench()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(bench.WORKLOADS), default="operator")
    parser.add_argument("src_root", help="checkout whose src/ is run")
    parser.add_argument("trait_points", nargs="*", type=int)
    args = parser.parse_args(argv)
    workload = bench.WORKLOADS[args.workload]
    counts = args.trait_points or [workload.trait_points]
    if not args.trait_points and args.workload == "operator":
        counts += OPERATOR_POINTS

    src = os.path.join(os.path.abspath(args.src_root), "src")
    if not os.path.isfile(os.path.join(src, "simkbm", "cli.py")):
        print(f"no simkbm sources under {src}", file=sys.stderr)
        return 2
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path, **{var: "1" for var in bench.THREAD_VARS}}
    work = tempfile.mkdtemp(prefix="simkbm-peak-rss-")
    try:
        for points in counts:
            wl = dataclasses.replace(workload, trait_points=points)
            config_path = os.path.join(work, "config.json")
            out_dir = os.path.join(work, "out")
            shutil.rmtree(out_dir, ignore_errors=True)
            with open(config_path, "w") as fh:
                json.dump(wl.config(), fh)
            cmd = [sys.executable, "-c", bench.ENTRY, *wl.cli_args(config_path, out_dir, 0)]
            *_, rss, rc = bench.spawn(cmd, env, os.path.join(work, "stderr.txt"))
            print(f"{args.workload} trait_points={points} exit={rc} peak_rss_mb={rss:.1f}", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
