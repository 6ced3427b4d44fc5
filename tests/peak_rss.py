"""Peak RSS of `check-operator` on the operator benchmark's document, per trait-point count.

Runs `check-operator` on the document of `perfbench/run.py`'s operator
workload (its WORKLOADS and ENTRY, read without change) with trait_points
set to each given count, once per count, in a fresh interpreter with
SRC_ROOT/src first on the path and one BLAS thread, and prints the exit
code and the child's peak resident set size (ru_maxrss) in MiB.  The
process is measured as `perfbench/run.py` measures its peak_rss_mb.  The
file is not collected by pytest.

Usage: python tests/peak_rss.py SRC_ROOT [TRAIT_POINTS ...]

With no counts it measures 256 (the benchmark's), 2048 and 4096 (the
largest that parse_config accepts).  To compare two checkouts:

    python tests/peak_rss.py PARENT_CHECKOUT
    python tests/peak_rss.py .
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

DEFAULT_POINTS = (256, 2048, 4096)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src_root", help="checkout whose src/ is run")
    parser.add_argument("trait_points", nargs="*", type=int, default=list(DEFAULT_POINTS))
    args = parser.parse_args(argv)

    src = os.path.join(os.path.abspath(args.src_root), "src")
    if not os.path.isfile(os.path.join(src, "simkbm", "cli.py")):
        print(f"no simkbm sources under {src}", file=sys.stderr)
        return 2
    bench = load_bench()
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path, **{var: "1" for var in bench.THREAD_VARS}}
    work = tempfile.mkdtemp(prefix="simkbm-peak-rss-")
    try:
        for points in args.trait_points:
            wl = dataclasses.replace(bench.WORKLOADS["operator"], trait_points=points)
            config_path = os.path.join(work, "config.json")
            out_dir = os.path.join(work, "out")
            shutil.rmtree(out_dir, ignore_errors=True)
            with open(config_path, "w") as fh:
                json.dump(wl.config(), fh)
            cmd = [sys.executable, "-c", bench.ENTRY, *wl.cli_args(config_path, out_dir, 0)]
            *_, rss, rc = bench.spawn(cmd, env, os.path.join(work, "stderr.txt"))
            print(f"trait_points={points} exit={rc} peak_rss_mb={rss:.1f}", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
