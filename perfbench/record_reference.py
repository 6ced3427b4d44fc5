"""Regenerate perfbench/reference.json from the code in the current checkout.

Usage (from the root of a checkout): python3 perfbench/record_reference.py

The references pin the outputs of the commit they were recorded at; record
them again only for a change that states how it alters the numerics.  Only
check-operator depends on the seed, so it is recorded once per program seed.
"""

import json
import os
import shutil
import sys

import run


def main() -> int:
    root = os.getcwd()
    references = {}
    for wl in run.WORKLOADS.values():
        seeds = range(run.REFERENCE_SEEDS) if wl.command == "check-operator" else [0]
        per_seed = {}
        for seed in seeds:
            ctx = run.make_context(root, wl, seed, reference=None)
            try:
                inv = run.invoke(ctx, traced=False)
            finally:
                shutil.rmtree(ctx.work, ignore_errors=True)
            if inv["misses"]:
                print(f"{wl.name} seed {seed}: {inv['misses']}", file=sys.stderr)
                return 1
            per_seed[str(seed)] = inv["observed"]
            print(f"{wl.name} seed {seed}: {inv['wall_s']:.2f} s", file=sys.stderr)
        references[wl.name] = per_seed if wl.command == "check-operator" else per_seed["0"]
    with open(run.REFERENCE, "w") as fh:
        json.dump(references, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
