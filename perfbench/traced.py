"""Run one `simkbm` CLI command with span recording around every public layer.

Usage: python3 perfbench/traced.py SPAN_DIR COMMAND [CLI ARGS...]

The wrappers are installed from outside the package: each public function is
replaced in every `simkbm` module that holds a reference to it (modules use
`from .x import y`, so patching only the defining module would miss most
calls), and the hot methods are replaced on their classes.  Spans
(name, start, end, parent, extra) are kept in memory and written to SPAN_DIR
when the command ends, followed by the clock reading at which interpreter
exit begins.  Pool workers fork after the wrappers are installed;
each starts from an empty span list and writes its spans after every sweep
member it completes.
"""

from __future__ import annotations

import functools
import os
import pickle
import sys
import time
from array import array

_clock = time.perf_counter


class Tracer:
    """Spans in flat arrays: appending to them creates no objects for the
    garbage collector to scan, so 40,000 spans (simulate-kbm) stay cheap."""

    def __init__(self, span_dir: str):
        self.span_dir = span_dir
        self.main_pid = os.getpid()
        self.flushes = 0
        self.clear()

    def clear(self):
        self.names: list = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.extras = array("d")
        self.stack: list = []

    def add(self, name, start, end):
        self.names.append(name)
        self.starts.append(start)
        self.ends.append(end)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.extras.append(0.0)

    def wrap(self, name, fn, extra=None, rename=None):
        """Return fn recording one span per call.

        extra(args, result) stores a number with the span (rows, bytes);
        rename(result) replaces the span name once the call returns.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer.stack
            idx = len(tracer.names)
            tracer.names.append(name)
            tracer.parents.append(stack[-1] if stack else -1)
            tracer.ends.append(0.0)
            tracer.extras.append(0.0)
            stack.append(idx)
            tracer.starts.append(_clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.ends[idx] = _clock()
                stack.pop()
            if extra is not None:
                tracer.extras[idx] = extra(args, out)
            if rename is not None:
                tracer.names[idx] = rename(out)
            if not stack and os.getpid() != tracer.main_pid:
                tracer.write(f"worker-{os.getpid()}-{tracer.flushes}.pickle")
                tracer.flushes += 1
                tracer.clear()
            return out

        return traced

    def write(self, filename):
        spans = {
            "names": self.names,
            "starts": self.starts,
            "ends": self.ends,
            "parents": self.parents,
            "extras": self.extras,
        }
        with open(os.path.join(self.span_dir, filename), "wb") as fh:
            pickle.dump(spans, fh, protocol=pickle.HIGHEST_PROTOCOL)


def _replace_everywhere(original, replacement):
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "simkbm" or mod_name.startswith("simkbm."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)


def _file_size(args, _out):
    return os.path.getsize(args[0])


def _retained_bytes(_args, traj):
    return sum(s.n.nbytes for s in traj.snapshots) + traj.N.nbytes + traj.Z.nbytes + traj.V.nbytes


FUNCTIONS = [
    ("config", "parse_config", {}),
    ("sim_solver", "init_state", {}),
    ("sim_solver", "run_sim", {"extra": _retained_bytes}),
    ("sim_solver", "sim_step", {}),
    ("kbm_solver", "run_kbm", {}),
    ("kbm_solver", "kbm_step", {}),
    ("infinitesimal", "apply_T_fast", {}),
    ("infinitesimal", "apply_T_oracle", {}),
    ("measures", "wasserstein", {}),
    ("measures", "wasserstein_oracle", {}),
    ("measures", "gaussian_on_grid", {}),
    ("diagnostics", "gaussian_deviation", {}),
    ("diagnostics", "holder_quotient", {}),
    ("diagnostics", "kbm_residuals", {}),
    ("diagnostics", "fit_power_law", {}),
    ("property_checks", "run_all", {}),
    ("experiments", "run_compare", {}),
    ("experiments", "run_gamma_sweep", {}),
    ("output", "write_snapshot", {"extra": _file_size}),
    ("output", "write_csv", {"extra": _file_size}),
    ("output", "write_json", {"extra": _file_size}),
]

PROPERTY_CHECKS = [
    "check_mass_conservation",
    "check_mean_conservation",
    "check_variance_map",
    "check_gaussian_fixed_point",
    "check_positivity",
    "check_tanaka",
    "check_oracle_agreement",
    "check_wasserstein_oracle_agreement",
]


def install(tracer: Tracer):
    from simkbm import diffusion, environment, experiments, infinitesimal, property_checks

    for mod_name, attr, opts in FUNCTIONS:
        mod = sys.modules[f"simkbm.{mod_name}"]
        original = getattr(mod, attr)
        _replace_everywhere(original, tracer.wrap(f"{mod_name}.{attr}", original, **opts))

    # check_tanaka runs twice (p = 2, 4): name each span after the result it returns.
    for attr in PROPERTY_CHECKS:
        original = getattr(property_checks, attr)
        wrapped = tracer.wrap(attr, original, rename=lambda out: f"property_checks.{out.name}")
        _replace_everywhere(original, wrapped)

    # Sweep members are pickled by qualified name, so the pool runs this wrapper too.
    experiments._compare_worker = tracer.wrap(
        "experiments.sweep.member", experiments._compare_worker
    )

    methods = [
        (infinitesimal.ReproductionKernel, "__init__", "infinitesimal.kernel_init", None),
        (
            infinitesimal.ReproductionKernel,
            "apply_to_profiles",
            "infinitesimal.apply_to_profiles",
            lambda args, out: out.shape[0],
        ),
        (diffusion.PeriodicHeatCN, "__init__", "diffusion.heat_init", None),
        # Computed bytes: the field read plus the field written.
        (diffusion.PeriodicHeatCN, "step", "diffusion.step", lambda args, out: 2 * out.nbytes),
        (environment.Environment, "evaluate", "environment.evaluate", None),
    ]
    for cls, attr, name, extra in methods:
        setattr(cls, attr, tracer.wrap(name, getattr(cls, attr), extra=extra))


def main(argv):
    span_dir, cli_args = argv[0], argv[1:]
    start = _clock()
    import simkbm.cli

    imported = _clock()
    tracer = Tracer(span_dir)
    tracer.add("package.import", start, imported)
    install(tracer)
    os.register_at_fork(after_in_child=tracer.clear)
    rc = tracer.wrap("cli.main", simkbm.cli.main)(cli_args)
    tracer.write("main.pickle")
    # Interpreter exit starts here; the parent times the rest.
    with open(os.path.join(span_dir, "exit_start"), "w") as fh:
        fh.write(repr(_clock()))
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
