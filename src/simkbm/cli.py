"""Command-line entry point: single runs, model comparison, gamma sweeps, operator checks.

Exit codes: 0 success, 1 configuration error, 2 runtime invariant violation,
3 operator property-suite failure.
"""

from __future__ import annotations

import argparse
import collections
import dataclasses
import os
import sys
import warnings

import numpy as np

from .config import ConfigError, RunConfig, load_document, parse_config
from .experiments import reduced_snapshots, run_compare, run_gamma_sweep
from .kbm_solver import init_macro, run_kbm
from .output import FORMAT_VERSION, ensure_dir, write_csv, write_json, write_snapshot
from .property_checks import run_all
from .sim_solver import RunDiagnostics, SimulationError, plan_steps


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # Treat CLI misuse as a configuration error (exit code 1), not the
        # argparse default of 2, which is reserved for runtime violations.
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="simkbm", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--config", required=True, help="path to the JSON run configuration")
        p.add_argument("--out", default=None, help="output directory (overrides the config)")
        p.add_argument("--text", action="store_true", help="write snapshots as CSV, not binary")
        p.add_argument("--seed", type=int, default=None, help="seed override")
        if name == "gamma-sweep":
            p.add_argument("--jobs", type=int, default=1, help="parallel sweep workers")
    return parser


# Besides their files in _COMMANDS, the simulate commands write snapshots into
# _SNAPSHOT_DIR, and gamma-sweep writes compare's files into one _member_dir per gamma.
_SNAPSHOT_DIR = "snapshots"


def _member_dir(gamma):
    return f"gamma_{gamma:g}"


def _snapshot_name(kind, idx):
    return f"{kind}_{idx:06d}.snap"


def _check_layout(command, config):
    """Reject, before any work, a directory `command` would write that names a
    file or lies under one (with a trailing separator, stat fails on both), a
    file it would write that names a directory, and two sweep members whose
    gammas share a directory."""
    out = config.out_dir
    dirs = (_SNAPSHOT_DIR,) if command.startswith("simulate-") else ()
    files = _COMMANDS[command].files
    if command == "gamma-sweep":
        members = {}
        for g in config.gamma_list or ():
            d = _member_dir(g)
            if d in members:
                raise ConfigError(
                    f"physical.gamma_list values {members[d]!r} and {g!r} would share the "
                    f"output directory {os.path.join(out, d)}"
                )
            members[d] = g
        dirs = tuple(members)
        files = tuple(os.path.join(d, f) for d in dirs for f in _COMMANDS["compare"].files) + files
    for path in (out, *(os.path.join(out, d) for d in dirs)):
        try:
            os.stat(os.path.join(path, ""))
        except FileNotFoundError:
            pass
        except OSError as exc:
            raise ConfigError(f"cannot use output directory {path}: {exc.strerror}") from exc
    if command.startswith("simulate-"):
        kind = command[len("simulate-"):]
        n_steps, every = plan_steps(0.0, config.t_end, config.dt, config.snapshot_dt)
        names = {_snapshot_name(kind, idx) for idx in range(n_steps // every + 1)}
        snap_dir = os.path.join(out, _SNAPSHOT_DIR)
        try:
            with os.scandir(snap_dir) as entries:
                taken = sorted(e.name for e in entries if e.name in names)
        except FileNotFoundError:
            taken = []
        except OSError as exc:
            raise ConfigError(f"cannot use output directory {snap_dir}: {exc.strerror}") from exc
        files += tuple(os.path.join(_SNAPSHOT_DIR, name) for name in taken)
    for path in (os.path.join(out, f) for f in files):
        if os.path.isdir(path):
            raise ConfigError(f"cannot write output file {path}: it is a directory")


def _load_config(args) -> RunConfig:
    try:
        with open(args.config, "rb") as fh:
            doc = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    parsed = load_document(doc)
    overrides = {
        "output": {"directory": args.out, "text": True if args.text else None},
        "numerical": {"seed": args.seed},
    }
    for name, values in overrides.items():
        section = parsed.get(name, {})
        # A section that is not an object is left for parse_config to reject.
        if isinstance(section, dict):
            parsed[name] = {**section, **{k: v for k, v in values.items() if v is not None}}
    config = parse_config(parsed)
    _check_layout(args.command, config)
    return config


def _write_outputs(out, command, doc, series=None, **fields):
    """The fixed-name files of `command` in out: its series, a (header, columns) pair, if
    it has one, then its summary of name, format version, config echo and fields."""
    *series_file, summary_file = _COMMANDS[command].files
    if series is not None:
        write_csv(os.path.join(out, *series_file), *series)
    summary = {"command": command, "format_version": FORMAT_VERSION, "config": doc, **fields}
    write_json(os.path.join(out, summary_file), summary)


def _write_run(config, kind, fields, meta, header, cols, **summary):
    """Snapshots, series and summary of a simulate command, written only once the
    run and its series have succeeded.  The first column holds the snapshot times."""
    out = ensure_dir(config.out_dir)
    snap_dir = ensure_dir(os.path.join(out, _SNAPSHOT_DIR))
    doc = config.to_dict()
    for idx, (t, field) in enumerate(zip(cols[0], fields)):
        path = os.path.join(snap_dir, _snapshot_name(kind, idx))
        write_snapshot(path, kind, t, field, meta, doc, text=config.text)
    _write_outputs(out, f"simulate-{kind}", doc, (header, cols), snapshots=len(cols[0]), **summary)


def _space_meta(space):
    return {"points": space.points_per_dim, "period": space.period}


def _cmd_simulate_sim(config: RunConfig, args) -> int:
    params = config.sim_params()  # exit 1 without a single gamma, before the run can exit 2
    space, trait = config.space_grid(), config.trait_grid()
    diag = RunDiagnostics()
    header = [
        "t", "mass", "N_min", "N_max", "Z_min", "Z_max", "v_max", "gauss_dev", "mass_leak_rate"
    ]
    fields, rows = [], []
    # Each snapshot is reduced on arrival; only the densities to write are kept.
    for state, moms, dev in reduced_snapshots(config, params, diag):
        fields.append(state.n)
        mass = state.n.sum() * trait.spacing * space.spacing
        N, Z = moms.N, moms.Z
        mark = diag.max_boundary_leak_rate
        rows.append((state.t, mass, N.min(), N.max(), Z.min(), Z.max(), moms.V.max(), dev, mark))
    cols = np.array(rows).T
    meta = {
        "space": _space_meta(space),
        "trait": {"y_min": trait.y_min, "y_max": trait.y_max, "points": trait.points},
    }
    _write_run(config, "sim", fields, meta, header, cols, diagnostics=dataclasses.asdict(diag))
    return 0


def _cmd_simulate_kbm(config: RunConfig, args) -> int:
    state0 = init_macro(config)
    traj = run_kbm(state0, config.env, config.A, config.dt, config.t_end, config.snapshot_dt)
    N, Z = traj.N, traj.Z
    header = ["t", "N_min", "N_max", "Z_min", "Z_max"]
    cols = [traj.times, N.min(axis=1), N.max(axis=1), Z.min(axis=1), Z.max(axis=1)]
    meta = {"space": _space_meta(state0.space), "fields": ["N", "Y", "Z"]}
    fields = (np.stack(rows) for rows in zip(N, traj.Y, Z))
    _write_run(config, "kbm", fields, meta, header, cols)
    return 0


def _write_compare(out_dir, doc, result) -> None:
    fields = {k: getattr(result, k) for k in ("gamma", "t_burn", "sups", "holder")}
    _write_outputs(out_dir, "compare", doc, result.series_columns(), **fields)


def _cmd_compare(config: RunConfig, args) -> int:
    result = run_compare(config)
    _write_compare(ensure_dir(config.out_dir), config.to_dict(), result)
    return 0


def _cmd_gamma_sweep(config: RunConfig, args) -> int:
    if args.jobs < 1:
        raise ConfigError(f"argument --jobs: must be at least 1, got {args.jobs}")
    report, results = run_gamma_sweep(config, jobs=args.jobs)
    out = ensure_dir(config.out_dir)
    doc = config.to_dict()
    for gamma, result in sorted(results.items()):
        _write_compare(ensure_dir(os.path.join(out, _member_dir(gamma))), doc, result)
    header = ["gamma"] + list(report.errors)
    cols = [np.asarray(report.gammas)] + [np.asarray(report.errors[f]) for f in report.errors]
    _write_outputs(out, "gamma-sweep", doc, (header, cols), **dataclasses.asdict(report))
    return 0


def _cmd_check_operator(config: RunConfig, args) -> int:
    checks = run_all(config.A, config.trait_grid(), config.seed)
    passed = all(c.passed for c in checks)
    report = {"checks": [c.to_dict() for c in checks], "all_passed": passed}
    _write_outputs(ensure_dir(config.out_dir), "check-operator", config.to_dict(), **report)
    for c in checks:
        status = "pass" if c.passed else "FAIL"
        print(f"{status:4s}  {c.name}: worst {c.worst:.3e} vs tolerance {c.tolerance:.3e}")
    return 0 if passed else 3


# Each command's handler, called with (config, args), its help line and the
# fixed-name files it writes into the output directory, its summary last.
_Command = collections.namedtuple("_Command", "run help files")
_COMMANDS = {
    "simulate-sim": _Command(
        _cmd_simulate_sim, "integrate the kinetic model and write snapshots",
        ("sim_series.csv", "sim_summary.json"),
    ),
    "simulate-kbm": _Command(
        _cmd_simulate_kbm, "integrate the macroscopic model and write snapshots",
        ("kbm_series.csv", "kbm_summary.json"),
    ),
    "compare": _Command(
        _cmd_compare, "run both models from matched initial data and write error series",
        ("compare_series.csv", "compare_summary.json"),
    ),
    "gamma-sweep": _Command(
        _cmd_gamma_sweep, "compare across a list of gammas and fit decay exponents",
        ("sweep.csv", "sweep_summary.json"),
    ),
    "check-operator": _Command(
        _cmd_check_operator, "run the reproduction-operator property suite",
        ("operator_report.json",),
    ),
}


def _format_warning(message, category, filename, lineno, line=None):
    return f"warning: {message}\n"


def main(argv=None) -> int:
    # One stderr line per warning, with no source echo.
    default_format = warnings.formatwarning
    warnings.formatwarning = _format_warning
    try:
        args = _build_parser().parse_args(argv)
        return _COMMANDS[args.command].run(_load_config(args), args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except SimulationError as exc:
        print(f"runtime invariant violation: {exc} {exc.report}", file=sys.stderr)
        return 2
    finally:
        warnings.formatwarning = default_format


if __name__ == "__main__":
    sys.exit(main())
