"""Command-line entry point: single runs, model comparison, gamma sweeps, operator checks.

Exit codes: 0 success, 1 configuration error, 2 runtime invariant violation,
3 operator property-suite failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings

import numpy as np

from .config import ConfigError, RunConfig, parse_config
from .diagnostics import gaussian_deviation
from .experiments import run_compare, run_gamma_sweep
from .kbm_solver import MacroState, run_kbm
from .output import FORMAT_VERSION, ensure_dir, write_csv, write_json, write_snapshot
from .property_checks import run_all
from .sim_solver import SimulationError, init_state, run_sim


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # Treat CLI misuse as a configuration error (exit code 1), not the
        # argparse default of 2, which is reserved for runtime violations.
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="simkbm", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("simulate-sim", "integrate the kinetic model and write snapshots"),
        ("simulate-kbm", "integrate the macroscopic model and write snapshots"),
        ("compare", "run both models from matched initial data and write error series"),
        ("gamma-sweep", "compare across a list of gammas and fit decay exponents"),
        ("check-operator", "run the reproduction-operator property suite"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the JSON run configuration")
        p.add_argument("--out", default=None, help="output directory (overrides the config)")
        p.add_argument("--text", action="store_true", help="write snapshots as CSV, not binary")
        p.add_argument("--seed", type=int, default=None, help="seed override")
        if name == "gamma-sweep":
            p.add_argument("--jobs", type=int, default=1, help="parallel sweep workers")
    return parser


def _load_config(args) -> RunConfig:
    try:
        with open(args.config) as fh:
            doc = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    try:
        parsed = json.loads(doc)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(parsed, dict):
        raise ConfigError("config must be a JSON object")
    overrides = {
        "output": {"directory": args.out, "text": True if args.text else None},
        "numerical": {"seed": args.seed},
    }
    for name, values in overrides.items():
        section = parsed.get(name, {})
        # A section that is not an object is left for parse_config to reject.
        if isinstance(section, dict):
            parsed[name] = {**section, **{k: v for k, v in values.items() if v is not None}}
    return parse_config(parsed)


def _series_from_trajectory(config, traj, kind):
    if kind == "sim":
        header = [
            "t", "mass", "N_min", "N_max", "Z_min", "Z_max", "v_max", "gauss_dev", "mass_leak_rate"
        ]
        h_x = traj.snapshots[0].space.spacing
        mass = np.array([s.n.sum() * s.trait.spacing * h_x for s in traj.snapshots])
        cols = [
            traj.times,
            mass,
            traj.N.min(axis=1),
            traj.N.max(axis=1),
            traj.Z.min(axis=1),
            traj.Z.max(axis=1),
            traj.V.max(axis=1),
            np.array([gaussian_deviation(s, config.A) for s in traj.snapshots]),
            traj.leak_rate,
        ]
    else:
        header = ["t", "N_min", "N_max", "Z_min", "Z_max"]
        cols = [
            traj.times,
            traj.N.min(axis=1),
            traj.N.max(axis=1),
            traj.Z.min(axis=1),
            traj.Z.max(axis=1),
        ]
    return header, cols


def _cmd_simulate_sim(config: RunConfig) -> int:
    params = config.sim_params()
    state0 = init_state(config)
    traj = run_sim(state0, params, config.env, config.t_end)
    # The series can still raise (gauss_dev), so it comes before any output.
    header, cols = _series_from_trajectory(config, traj, "sim")
    out = ensure_dir(config.out_dir)
    snap_dir = ensure_dir(os.path.join(out, "snapshots"))
    doc = config.to_dict()
    for idx, state in enumerate(traj.snapshots):
        meta = {
            "space": {"points": state.space.points_per_dim, "period": state.space.period},
            "trait": {
                "y_min": state.trait.y_min,
                "y_max": state.trait.y_max,
                "points": state.trait.points,
            },
        }
        write_snapshot(
            os.path.join(snap_dir, f"sim_{idx:06d}.snap"),
            "sim",
            state.t,
            state.n,
            meta,
            doc,
            text=config.text,
        )
    write_csv(os.path.join(out, "sim_series.csv"), header, cols)
    write_json(
        os.path.join(out, "sim_summary.json"),
        {
            "command": "simulate-sim",
            "format_version": FORMAT_VERSION,
            "config": doc,
            "snapshots": len(traj.snapshots),
            "diagnostics": {
                "max_diffusion_mass_error": traj.diagnostics.max_diffusion_mass_error,
                "max_boundary_leak_rate": traj.diagnostics.max_boundary_leak_rate,
                "min_density_seen": traj.diagnostics.min_density_seen,
                "positivity_clips": traj.diagnostics.positivity_clips,
            },
        },
    )
    return 0


def _cmd_simulate_kbm(config: RunConfig) -> int:
    out = ensure_dir(config.out_dir)
    snap_dir = ensure_dir(os.path.join(out, "snapshots"))
    doc = config.to_dict()
    space = config.space_grid()
    x = space.centers
    n0 = config.n0.evaluate(0.0, x)
    state0 = MacroState(0.0, n0, n0 * config.z0.evaluate(0.0, x), space)
    traj = run_kbm(
        state0, config.env, config.A, config.dt, config.t_end, config.snapshot_dt
    )
    meta = {
        "space": {"points": space.points_per_dim, "period": space.period},
        "fields": ["N", "Y", "Z"],
    }
    Z = traj.Z
    for idx, t in enumerate(traj.times):
        write_snapshot(
            os.path.join(snap_dir, f"kbm_{idx:06d}.snap"),
            "kbm",
            t,
            np.stack((traj.N[idx], traj.Y[idx], Z[idx])),
            meta,
            doc,
            text=config.text,
        )
    header, cols = _series_from_trajectory(config, traj, "kbm")
    write_csv(os.path.join(out, "kbm_series.csv"), header, cols)
    write_json(
        os.path.join(out, "kbm_summary.json"),
        {
            "command": "simulate-kbm",
            "format_version": FORMAT_VERSION,
            "config": doc,
            "snapshots": len(traj.times),
        },
    )
    return 0


def _write_compare(out_dir, config, result) -> None:
    header, cols = result.series_columns()
    write_csv(os.path.join(out_dir, "compare_series.csv"), header, cols)
    write_json(
        os.path.join(out_dir, "compare_summary.json"),
        {
            "command": "compare",
            "format_version": FORMAT_VERSION,
            "config": config.to_dict(),
            "gamma": result.gamma,
            "t_burn": result.t_burn,
            "sups": result.sups,
            "holder": result.holder,
        },
    )


def _cmd_compare(config: RunConfig) -> int:
    result = run_compare(config)
    _write_compare(ensure_dir(config.out_dir), config, result)
    return 0


def _cmd_gamma_sweep(config: RunConfig, jobs: int) -> int:
    report, results = run_gamma_sweep(config, jobs=jobs)
    out = ensure_dir(config.out_dir)
    for gamma, result in sorted(results.items()):
        sub = ensure_dir(os.path.join(out, f"gamma_{gamma:g}"))
        _write_compare(sub, config, result)
    header = ["gamma"] + list(report.errors)
    cols = [np.asarray(report.gammas)] + [np.asarray(report.errors[f]) for f in report.errors]
    write_csv(os.path.join(out, "sweep.csv"), header, cols)
    write_json(
        os.path.join(out, "sweep_summary.json"),
        {
            "command": "gamma-sweep",
            "format_version": FORMAT_VERSION,
            "config": config.to_dict(),
            "gammas": report.gammas,
            "errors": report.errors,
            "theta_hat": report.theta_hat,
            "c_hat": report.c_hat,
            "r2": report.r2,
        },
    )
    return 0


def _cmd_check_operator(config: RunConfig) -> int:
    out = ensure_dir(config.out_dir)
    checks = run_all(config.A, config.trait_grid(), config.seed)
    report = {
        "command": "check-operator",
        "format_version": FORMAT_VERSION,
        "config": config.to_dict(),
        "checks": [c.to_dict() for c in checks],
        "all_passed": all(c.passed for c in checks),
    }
    write_json(os.path.join(out, "operator_report.json"), report)
    for c in checks:
        status = "pass" if c.passed else "FAIL"
        print(f"{status:4s}  {c.name}: worst {c.worst:.3e} vs tolerance {c.tolerance:.3e}")
    return 0 if report["all_passed"] else 3


def _format_warning(message, category, filename, lineno, line=None):
    return f"warning: {message}\n"


def main(argv=None) -> int:
    # One stderr line per warning, with no source echo; forked sweep workers
    # inherit the format.
    default_format = warnings.formatwarning
    warnings.formatwarning = _format_warning
    try:
        args = _build_parser().parse_args(argv)
        config = _load_config(args)
        if args.command == "simulate-sim":
            return _cmd_simulate_sim(config)
        if args.command == "simulate-kbm":
            return _cmd_simulate_kbm(config)
        if args.command == "compare":
            return _cmd_compare(config)
        if args.command == "gamma-sweep":
            return _cmd_gamma_sweep(config, jobs=max(1, args.jobs))
        if args.command == "check-operator":
            return _cmd_check_operator(config)
        raise ConfigError(f"unknown command {args.command!r}")
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
