"""Run configuration: strict parsing, defaults, validation, round-trip serialization.

One flat JSON document describes a run.  Unknown keys are hard errors so a
typo in an experiment definition cannot silently fall back to a default,
and every output file later echoes the fully resolved document.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os

import numpy as np

from .environment import ENV_KINDS, KIND_KEYS, Environment
from .grids import TorusGrid, TraitGrid
from .infinitesimal import defect_problem, resolution_problem, segregation_kernel
from .measures import gaussian_rows, unit_mass
from .property_checks import fixed_point_centers
from .sim_solver import SimParams, floor_problem, margin_problem, max_stable_dt, plan_steps

TRAIT_MARGIN_SIGMAS = 8.0
# 400 times the standard run; a trait grid far from the optimal trait makes
# the stability bound on dt, and so the step count, unbounded.
MAX_STEPS = 10**6
# The diffusion step is a dense n x n matrix: 2 MiB at this cap.
MAX_SPACE_POINTS = 512
# One SIM density at 512 x 4096 cells is 16 MiB (8 times the standard trait grid).
MAX_TRAIT_POINTS = 4096
# 100 times the standard 101; simulate-sim keeps every density of its run until it ends.
MAX_SNAPSHOTS = 10**4


class ConfigError(ValueError):
    pass


def _require_keys(doc: dict, allowed: set, path: str):
    unknown = sorted(set(doc) - allowed)
    if unknown:
        raise ConfigError(f"unknown key {unknown[0]!r} in {path}")


def _as_number(v, name: str, positive=False) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{name} must be a number, got {v!r}")
    try:
        v = float(v)
    except OverflowError:  # JSON integers have no size limit
        v = math.inf
    if not math.isfinite(v):  # JSON also admits NaN and Infinity
        raise ConfigError(f"{name} must be finite, got {v:g}")
    if positive and not v > 0:
        raise ConfigError(f"{name} must be positive, got {v:g}")
    return v


def _get_number(doc: dict, key: str, path: str, default=None, positive=False):
    if key not in doc:
        if default is None:
            raise ConfigError(f"missing required key {path}.{key}")
        return default
    return _as_number(doc[key], f"{path}.{key}", positive)


def _get_int(doc: dict, key: str, path: str, default=None, minimum=None, maximum=None):
    if key not in doc:
        if default is None:
            raise ConfigError(f"missing required key {path}.{key}")
        return default
    v = doc[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{path}.{key} must be an integer, got {v!r}")
    if minimum is not None and v < minimum:
        raise ConfigError(f"{path}.{key} must be >= {minimum}, got {v}")
    if maximum is not None and v > maximum:
        raise ConfigError(f"{path}.{key} must be <= {maximum}, got {v}")
    return v


ENV_NAMES = {kind: kind for kind in ENV_KINDS}
PROFILE_NAMES = {"constant": "constant", "sinusoidal": "sinusoidal_in_x"}


def _coefficient(key: str) -> str:
    """The Environment field a document key sets (see environment.KIND_KEYS)."""
    return "offset" if key == "value" else key


def _parse_env(doc, path: str, points: int, period: float, names: dict, value=None) -> Environment:
    """The field a document object describes on `points` space points.  `names` maps its kind
    names to Environment kinds; `value` is the default of a constant's "value" (None: required)."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{path} must be an object")
    name = doc.get("kind")
    if name not in names:
        raise ConfigError(f"{path}.kind must be one of {tuple(names)}, got {name!r}")
    kind = names[name]
    kwargs = {"kind": kind, "period": period}
    for key in KIND_KEYS[kind]:
        if key == "wavenumber":
            kwargs[key] = _get_int(doc, key, path, default=1, minimum=1)
            if kwargs[key] > points // 2:  # it would sample as a lower wavenumber does
                raise ConfigError(
                    f"{path}.wavenumber must be <= {points // 2} on numerical.space_points = "
                    f"{points}, got {kwargs[key]}"
                )
        else:
            default = {"value": value, "offset": 0.0}.get(key)
            kwargs[_coefficient(key)] = _get_number(doc, key, path, default=default)
    _require_keys(doc, {"kind", *KIND_KEYS[kind]}, path)
    return Environment(**kwargs)


def _env_to_dict(env: Environment, names: dict) -> dict:
    out = {"kind": next(name for name, kind in names.items() if kind == env.kind)}
    out.update((key, getattr(env, _coefficient(key))) for key in KIND_KEYS[env.kind])
    return out


@dataclasses.dataclass(frozen=True)
class RunConfig:
    A: float
    gamma: float | None
    gamma_list: tuple | None
    env: Environment
    n0: Environment
    z0: Environment
    v0: float
    space_points: int
    period: float
    trait_bounds: tuple
    trait_points: int
    dt: float
    t_end: float
    snapshot_dt: float
    seed: int
    out_dir: str
    text: bool

    def space_grid(self) -> TorusGrid:
        return TorusGrid(self.space_points, self.period)

    def trait_grid(self) -> TraitGrid:
        return TraitGrid(self.trait_bounds[0], self.trait_bounds[1], self.trait_points)

    def sim_params(self, gamma: float | None = None) -> SimParams:
        g = self.gamma if gamma is None else gamma
        if g is None:
            raise ConfigError("this run needs physical.gamma (a single value)")
        return SimParams(A=self.A, gamma=g, dt=self.dt, snapshot_dt=self.snapshot_dt)

    def to_dict(self) -> dict:
        physical = {
            "A": self.A,
            "env": _env_to_dict(self.env, ENV_NAMES),
            "initial": {
                "N0": _env_to_dict(self.n0, PROFILE_NAMES),
                "Z0": _env_to_dict(self.z0, PROFILE_NAMES),
                "V0": self.v0,
            },
        }
        if self.gamma is not None:
            physical["gamma"] = self.gamma
        if self.gamma_list is not None:
            physical["gamma_list"] = list(self.gamma_list)
        return {
            "physical": physical,
            "numerical": {
                "space_points": self.space_points,
                "period": self.period,
                "trait_bounds": list(self.trait_bounds),
                "trait_points": self.trait_points,
                "dt": self.dt,
                "t_end": self.t_end,
                "snapshot_dt": self.snapshot_dt,
                "seed": self.seed,
            },
            "output": {"directory": self.out_dir, "text": self.text},
        }


def _plan(t_end: float, dt: float, snapshot_dt: float, rule: str) -> tuple:
    """sim_solver.plan_steps from 0 to t_end; its ValueError a ConfigError "numerical.<rule>"."""
    try:
        return plan_steps(0.0, t_end, dt, snapshot_dt)
    except ValueError:
        raise ConfigError(f"numerical.{rule}") from None


def _capped_steps(n_steps, dt: float):
    """n_steps, the step count of a run with steps dt, if it is at most MAX_STEPS."""
    if n_steps > MAX_STEPS:
        raise ConfigError(
            f"the run needs {n_steps:.7g} time steps of dt = {dt:.3g}, more than {MAX_STEPS}: "
            "shorten numerical.t_end or bring numerical.trait_bounds closer to the optimal trait"
        )
    return n_steps


def _auto_cadence(n_steps: int) -> tuple:
    """The "auto" snapshot cadence of an n_steps horizon and its target, in steps: the largest
    divisor of n_steps up to the target n_steps / 100 rounded half up, for about 100 snapshots."""
    target = every = max(1, (n_steps + 50) // 100)
    while n_steps % every:
        every -= 1
    return every, target


def load_document(source) -> dict:
    """The JSON object of a config document given as text, UTF-8 bytes or
    the decoded object; anything else is a ConfigError."""
    if isinstance(source, (str, bytes)):
        try:
            source = json.loads(source.decode("utf-8") if isinstance(source, bytes) else source)
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config is not UTF-8 text: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        except RecursionError as exc:
            raise ConfigError("config nests arrays or objects too deeply to decode") from exc
    if not isinstance(source, dict):
        raise ConfigError("config must be a JSON object")
    return source


def parse_config(source) -> RunConfig:
    """Validate a JSON document (text, bytes or dict; see load_document) into
    a RunConfig with defaults applied."""
    doc = load_document(source)
    _require_keys(doc, {"physical", "numerical", "output"}, "config")

    phys = doc.get("physical")
    if not isinstance(phys, dict):
        raise ConfigError("missing required section 'physical'")
    _require_keys(phys, {"A", "gamma", "gamma_list", "env", "initial"}, "physical")
    A = _get_number(phys, "A", "physical", positive=True)

    gamma = None
    gamma_list = None
    if "gamma" in phys and "gamma_list" in phys:
        raise ConfigError("give exactly one of physical.gamma and physical.gamma_list")
    if "gamma" in phys:
        gamma = _get_number(phys, "gamma", "physical", positive=True)
    elif "gamma_list" in phys:
        raw = phys["gamma_list"]
        if not isinstance(raw, list) or not raw:
            raise ConfigError("physical.gamma_list must be a non-empty list")
        vals = [_as_number(v, "physical.gamma_list entries", positive=True) for v in raw]
        if any(b <= a for a, b in zip(vals, vals[1:])):
            raise ConfigError("physical.gamma_list must be strictly increasing")
        gamma_list = tuple(vals)
    else:
        raise ConfigError("missing required key physical.gamma (or physical.gamma_list)")

    num = doc.get("numerical", {})
    if not isinstance(num, dict):
        raise ConfigError("'numerical' must be an object")
    _require_keys(
        num,
        {
            "space_points",
            "period",
            "trait_bounds",
            "trait_points",
            "dt",
            "t_end",
            "snapshot_dt",
            "seed",
        },
        "numerical",
    )
    space_points = _get_int(
        num, "space_points", "numerical", 64, TorusGrid.MIN_POINTS, MAX_SPACE_POINTS
    )
    period = _get_number(num, "period", "numerical", default=1.0, positive=True)
    trait_points = _get_int(
        num, "trait_points", "numerical", 512, TraitGrid.MIN_POINTS, MAX_TRAIT_POINTS
    )
    t_end = _get_number(num, "t_end", "numerical", positive=True)
    seed = _get_int(num, "seed", "numerical", default=0, minimum=0)
    if seed >= 2**64:
        raise ConfigError("numerical.seed must fit in 64 bits")

    env = phys.get("env")
    if env is None:
        env = {"kind": "constant"}
    env = _parse_env(env, "physical.env", space_points, period, ENV_NAMES, value=0.0)

    init = phys.get("initial")
    if init is None:
        init = {}
    if not isinstance(init, dict):
        raise ConfigError("physical.initial must be an object")
    _require_keys(init, {"N0", "Z0", "V0"}, "physical.initial")
    # The initial fields are read at t = 0: [constant 1] for N0, [constant 0] for Z0.
    n0, z0 = (
        _parse_env(
            {"kind": "constant", "value": value} if init.get(key) is None else init[key],
            f"physical.initial.{key}",
            space_points,
            period,
            PROFILE_NAMES,
        )
        for key, value in (("N0", 1.0), ("Z0", 0.0))
    )
    n0_lo, n0_hi = n0.value_range(0.0)
    if problem := floor_problem(n0_lo):
        raise ConfigError(f"physical.initial.N0: {problem}")
    v0 = init.get("V0", "auto")
    if v0 == "auto":
        v0 = A
    else:
        v0 = _get_number(init, "V0", "physical.initial", positive=True)
    z_lo, z_hi = z0.value_range(0.0)

    # Trait truncation: cover the optimal-trait envelope and the initial means
    # with 8 standard deviations of headroom; Gaussian tails beyond that are
    # below 1e-14, so truncation error is dominated by scheme error.
    bounds = num.get("trait_bounds", "auto")
    if bounds == "auto":
        env_lo, env_hi = env.value_range(t_end)
        width = TRAIT_MARGIN_SIGMAS * math.sqrt(max(A, v0))
        bounds = (min(env_lo, z_lo) - width, max(env_hi, z_hi) + width)
    else:
        if not isinstance(bounds, list) or len(bounds) != 2:
            raise ConfigError("numerical.trait_bounds must be 'auto' or a [low, high] pair")
        bounds = tuple(_as_number(b, "numerical.trait_bounds") for b in bounds)
        if not bounds[0] < bounds[1]:
            raise ConfigError("numerical.trait_bounds must be increasing")

    try:
        trait = TraitGrid(bounds[0], bounds[1], trait_points)
    except ValueError as exc:  # "auto" bounds past the float range
        raise ConfigError(f"numerical.trait_bounds: {exc}") from None
    # "auto" bounds leave TRAIT_MARGIN_SIGMAS, unless rounding loses it (|Z0| past about 1e17).
    if problem := margin_problem(z_lo, z_hi, v0, trait):
        raise ConfigError(f"numerical.trait_bounds: {problem}")
    # A width beyond the float range makes the defect NaN, which fails too.
    with np.errstate(invalid="ignore"):
        problem = defect_problem(A, trait, segregation_kernel(A, trait)[1])
    if problem:
        raise ConfigError(f"{problem}; raise numerical.trait_points")
    if problem := resolution_problem(v0, trait):
        raise ConfigError(f"physical.initial.V0: {problem}")
    # check-operator needs the Gaussian of variance A at its fixed-point
    # centers to be a probability measure on the grid.
    centers = np.array(fixed_point_centers(trait))
    mass = gaussian_rows(centers, A, trait).sum(axis=1) * trait.spacing
    i = int(np.argmax(np.abs(mass - 1.0)))
    if not unit_mass(mass[i]):
        raise ConfigError(
            f"the Gaussian of variance A at {centers[i]:.4g}, a fixed-point center of the operator "
            f"suite, holds mass {mass[i]:.12f} on this trait grid: widen numerical.trait_bounds"
        )
    try:
        dt_cap = max_stable_dt(A, trait, env, n0_hi, t_end)
    except OverflowError:
        dt_cap = 0.0
    if not dt_cap > 0:
        raise ConfigError(
            "the reaction bound sup|r| overflows for this trait grid and environment: "
            "narrow numerical.trait_bounds or the optimal-trait range"
        )

    dt = num.get("dt", "auto")
    snapshot_dt = num.get("snapshot_dt", "auto")
    if dt == "auto":
        # Capped before the ceil and the divisor search, which a huge count overflows or stalls.
        n_steps = max(1, math.ceil(_capped_steps(t_end / (0.5 * dt_cap), 0.5 * dt_cap)))
        every, target = _auto_cadence(n_steps)
        if snapshot_dt != "auto":
            # Each of the whole number of cadence intervals in t_end takes the fewest steps of
            # at most half the bound; the ceil's ratio is at most the t_end one capped above.
            snapshot_dt = _get_number(num, "snapshot_dt", "numerical", positive=True)
            intervals, _ = _plan(t_end, snapshot_dt, snapshot_dt, "snapshot_dt must divide t_end")
            n_steps = intervals * math.ceil(snapshot_dt / (0.5 * dt_cap))
        elif every < target / 2:
            # E.g. a prime step count: round it up to a multiple of the "auto"
            # cadence.  The smaller dt stays under the stability bound.
            n_steps += -n_steps % target
        dt = t_end / n_steps
    else:
        dt = _get_number(num, "dt", "numerical", positive=True)
        if dt > dt_cap * (1 + 1e-12):
            raise ConfigError(
                f"numerical.dt = {dt:g} exceeds the stability bound {dt_cap:.6g} "
                "for this trait grid and environment"
            )
        # A cadence of t_end: the horizon is a whole number of steps, at least one.
        n_steps, _ = _plan(t_end, dt, t_end, "t_end must be an integer multiple of dt")

    h = period / space_points
    try:
        mu = dt / (2.0 * h**2)
    except (OverflowError, ZeroDivisionError):
        mu = 0.0
    if not 0.0 < mu < math.inf:
        raise ConfigError(
            "the diffusion ratio dt/(2 h^2) with h = period / space_points is zero or "
            "not finite: numerical.period is out of range"
        )

    _capped_steps(n_steps, dt)
    if snapshot_dt == "auto":
        every, target = _auto_cadence(n_steps)
        if every < target / 2:
            # A dt the document sets, e.g. with a prime step count: only every
            # step, or t_end itself, divides it.  An auto dt never gets here.
            raise ConfigError(
                f'numerical.snapshot_dt "auto": the {n_steps}-step horizon has no divisor near '
                f"t_end / (100 dt) = {target} (the largest up to it is {every}), so the run "
                f"takes {n_steps // every + 1} snapshots instead of about "
                f"{n_steps // target + 1}: change numerical.t_end or numerical.dt"
            )
        snapshot_dt = dt * every
    else:
        if num.get("dt", "auto") != "auto":
            snapshot_dt = _get_number(num, "snapshot_dt", "numerical", positive=True)
            _plan(snapshot_dt, dt, snapshot_dt, "snapshot_dt must be an integer multiple of dt")
        _, every = _plan(t_end, dt, snapshot_dt, "snapshot_dt must divide t_end")
    if n_steps // every + 1 > MAX_SNAPSHOTS:
        raise ConfigError(
            f"the run takes {n_steps // every + 1} snapshots, more than {MAX_SNAPSHOTS}: set "
            "numerical.snapshot_dt to a larger multiple of dt that divides t_end"
        )

    out = doc.get("output", {})
    if not isinstance(out, dict):
        raise ConfigError("'output' must be an object")
    _require_keys(out, {"directory", "text"}, "output")
    out_dir = out.get("directory", "out")
    if not isinstance(out_dir, str) or not out_dir:
        raise ConfigError("output.directory must be a non-empty string")
    if "\0" in out_dir:
        raise ConfigError("output.directory must not contain a NUL character")
    try:
        os.fsencode(out_dir)
    except UnicodeEncodeError as exc:  # e.g. a lone surrogate, which JSON admits
        raise ConfigError(f"output.directory cannot be a file name: {exc.reason}") from exc
    text = out.get("text", False)
    if not isinstance(text, bool):
        raise ConfigError("output.text must be a boolean")

    return RunConfig(
        A=A,
        gamma=gamma,
        gamma_list=gamma_list,
        env=env,
        n0=n0,
        z0=z0,
        v0=v0,
        space_points=space_points,
        period=period,
        trait_bounds=bounds,
        trait_points=trait_points,
        dt=dt,
        t_end=t_end,
        snapshot_dt=snapshot_dt,
        seed=seed,
        out_dir=out_dir,
        text=text,
    )
