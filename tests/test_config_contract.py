"""The config-to-run contract over small generated documents.

A document that parse_config rejects makes every command exit 1 with a
one-line message.  A document it accepts makes check-operator pass (exit 0)
and every other command finish with exit 0 or stop with exit 2 and a
one-line reason; a command exits 1 only when the document lacks what that
command needs (a single gamma, three or more gammas for a sweep, three or
more snapshots).  A command that exits 1 or 2 writes nothing.  No command
raises.  `contract_census.py` runs more of the
strategy's documents and prints the exit codes.

Hypothesis draws some values from the literal constants of the loaded
modules, so the 25 derandomized documents change with edits to the package
and the tests and with which test files are collected.  Documents that must
always run are pinned as examples.
"""

import contextlib
import io
import json
import os
import warnings

from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from simkbm.cli import main
from simkbm.config import ConfigError, parse_config
from simkbm.sim_solver import plan_steps

COMMANDS = ("simulate-sim", "simulate-kbm", "compare", "gamma-sweep", "check-operator")


def _num(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def _profile(value, amplitude):
    constant = st.builds(lambda v: {"kind": "constant", "value": v}, value)
    sinusoidal = st.builds(
        lambda o, a, k: {"kind": "sinusoidal", "offset": o, "amplitude": a, "wavenumber": k},
        value,
        amplitude,
        st.integers(1, 3),
    )
    return st.one_of(constant, sinusoidal)


_ENVIRONMENTS = st.one_of(
    st.builds(lambda v: {"kind": "constant", "value": v}, _num(-1, 1)),
    st.builds(lambda v, r: {"kind": "affine_in_t", "value": v, "rate": r}, _num(-1, 1), _num(-2, 2)),
    st.builds(
        lambda o, a, k: {"kind": "sinusoidal_in_x", "offset": o, "amplitude": a, "wavenumber": k},
        _num(-1, 1),
        _num(-1, 1),
        st.integers(1, 3),
    ),
    st.builds(
        lambda o, a, k, r: {
            "kind": "sinusoidal_plus_drift",
            "offset": o,
            "amplitude": a,
            "wavenumber": k,
            "rate": r,
        },
        _num(-1, 1),
        _num(-1, 1),
        st.integers(1, 3),
        _num(-2, 2),
    ),
)


@st.composite
def documents(draw):
    physical = {
        "A": draw(_num(0.1, 3.0)),
        "env": draw(_ENVIRONMENTS),
        "initial": {
            "N0": draw(_profile(_num(0.05, 2.0), _num(-0.5, 0.5))),
            "Z0": draw(_profile(_num(-1.0, 1.0), _num(-1.0, 1.0))),
            "V0": draw(st.one_of(st.just("auto"), _num(0.001, 3.0))),
        },
    }
    if draw(st.booleans()):
        physical["gamma"] = draw(_num(0.5, 500.0))
    else:
        gammas = draw(st.lists(_num(0.5, 500.0), min_size=2, max_size=3, unique=True))
        physical["gamma_list"] = sorted(gammas)
    t_end = draw(st.sampled_from([0.02, 0.05, 0.1, 0.2]))
    numerical = {
        "space_points": 16,
        "trait_points": 64,
        "t_end": t_end,
        "seed": draw(st.integers(0, 2**16)),
        "trait_bounds": draw(
            st.one_of(st.just("auto"), st.tuples(_num(-12, -1), _num(1, 12)).map(list))
        ),
    }
    if draw(st.booleans()):
        dt = draw(st.sampled_from([0.0005, 0.001, 0.002, 0.004]))
        numerical["dt"] = dt
        if draw(st.booleans()):
            numerical["snapshot_dt"] = dt * draw(st.integers(1, 60))
    elif draw(st.booleans()):
        # An auto dt under an explicit cadence.
        numerical["snapshot_dt"] = t_end / draw(st.integers(1, 20))
    return {"physical": physical, "numerical": numerical, "output": {"text": draw(st.booleans())}}


def _allowed_exits(config, command):
    n_steps, every = plan_steps(0.0, config.t_end, config.dt, config.snapshot_dt)
    too_few_snapshots = n_steps // every + 1 < 3
    if command == "check-operator":
        return {0}
    if command in ("simulate-sim", "compare") and config.gamma is None:
        return {1}
    if command == "gamma-sweep" and (config.gamma_list is None or len(config.gamma_list) < 3):
        return {1}
    if command in ("compare", "gamma-sweep") and too_few_snapshots:
        return {1}
    return {0, 2}


def _run(workdir, command, config_path):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with warnings.catch_warnings(record=True):
            rc = main([command, "--config", config_path, "--out", os.path.join(workdir, command)])
    return rc, err.getvalue()


# Bounds that clear Z0 by 4.5 sqrt(V0) hold the initial columns but not the
# reference Gaussian of variance A = 1 there: exit 2 wherever gauss_dev is computed.
_SHORT_BOUNDS = {"space_points": 16, "trait_points": 64, "t_end": 0.02, "trait_bounds": [-8.0, 8.0]}
_OFF_CENTER = {"initial": {"Z0": {"kind": "constant", "value": 3.5}}}
# A grid on which the Gaussian of variance A at the operator suite's
# fixed-point centers is short of mass (check-operator exited 3 there), and
# a V0 small enough for the initial columns to fit it.
_NARROW_BOUNDS = {**_SHORT_BOUNDS, "t_end": 0.2, "trait_bounds": [-6.63, 4.27]}
_SMALL_V0 = {"initial": {"V0": 0.5}}
_GAMMA_8 = {"A": 1, "gamma": 8}


@settings(max_examples=25, derandomize=True, deadline=None, database=None)
@given(documents())
@example(doc={"physical": {"A": 1.0, "gamma": 1.0, **_OFF_CENTER}, "numerical": _SHORT_BOUNDS})
@example(
    doc={
        "physical": {"A": 1.0, "gamma_list": [1.0, 2.0, 4.0], **_OFF_CENTER},
        "numerical": _SHORT_BOUNDS,
    }
)
@example(doc={"physical": {"A": 2.24, "gamma": 8.0, **_SMALL_V0}, "numerical": _NARROW_BOUNDS})
@example(doc={"physical": {"A": 0.855, "gamma": 8.0, **_SMALL_V0}, "numerical": _NARROW_BOUNDS})
# A far optimal trait (80 million steps) and a tiny dt (a billion steps): exit 1.
@example(
    doc={
        "physical": {"A": 1.0, "gamma": 8.0, "env": {"kind": "sinusoidal_in_x", "amplitude": 1e4}},
        "numerical": {"t_end": 0.2, "trait_bounds": [-8.0, 8.0], "trait_points": 256},
    }
)
@example(doc={"physical": {"A": 1.0, "gamma": 8.0}, "numerical": {"dt": 1e-6, "t_end": 1000.0}})
# Step ratios that overflow a float: not a whole number of steps, exit 1.
@example(doc={"physical": _GAMMA_8, "numerical": {"t_end": 1e308, "dt": 0.001}})
@example(doc={"physical": _GAMMA_8, "numerical": {"t_end": 1e300, "dt": 1e-300}})
@example(doc={"physical": _GAMMA_8, "numerical": {"t_end": 1.0, "dt": 1e-320}})
@example(
    doc={"physical": _GAMMA_8, "numerical": {"t_end": 1.0, "dt": 0.001, "snapshot_dt": 1e308}}
)
@example(doc={"physical": _GAMMA_8, "numerical": {"t_end": 1.0, "snapshot_dt": 1e308}})
def test_every_command_honours_the_exit_contract(tmp_path_factory, doc):
    try:
        config = parse_config(doc)
    except ConfigError:
        config = None
    workdir = str(tmp_path_factory.mktemp("contract"))
    path = os.path.join(workdir, "config.json")
    with open(path, "w") as fh:
        json.dump(doc, fh)
    for command in COMMANDS:
        rc, err = _run(workdir, command, path)
        event(f"{command} exit {rc}")
        allowed = {1} if config is None else _allowed_exits(config, command)
        assert rc in allowed, (command, rc, err)
        if rc in (1, 2):
            assert err.count("\n") == 1, (command, err)
            assert not os.path.exists(os.path.join(workdir, command)), (command, rc)
