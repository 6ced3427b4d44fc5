import json
import os
import pathlib
import re
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

from simkbm import experiments, infinitesimal, sim_solver
from simkbm.cli import main
from simkbm.config import parse_config
from simkbm.environment import Environment
from simkbm.experiments import CompareResult
from simkbm.infinitesimal import segregation_kernel
from simkbm.sim_solver import SimulationError


def read_csv(path):
    """The header and the columns, by name, of a CSV series that output.write_csv wrote."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        data = [[float(v) for v in line.strip().split(",")] for line in fh if line.strip()]
    cols = np.asarray(data).T if data else np.empty((len(header), 0))
    return header, {name: cols[i] for i, name in enumerate(header)}


def read_snapshot(path):
    """The header and the matrix of a snapshot that output.write_snapshot wrote."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode("utf-8"))
        payload = fh.read()
    rows, cols = header["rows"], header["cols"]
    if header["encoding"] == "binary":
        matrix = np.frombuffer(payload, dtype="<f8").reshape(rows, cols).astype(float)
    else:
        lines = payload.decode("utf-8").strip().splitlines()
        matrix = np.array([[float(v) for v in line.split(",")] for line in lines])
        if matrix.shape != (rows, cols):
            raise ValueError(f"snapshot payload shape {matrix.shape} != header {(rows, cols)}")
    return header, matrix


SMALL_COMPARE = {
    "physical": {
        "A": 1.0,
        "gamma": 8.0,
        "env": {"kind": "sinusoidal_in_x", "offset": 0.0, "amplitude": 0.5, "wavenumber": 1},
        "initial": {
            "N0": {"kind": "constant", "value": 1.0},
            "Z0": {"kind": "constant", "value": 0.0},
            "V0": "auto",
        },
    },
    "numerical": {
        "space_points": 32,
        "trait_points": 128,
        "dt": 0.004,
        "t_end": 0.4,
        "snapshot_dt": 0.1,
        "seed": 7,
    },
    "output": {"directory": "out"},
}


# The bounds clear Z0 by 4.5 sqrt(V0), enough for the initial columns, and the
# operator suite's fixed-point centers by 7 sqrt(A), but the reference Gaussian
# of variance A at Z0 holds only 0.999997 on the grid: every command that
# computes gauss_dev exits 2 at t = 0, after one RuntimeWarning, before its
# first step.
SHORT_REFERENCE = {
    "physical": {
        "A": 1.0,
        "gamma": 1.0,
        "env": {"kind": "constant", "value": 0.0},
        "initial": {
            "N0": {"kind": "constant", "value": 1.0},
            "Z0": {"kind": "constant", "value": 3.5},
            "V0": "auto",
        },
    },
    "numerical": {
        "space_points": 16,
        "trait_points": 64,
        "t_end": 0.02,
        "seed": 0,
        "trait_bounds": [-8.0, 8.0],
    },
}
SHORT_REFERENCE_SWEEP = json.loads(json.dumps(SHORT_REFERENCE))
del SHORT_REFERENCE_SWEEP["physical"]["gamma"]
SHORT_REFERENCE_SWEEP["physical"]["gamma_list"] = [1.0, 2.0, 4.0]
SHORT_REFERENCE_RUNS = (
    ("simulate-sim", SHORT_REFERENCE),
    ("compare", SHORT_REFERENCE),
    ("gamma-sweep", SHORT_REFERENCE_SWEEP),
)

# The upper bound lies 5.9 sqrt(A) above Z0 = 0: the initial columns and every
# reference Gaussian of gauss_dev come within six standard deviations of it,
# yet hold mass 1 within PROBABILITY_TOL, so both runs complete.
EDGE_COMPARE = json.loads(json.dumps(SMALL_COMPARE))
EDGE_COMPARE["numerical"] = {
    "space_points": 16,
    "trait_points": 128,
    "trait_bounds": [-8.5, 5.9],
    "dt": 0.002,
    "t_end": 0.1,
    "snapshot_dt": 0.02,
}
EDGE_SWEEP = json.loads(json.dumps(EDGE_COMPARE))
del EDGE_SWEEP["physical"]["gamma"]
EDGE_SWEEP["physical"]["gamma_list"] = [2.0, 4.0, 8.0]


def six_sigma_warning(variance, bounds):
    """The stderr line of measures.warn_near_ends for a variance and the printed trait bounds."""
    return (
        f"warning: a Gaussian of variance {variance} has its mean within 6 standard deviations "
        f"of the trait bounds {bounds}; its sampled mass may be visibly short of 1"
    )


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc, indent=2))
    return str(path)


def run_cli(*argv):
    return main(list(argv))


def run_cli_fresh(*argv, cwd=None, env=(), timeout=120):
    """The CLI in a fresh interpreter, with this checkout's sources first on the path."""
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    entry = "import sys; from simkbm.cli import main; sys.exit(main())"
    return subprocess.run(
        [sys.executable, "-c", entry, *argv],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": path, **dict(env)},
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def planted_compare(config, gamma):
    """Stand-in for experiments.run_compare: every supremum is 3 * gamma^-1/2."""
    err = 3.0 * gamma**-0.5
    t = np.array([0.0, config.t_end])
    sups = {k: err for k in ("gauss_dev", "err_N", "err_Z", "resid_N", "resid_Z")}
    return CompareResult(gamma, t, t, t, t, t, t, 0.0, sups, {})


def assert_one_line_rejection(tmp_path, capsys, doc, *flags, commands=("compare",)):
    """Every command exits 1 with one stderr line and writes nothing; a warning is an error."""
    cfg = write_config(tmp_path, doc)
    for command in commands:
        out = tmp_path / f"out-{command}"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = run_cli(command, "--config", cfg, "--out", str(out), *flags)
        err = capsys.readouterr().err
        assert rc == 1 and err.count("\n") == 1 and err.startswith("config error:"), (command, err)
        assert not out.exists()
    return err


class TestCompareCommand:
    def test_writes_schema_valid_outputs(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, SMALL_COMPARE)
        assert run_cli("compare", "--config", cfg, "--out", "out") == 0
        header, cols = read_csv("out/compare_series.csv")
        assert header == ["t", "err_N", "err_Z", "gauss_dev", "v_max", "mass_leak"]
        assert len(cols["t"]) == 5  # t = 0, 0.1, ..., 0.4
        summary = json.loads(pathlib.Path("out/compare_summary.json").read_text())
        assert summary["command"] == "compare"
        assert summary["gamma"] == 8.0
        assert set(summary["sups"]) >= {"err_N", "err_Z", "gauss_dev", "resid_N", "resid_Z"}
        assert "N_theta_0.5" in summary["holder"]
        # the fully resolved config is echoed, defaults included
        assert summary["config"]["numerical"]["space_points"] == 32
        assert summary["config"]["physical"]["initial"]["V0"] == 1.0

    def test_homogeneous_fixed_point_config_stays_quiet(self, tmp_path, monkeypatch):
        # Matched constant data near the carrying capacity: both models barely
        # move, so every error series stays at the 1e-3 level.
        monkeypatch.chdir(tmp_path)
        cfg_doc = {
            "physical": {
                "A": 1.0,
                "gamma": 2048.0,
                "env": {"kind": "constant", "value": 0.0},
                "initial": {
                    "N0": {"kind": "constant", "value": 1.0},
                    "Z0": {"kind": "constant", "value": 0.0},
                    "V0": "auto",
                },
            },
            "numerical": {
                "space_points": 32,
                "trait_points": 256,
                "dt": 0.001,
                "t_end": 1.0,
                "snapshot_dt": 0.1,
                "seed": 1,
            },
            "output": {"directory": "out"},
        }
        cfg = write_config(tmp_path, cfg_doc)
        assert run_cli("compare", "--config", cfg, "--out", "out") == 0
        _, cols = read_csv("out/compare_series.csv")
        assert cols["err_N"].max() <= 1e-3
        assert cols["err_Z"].max() <= 1e-3
        assert cols["gauss_dev"].max() <= 1e-3

    def test_reruns_are_byte_identical(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, SMALL_COMPARE)
        assert run_cli("compare", "--config", cfg, "--out", "outA") == 0
        assert run_cli("compare", "--config", cfg, "--out", "outB") == 0
        a = pathlib.Path("outA/compare_series.csv").read_bytes()
        b = pathlib.Path("outB/compare_series.csv").read_bytes()
        assert a == b
        sa = pathlib.Path("outA/compare_summary.json").read_text()
        sb = pathlib.Path("outB/compare_summary.json").read_text()
        assert sa.replace('"outA"', '"X"') == sb.replace('"outB"', '"X"')

    def test_byte_identical_across_blas_thread_counts(self, tmp_path):
        # 64 x 64 x 128 multiply-adds per diffusion step: above the size at
        # which OpenBLAS splits a product across threads.
        doc = json.loads(json.dumps(SMALL_COMPARE))
        doc["numerical"].update(space_points=64, t_end=0.1, snapshot_dt=0.02)
        cfg = write_config(tmp_path, doc)
        trees = []
        for threads in ("1", "2"):
            cwd = tmp_path / f"blas{threads}"
            cwd.mkdir()
            env = {"OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
            proc = run_cli_fresh("compare", "--config", cfg, "--out", "out", cwd=cwd, env=env)
            assert proc.returncode == 0, proc.stderr
            out = cwd / "out"
            trees.append({str(f.relative_to(out)): f.read_bytes() for f in out.rglob("*") if f.is_file()})
        assert trees[0] and trees[0] == trees[1]


class TestExitCodes:
    def test_config_error_is_exit_one(self, tmp_path, capsys):
        bad = dict(SMALL_COMPARE)
        bad = json.loads(json.dumps(bad))
        bad["physical"]["A"] = -1.0
        cfg = write_config(tmp_path, bad)
        assert run_cli("compare", "--config", cfg, "--out", str(tmp_path / "o")) == 1
        assert "physical.A" in capsys.readouterr().err

    def test_unknown_key_is_exit_one(self, tmp_path, capsys):
        bad = json.loads(json.dumps(SMALL_COMPARE))
        bad["numerical"]["dx"] = 0.1
        cfg = write_config(tmp_path, bad)
        assert run_cli("compare", "--config", cfg, "--out", str(tmp_path / "o")) == 1
        assert "unknown key" in capsys.readouterr().err

    def test_missing_config_file_is_exit_one(self, tmp_path):
        assert run_cli("compare", "--config", str(tmp_path / "nope.json")) == 1

    @pytest.mark.parametrize(
        "command", ["simulate-sim", "simulate-kbm", "compare", "gamma-sweep", "check-operator"]
    )
    def test_output_path_at_or_under_a_file_is_exit_one(self, tmp_path, capsys, command):
        doc = json.loads(json.dumps(SMALL_COMPARE))
        if command == "gamma-sweep":
            del doc["physical"]["gamma"]
            doc["physical"]["gamma_list"] = [4.0, 8.0, 16.0]
        blocker = tmp_path / "blocker"
        blocker.write_text("a file\n")
        for out in (str(blocker), str(blocker / "run")):
            # Named by output.directory, then by --out over a usable directory.
            for directory, flags in ((out, ()), (str(tmp_path / "unused"), ("--out", out))):
                doc["output"]["directory"] = directory
                cfg = write_config(tmp_path, doc)
                rc = run_cli(command, "--config", cfg, *flags)
                err = capsys.readouterr().err
                assert rc == 1 and err.count("\n") == 1, (command, err)
                assert f"{out}: Not a directory" in err, (command, err)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["blocker", "config.json"]
        assert blocker.read_text() == "a file\n"

    # A file where a command writes a directory, or a directory where it
    # writes a fixed-name file, inside a usable output directory.
    @pytest.mark.parametrize(
        "command,blocker,kind",
        [
            ("simulate-sim", "snapshots", "file"),
            ("simulate-sim", "sim_series.csv", "dir"),
            ("simulate-sim", "snapshots/sim_000000.snap", "dir"),
            ("simulate-kbm", "snapshots", "file"),
            ("simulate-kbm", "kbm_summary.json", "dir"),
            ("simulate-kbm", "snapshots/kbm_000004.snap", "dir"),
            ("compare", "compare_series.csv", "dir"),
            ("gamma-sweep", "gamma_8", "file"),
            ("gamma-sweep", "gamma_16/compare_summary.json", "dir"),
            ("gamma-sweep", "sweep_summary.json", "dir"),
            ("check-operator", "operator_report.json", "dir"),
        ],
    )
    def test_output_layout_checked_before_any_work(self, tmp_path, capsys, command, blocker, kind):
        doc = json.loads(json.dumps(SMALL_COMPARE))
        if command == "gamma-sweep":
            del doc["physical"]["gamma"]
            doc["physical"]["gamma_list"] = [4.0, 8.0, 16.0]
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        path = out / blocker
        if kind == "file":
            path.parent.mkdir(parents=True)
            path.write_text("a file\n")
        else:
            path.mkdir(parents=True)
        before = sorted(out.rglob("*"))
        rc = run_cli(command, "--config", cfg, "--out", str(out))
        err = capsys.readouterr().err
        assert rc == 1 and err.count("\n") == 1, (command, err)
        reason = "Not a directory" if kind == "file" else "it is a directory"
        assert f"{path}: {reason}" in err, (command, err)
        assert sorted(out.rglob("*")) == before

    @pytest.mark.parametrize("command", ["simulate-sim", "simulate-kbm"])
    def test_directories_named_after_other_snapshots_are_left_alone(self, tmp_path, command):
        # The run writes snapshots 0-4 of its own kind only.
        kind = command.split("-")[1]
        other = "kbm" if kind == "sim" else "sim"
        cfg = write_config(tmp_path, SMALL_COMPARE)
        out = tmp_path / "out"
        for name in (f"{kind}_000005.snap", f"{other}_000000.snap", f"{kind}_0.snap"):
            (out / "snapshots" / name).mkdir(parents=True)
        assert run_cli(command, "--config", cfg, "--out", str(out)) == 0
        assert (out / "snapshots" / f"{kind}_000004.snap").is_file()

    def test_sweep_members_sharing_a_directory_exit_one(self, tmp_path, capsys):
        # gamma_{g:g} names both 1.0000001 and 1.0000002 gamma_1.
        doc = json.loads(json.dumps(SMALL_COMPARE))
        del doc["physical"]["gamma"]
        doc["physical"]["gamma_list"] = [1.0000001, 1.0000002, 2.0]
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        rc = run_cli("gamma-sweep", "--config", cfg, "--out", str(out))
        err = capsys.readouterr().err
        assert rc == 1 and err.count("\n") == 1, err
        assert "1.0000001 and 1.0000002" in err and str(out / "gamma_1") in err, err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command", ["simulate-sim", "simulate-kbm", "compare", "gamma-sweep", "check-operator"]
    )
    def test_undecodable_config_file_is_exit_one(self, tmp_path, capsys, command):
        # A UTF-16 document with its byte-order mark, and arrays nested past
        # the interpreter's recursion limit.
        files = {
            b"\xff\xfe" + json.dumps(SMALL_COMPARE).encode("utf-16-le"): "not UTF-8 text",
            b"[" * 100000: "nests arrays or objects too deeply",
        }
        out = tmp_path / "out"
        for data, reason in files.items():
            cfg = tmp_path / "config.json"
            cfg.write_bytes(data)
            rc = run_cli(command, "--config", str(cfg), "--out", str(out))
            err = capsys.readouterr().err
            assert rc == 1 and err.count("\n") == 1 and reason in err, (command, err)
            assert not out.exists()

    def test_invariant_violation_is_exit_two(self, tmp_path, capsys):
        # Strong maladaptation with weak selection relief: the population
        # crosses the 1e-12 floor within the horizon.
        doc = {
            "physical": {
                "A": 0.01,
                "gamma": 4.0,
                "env": {"kind": "constant", "value": 0.0},
                "initial": {
                    "N0": {"kind": "constant", "value": 1.0},
                    "Z0": {"kind": "constant", "value": 5.0},
                    "V0": 0.01,
                },
            },
            "numerical": {
                "space_points": 32,
                "trait_points": 128,
                "dt": 0.001,
                "t_end": 5.0,
                "snapshot_dt": 0.5,
                "seed": 0,
            },
            "output": {"directory": "out"},
        }
        cfg = write_config(tmp_path, doc)
        assert run_cli("simulate-kbm", "--config", cfg, "--out", str(tmp_path / "o")) == 2
        assert "floor" in capsys.readouterr().err
        # Snapshots are written after the run, so an aborted run leaves no directory.
        assert not (tmp_path / "o").exists()

    def test_reference_gaussian_short_of_mass_is_exit_two(self, tmp_path, capsys, monkeypatch):
        steps, original = [], sim_solver.sim_step

        def counting_step(n, ops, t, diag):
            steps.append(t)
            return original(n, ops, t, diag)

        monkeypatch.setattr(sim_solver, "sim_step", counting_step)
        for command, cfg_doc in SHORT_REFERENCE_RUNS:
            cfg = write_config(tmp_path, cfg_doc, f"{command}.json")
            with warnings.catch_warnings(record=True):
                rc = run_cli(command, "--config", cfg, "--out", str(tmp_path / command))
            err = capsys.readouterr().err
            assert rc == 2 and err.count("\n") == 1, (command, err)
            assert "reference Gaussian" in err and "'t': 0.0" in err, (command, err)
            # The first gauss_dev, at t = 0, raises before the first step, and
            # nothing is written.
            assert steps == [], command
            assert not (tmp_path / command).exists(), command

    # Item 1 of ROADMAP.md: the Crank-Nicolson symbol is -0.885 at the Nyquist
    # mode (mu = 2.56 here), so the first D substep turns the rough initial
    # columns negative (min -1.05e-3 against a max of 1.62).
    @pytest.mark.xfail(reason="negative density after the first diffusion substep", strict=True)
    def test_accepted_rough_document_runs(self, tmp_path, capsys):
        def sinusoidal(offset, k):
            return {"kind": "sinusoidal", "offset": offset, "amplitude": -0.113, "wavenumber": k}

        doc = {
            "physical": {
                "A": 0.1,
                "gamma": 8.0,
                "initial": {"N0": sinusoidal(0.888, 2), "Z0": sinusoidal(0.05, 3), "V0": 0.05},
            },
            "numerical": {"space_points": 16, "trait_points": 64, "t_end": 0.2},
        }
        cfg = write_config(tmp_path, doc)
        rc = run_cli("simulate-sim", "--config", cfg, "--out", str(tmp_path / "o"))
        assert rc == 0, capsys.readouterr().err

    @pytest.mark.parametrize(
        "command,flags", [("simulate-sim", ()), ("gamma-sweep", ("--jobs", "2"))]
    )
    def test_warnings_are_one_line_each_on_real_stderr(self, tmp_path, command, flags):
        # The in-process tests record warnings; only a fresh interpreter shows
        # what the default warning display prints.
        cfg = write_config(tmp_path, dict(SHORT_REFERENCE_RUNS)[command])
        proc = run_cli_fresh(command, "--config", cfg, "--out", str(tmp_path / "o"), *flags)
        lines = proc.stderr.splitlines()
        assert proc.returncode == 2 and len(lines) > 1, proc.stderr
        assert lines[-1].startswith("runtime invariant violation"), proc.stderr
        assert all(line.startswith("warning: ") for line in lines[:-1]), proc.stderr

    def test_each_near_reference_warns_before_the_short_one(self, tmp_path, near_end_doc):
        # The first gauss_dev checks the initial references: the references
        # near the trait end share one warning, shown once, and the first
        # column short of mass raises at t = 0.
        proc = run_cli_fresh(
            "compare", "--config", write_config(tmp_path, near_end_doc), "--out", str(tmp_path / "o")
        )
        shown, last = proc.stderr.splitlines()
        assert proc.returncode == 2 and last.startswith("runtime invariant violation"), proc.stderr
        assert shown == six_sigma_warning(1, "[-5.75, 8]") and "'t': 0.0" in last
        config = parse_config(near_end_doc)
        space, trait = config.space_grid(), config.trait_grid()
        n0, z0 = (field.evaluate(0.0, space.centers) for field in (config.n0, config.z0))
        state = sim_solver.gaussian_initial_state(space, trait, n0, z0, config.v0)
        means = [f"{z:g}" for z in sim_solver.kinetic_moments(state).Z]
        failing = means.index(re.search(r"at Z = (\S+) holds", last).group(1))
        assert failing == 10 and not (tmp_path / "o").exists()

    def test_sweep_stderr_does_not_depend_on_jobs(self, tmp_path):
        # Each pool worker has a warning registry of its own.  On EDGE_SWEEP,
        # every member warns and the sweep shows the warning once.
        for name, doc in (("short", SHORT_REFERENCE_SWEEP), ("edge", EDGE_SWEEP)):
            cfg = write_config(tmp_path, doc, f"{name}.json")
            args = ("gamma-sweep", "--config", cfg, "--out", str(tmp_path / name), "--jobs")
            stderr = {run_cli_fresh(*args, jobs).stderr for jobs in ("1", "2")}
            assert len(stderr) == 1, stderr
        assert stderr == {six_sigma_warning(1, "[-8.5, 5.9]") + "\n"}

    def test_six_sigma_warning_is_shown_once_per_run(self, tmp_path):
        # Every snapshot's references and the initial columns come within six
        # standard deviations of the upper end, all with variance 1.
        cfg = write_config(tmp_path, EDGE_COMPARE)
        proc = run_cli_fresh("compare", "--config", cfg, "--out", str(tmp_path / "o"))
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == six_sigma_warning(1, "[-8.5, 5.9]") + "\n"


class TestRejectedAtParse:
    COMMANDS = ("simulate-sim", "simulate-kbm", "compare", "gamma-sweep", "check-operator")
    BASE = {"physical": {"A": 1.0, "gamma": 8.0}, "numerical": {"t_end": 0.2}}

    def doc(self, **numerical):
        doc = json.loads(json.dumps(self.BASE))
        doc["numerical"].update(numerical)
        return doc

    def test_test_hooks_section_on_every_command(self, tmp_path, capsys):
        doc = self.doc()
        doc["test_hooks"] = {"planted_theta": 0.5}
        err = assert_one_line_rejection(tmp_path, capsys, doc, commands=self.COMMANDS)
        assert "test_hooks" in err

    @pytest.mark.parametrize("value", [None, [1], "x", 5], ids=["null", "list", "string", "number"])
    @pytest.mark.parametrize("section", ["output", "numerical"])
    @pytest.mark.parametrize("flag", [("--seed", "1"), ("--text",), ()], ids=["seed", "text", "out"])
    def test_overrides_leave_a_non_object_section_to_the_parser(
        self, tmp_path, capsys, flag, section, value
    ):
        doc = self.doc()
        doc[section] = value
        err = assert_one_line_rejection(tmp_path, capsys, doc, *flag)
        assert f"'{section}' must be an object" in err

    def test_trait_width_beyond_the_float_range(self, tmp_path, capsys):
        # The width overflows to inf and the kernel mass defect is NaN.
        doc = self.doc(space_points=16, trait_points=64, trait_bounds=[-1e308, 1e308])
        assert "segregation kernel" in assert_one_line_rejection(tmp_path, capsys, doc, "--seed", "1")

    @pytest.mark.parametrize(
        "env",
        [
            {"kind": "sinusoidal_in_x", "amplitude": 1e200},
            {"kind": "affine_in_t", "rate": 1e300},
        ],
        ids=["amplitude", "rate"],
    )
    def test_reaction_bound_overflow(self, tmp_path, capsys, env):
        doc = self.doc(trait_bounds=[-8.0, 8.0], trait_points=256)
        doc["physical"]["env"] = env
        assert "reaction bound" in assert_one_line_rejection(tmp_path, capsys, doc)

    @pytest.mark.parametrize(
        "env, numerical",
        [
            (
                {"kind": "sinusoidal_in_x", "amplitude": 1e4},
                {"trait_bounds": [-8.0, 8.0], "trait_points": 256},
            ),
            ({"kind": "constant"}, {"dt": 1e-6, "t_end": 1000.0}),
        ],
        ids=["far-optimal-trait", "explicit-dt"],
    )
    def test_step_count_cap(self, tmp_path, capsys, env, numerical):
        # 80 million and a billion steps.
        doc = self.doc(**numerical)
        doc["physical"]["env"] = env
        err = assert_one_line_rejection(tmp_path, capsys, doc, commands=self.COMMANDS)
        assert "time steps" in err

    @pytest.mark.parametrize("t_end", [1e7 + 0.3, 3e8 + 0.7, 1e200, 1e308])
    def test_long_auto_dt_horizon_is_rejected_at_once(self, tmp_path, capsys, t_end):
        # The auto step count is checked before the ceil, which overflowed at
        # 1e308, and before the divisor search, which took 1.4 s at 1e7 + 0.3
        # and had not ended after 20 s at the others.  A fresh interpreter
        # runs first, so a parse that hangs fails the test.
        doc = self.doc(t_end=t_end)
        cfg = write_config(tmp_path, doc, "fresh.json")
        proc = run_cli_fresh("compare", "--config", cfg, "--out", str(tmp_path / "o"), timeout=20)
        assert proc.returncode == 1 and proc.stderr.count("\n") == 1, proc.stderr
        start = time.perf_counter()
        err = assert_one_line_rejection(tmp_path, capsys, doc, commands=self.COMMANDS)
        assert time.perf_counter() - start < 1.0
        assert "time steps" in err and "more than 1000000" in err

    @pytest.mark.parametrize("wavenumber", [5, 10**20])
    @pytest.mark.parametrize("key", ["env", "initial.N0", "initial.Z0"])
    def test_wavenumber_above_half_the_space_points(self, tmp_path, capsys, key, wavenumber):
        # On 8 points wavenumber 5 samples exactly as wavenumber 3 does, and
        # 10**20 was accepted and echoed as given.
        x = parse_config(self.doc(space_points=8)).space_grid().centers
        k5, k3 = (Environment("sinusoidal_in_x", amplitude=1.0, wavenumber=k) for k in (5, 3))
        assert np.abs(k5.evaluate(0.0, x) - k3.evaluate(0.0, x)).max() <= 1e-12

        def document(k):
            doc = self.doc(space_points=8, trait_points=64)
            field = {"kind": "sinusoidal", "offset": 1.0, "amplitude": 0.1, "wavenumber": k}
            if key == "env":
                doc["physical"]["env"] = {**field, "kind": "sinusoidal_in_x"}
            else:
                doc["physical"]["initial"] = {key.split(".")[1]: field}
            return doc

        err = assert_one_line_rejection(
            tmp_path, capsys, document(wavenumber), commands=self.COMMANDS
        )
        assert f"physical.{key}.wavenumber" in err and "numerical.space_points = 8" in err
        assert parse_config(document(4)).space_points == 8

    @pytest.mark.parametrize("A", [2.24, 0.855])
    def test_fixed_point_gaussian_short_of_mass(self, tmp_path, capsys, A):
        # The operator suite's fixed-point centers on [-6.63, 4.27] are -1.91,
        # -1.18 and -0.45.  At -1.91 the Gaussian of variance A holds 1 - 8.1e-4
        # (A = 2.24) and 1 - 1.6e-7 (A = 0.855) of its mass: check-operator
        # exited 3, and simulate-sim and compare 2 from gauss_dev.
        doc = self.doc(space_points=16, trait_points=64, trait_bounds=[-6.63, 4.27])
        doc["physical"].update({"A": A, "initial": {"V0": 0.5}})
        err = assert_one_line_rejection(tmp_path, capsys, doc, commands=self.COMMANDS)
        assert "at -1.907, a fixed-point center" in err and "widen numerical.trait_bounds" in err

    def test_space_points_cap(self, tmp_path, capsys):
        err = assert_one_line_rejection(
            tmp_path, capsys, self.doc(space_points=513), commands=self.COMMANDS
        )
        assert "numerical.space_points must be <= 512, got 513" in err
        assert parse_config(self.doc(space_points=512)).space_points == 512

    def test_trait_points_cap(self, tmp_path, capsys):
        # Uncapped, 2**62 points end in a traceback from the kernel table.
        err = assert_one_line_rejection(
            tmp_path, capsys, self.doc(trait_points=2**62), commands=self.COMMANDS
        )
        assert f"numerical.trait_points must be <= 4096, got {2**62}" in err
        assert parse_config(self.doc(trait_points=4096)).trait_points == 4096

    def test_snapshot_count_cap(self, tmp_path, capsys):
        # 10001 steps with a snapshot after each; a 4 x 64 grid keeps the run
        # small where the count is not capped.
        small = {"space_points": 4, "trait_points": 64, "dt": 0.001, "snapshot_dt": 0.001}
        doc = self.doc(t_end=10.001, **small)
        err = assert_one_line_rejection(tmp_path, capsys, doc, commands=self.COMMANDS)
        assert "the run takes 10002 snapshots, more than 10000" in err
        assert parse_config(self.doc(t_end=9.999, **small)).snapshot_dt == 0.001

    def test_auto_cadence_of_a_prime_step_count(self, tmp_path, capsys):
        # 10007 steps is prime: no cadence near 100 steps divides it.
        doc = self.doc(space_points=4, trait_points=64, dt=0.001, t_end=10.007)
        err = assert_one_line_rejection(tmp_path, capsys, doc, commands=self.COMMANDS)
        assert 'snapshot_dt "auto": the 10007-step horizon has no divisor near' in err
        assert "t_end / (100 dt) = 100 (the largest up to it is 1)" in err
        assert "10008 snapshots" in err and "change numerical.t_end or numerical.dt" in err
        assert "larger multiple" not in err

    @pytest.mark.parametrize(
        "t_end, steps, every", [(1.009, 1009, 1), (1.006, 1006, 2)], ids=["prime", "twice-a-prime"]
    )
    def test_auto_cadence_far_below_its_target(self, tmp_path, capsys, t_end, steps, every):
        # t_end / (100 dt) = 10, and no divisor of the step count lies in
        # [5, 10]: the run would take a snapshot every step or every other.
        doc = self.doc(space_points=4, trait_points=64, dt=0.001, t_end=t_end)
        err = assert_one_line_rejection(tmp_path, capsys, doc, commands=self.COMMANDS)
        assert f'snapshot_dt "auto": the {steps}-step horizon has no divisor near' in err
        assert f"t_end / (100 dt) = 10 (the largest up to it is {every})" in err
        assert f"{steps // every + 1} snapshots" in err
        # 1008 steps: 9 divides them.
        assert parse_config(self.doc(dt=0.001, t_end=1.008)).snapshot_dt == pytest.approx(0.009)

    @pytest.mark.parametrize("period", [1e-300, 1e300])
    def test_diffusion_ratio_out_of_range(self, tmp_path, capsys, period):
        doc = self.doc(period=period)
        assert "dt/(2 h^2)" in assert_one_line_rejection(tmp_path, capsys, doc)

    FINITE = "must be finite"

    @pytest.mark.parametrize(
        "path, value, reason",
        [
            ("numerical.t_end", float("inf"), FINITE),
            ("physical.A", float("nan"), FINITE),
            ("physical.env", {"kind": "sinusoidal_in_x", "amplitude": float("nan")}, FINITE),
            ("physical.initial", {"N0": {"kind": "constant", "value": float("inf")}}, FINITE),
            ("physical.gamma", 10**400, FINITE),
            ("numerical.trait_bounds", [-8.0, float("inf")], FINITE),
            # Below the population floor 1e-12: each run exited 2 at t = 0, check-operator 0.
            ("physical.initial", {"N0": {"kind": "constant", "value": 1e-13}}, "initial.N0: "),
            # sqrt(V0) = 0.01 on the spacing 1/32: each run held N(0) = 0.7356, and exited 0.
            ("physical.initial", {"V0": 1e-4}, "physical.initial.V0: the trait spacing 0.03125"),
        ],
        ids=[
            "t_end-inf", "A-nan", "env-nan", "N0-inf", "gamma-1e400", "trait_bounds-inf",
            "N0-1e-13", "V0-1e-4",
        ],
    )
    def test_numbers_out_of_range(self, tmp_path, capsys, path, value, reason):
        doc = self.doc()
        section, key = path.split(".")
        doc[section][key] = value
        err = assert_one_line_rejection(tmp_path, capsys, doc, commands=self.COMMANDS)
        assert reason in err

    @pytest.mark.parametrize("directory", ["out\u0000x", "out\ud800x"], ids=["nul", "surrogate"])
    def test_output_directory_the_os_cannot_take(self, tmp_path, capsys, monkeypatch, directory):
        # The directory comes from the document (--out cannot carry either):
        # os.stat raised "embedded null byte" or UnicodeEncodeError from the
        # layout check.
        monkeypatch.chdir(tmp_path)
        doc = self.doc()
        doc["output"] = {"directory": directory}
        cfg = write_config(tmp_path, doc)
        for command in self.COMMANDS:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                rc = run_cli(command, "--config", cfg)
            err = capsys.readouterr().err
            assert rc == 1 and err.count("\n") == 1, (command, err)
            assert err.startswith("config error: output.directory"), (command, err)
            assert os.listdir(tmp_path) == ["config.json"]


class TestConfigToRunContract:
    def test_auto_cadence_on_a_ragged_horizon(self, tmp_path, monkeypatch):
        # 350 steps: the target (350 + 50) // 100 = 4 does not divide them; 2 does.
        monkeypatch.chdir(tmp_path)
        doc = json.loads(json.dumps(SMALL_COMPARE))
        doc["numerical"].update({"dt": 0.002, "t_end": 0.7})
        del doc["numerical"]["snapshot_dt"]
        cfg = write_config(tmp_path, doc)
        assert run_cli("compare", "--config", cfg, "--out", "out") == 0
        _, cols = read_csv("out/compare_series.csv")
        assert len(cols["t"]) == 176
        assert cols["t"][-1] == pytest.approx(0.7)
        assert np.abs(np.diff(cols["t"]) - 0.004).max() <= 1e-12

    def test_tight_trait_bounds_exit_one(self, tmp_path, capsys):
        doc = json.loads(json.dumps(SMALL_COMPARE))
        doc["numerical"]["trait_bounds"] = [-3.0, 3.0]
        cfg = write_config(tmp_path, doc)
        assert run_cli("simulate-sim", "--config", cfg, "--out", str(tmp_path / "o")) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "trait_bounds" in err

    def test_coarse_trait_grid_for_the_kernel_exits_one(self, tmp_path, capsys):
        # Spacing 0.375 against sqrt(A/2) = 0.22: the kernel of variance A/2
        # loses 1.8e-3 of its mass, so no command may run on this grid.
        doc = json.loads(json.dumps(SMALL_COMPARE))
        doc["physical"]["A"] = 0.1
        doc["numerical"].update({"trait_bounds": [-12.0, 12.0], "trait_points": 64})
        del doc["numerical"]["dt"]
        cfg = write_config(tmp_path, doc)
        for command in ("check-operator", "simulate-sim", "compare"):
            assert run_cli(command, "--config", cfg, "--out", str(tmp_path / command)) == 1
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and "segregation kernel" in err, (command, err)
            assert not (tmp_path / command).exists()

    def test_compare_needs_three_snapshots(self, tmp_path, monkeypatch, capsys):
        def no_stepping(*args, **kwargs):
            raise AssertionError("compare stepped before checking its snapshot count")

        monkeypatch.setattr(sim_solver, "sim_step", no_stepping)
        doc = json.loads(json.dumps(SMALL_COMPARE))
        doc["numerical"]["snapshot_dt"] = doc["numerical"]["t_end"]
        cfg = write_config(tmp_path, doc)
        assert run_cli("compare", "--config", cfg, "--out", str(tmp_path / "o")) == 1
        assert "3 snapshots" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_single_gamma_commands_reject_a_gamma_list(self, tmp_path, capsys):
        doc = json.loads(json.dumps(SMALL_COMPARE))
        del doc["physical"]["gamma"]
        doc["physical"]["gamma_list"] = [4.0, 8.0, 16.0]
        err = assert_one_line_rejection(tmp_path, capsys, doc, commands=("simulate-sim", "compare"))
        assert "physical.gamma" in err

    def test_jobs_is_a_gamma_sweep_option(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_COMPARE)
        assert run_cli("compare", "--config", cfg, "--out", str(tmp_path / "o"), "--jobs", "2") == 1

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_is_rejected(self, tmp_path, capsys, jobs):
        doc = json.loads(json.dumps(SMALL_COMPARE))
        del doc["physical"]["gamma"]
        doc["physical"]["gamma_list"] = [4.0, 8.0, 16.0]
        err = assert_one_line_rejection(
            tmp_path, capsys, doc, "--jobs", jobs, commands=("gamma-sweep",)
        )
        assert f"--jobs: must be at least 1, got {jobs}" in err


class TestSimulateCommands:
    def test_snapshot_round_trip_binary_and_text(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, SMALL_COMPARE)
        assert run_cli("simulate-sim", "--config", cfg, "--out", "bin") == 0
        assert run_cli("simulate-sim", "--config", cfg, "--out", "txt", "--text") == 0
        hb, mb = read_snapshot("bin/snapshots/sim_000004.snap")
        ht, mt = read_snapshot("txt/snapshots/sim_000004.snap")
        assert hb["encoding"] == "binary" and ht["encoding"] == "csv"
        assert hb["kind"] == "sim" and hb["t"] == pytest.approx(0.4)
        assert mb.shape == (32, 128)
        assert np.abs(mb - mt).max() == 0.0  # repr round-trips doubles exactly

    def test_sim_stops_at_the_first_failing_gauss_dev(
        self, tmp_path, capsys, monkeypatch, count_calls
    ):
        # Each snapshot is reduced before the next step: a gauss_dev failure at
        # snapshot 1 (t = 0.1) comes after one cadence of 25 steps, not after
        # the whole run, and no file is written.
        calls, deviation = [], experiments.gaussian_deviation

        def failing_at_snapshot_1(state, *args):
            calls.append(state.t)
            if len(calls) == 2:
                raise SimulationError("planted gauss_dev failure", {"t": state.t})
            return deviation(state, *args)

        monkeypatch.setattr(experiments, "gaussian_deviation", failing_at_snapshot_1)
        counts = count_calls(sim_solver, "sim_step")
        cfg = write_config(tmp_path, SMALL_COMPARE)
        assert run_cli("simulate-sim", "--config", cfg, "--out", str(tmp_path / "o")) == 2
        assert "planted" in capsys.readouterr().err
        assert calls == pytest.approx([0.0, 0.1]) and counts["sim_step"] == 25
        assert not (tmp_path / "o").exists()

    def test_kbm_snapshots_carry_all_fields(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, SMALL_COMPARE)
        assert run_cli("simulate-kbm", "--config", cfg, "--out", "kb") == 0
        header, matrix = read_snapshot("kb/snapshots/kbm_000004.snap")
        assert header["fields"] == ["N", "Y", "Z"]
        assert matrix.shape == (3, 32)
        assert np.abs(matrix[2] - matrix[1] / matrix[0]).max() <= 1e-12


class TestGammaSweep:
    def test_planted_exponent_is_recovered_exactly(self, tmp_path, monkeypatch):
        # The production sweep path must aggregate the planted suprema and fit
        # them to theta = 1/2 exactly.
        monkeypatch.setattr(experiments, "run_compare", planted_compare)
        monkeypatch.chdir(tmp_path)
        doc = json.loads(json.dumps(SMALL_COMPARE))
        del doc["physical"]["gamma"]
        doc["physical"]["gamma_list"] = [2.0, 4.0, 8.0, 16.0, 32.0]
        cfg = write_config(tmp_path, doc)
        assert run_cli("gamma-sweep", "--config", cfg, "--out", "sw") == 0
        summary = json.loads(pathlib.Path("sw/sweep_summary.json").read_text())
        for family, theta in summary["theta_hat"].items():
            assert theta == pytest.approx(0.5, abs=1e-12), family
            assert summary["r2"][family] == pytest.approx(1.0, abs=1e-12)

    def test_short_gamma_list_rejected(self, tmp_path):
        doc = json.loads(json.dumps(SMALL_COMPARE))
        del doc["physical"]["gamma"]
        doc["physical"]["gamma_list"] = [4.0]
        cfg = write_config(tmp_path, doc)
        assert run_cli("gamma-sweep", "--config", cfg, "--out", str(tmp_path / "o")) == 1
        assert not (tmp_path / "o").exists()

    def test_pool_has_at_most_one_worker_per_gamma(self, monkeypatch):
        # A fork pool starts all its workers at the first submit.
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(experiments.concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(experiments, "run_compare", planted_compare)
        doc = json.loads(json.dumps(SMALL_COMPARE))
        del doc["physical"]["gamma"]
        doc["physical"]["gamma_list"] = [4.0, 8.0, 16.0]
        report, results = experiments.run_gamma_sweep(parse_config(doc), jobs=64)
        assert sizes == [3]
        assert sorted(results) == [4.0, 8.0, 16.0]

    def test_parallel_sweep_is_byte_identical(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        doc = json.loads(json.dumps(SMALL_COMPARE))
        del doc["physical"]["gamma"]
        doc["physical"]["gamma_list"] = [4.0, 8.0, 16.0]
        doc["numerical"]["t_end"] = 0.2
        cfg = write_config(tmp_path, doc)
        assert run_cli("gamma-sweep", "--config", cfg, "--out", "s1", "--jobs", "1") == 0
        assert run_cli("gamma-sweep", "--config", cfg, "--out", "s2", "--jobs", "2") == 0
        assert (
            pathlib.Path("s1/sweep.csv").read_bytes()
            == pathlib.Path("s2/sweep.csv").read_bytes()
        )
        for g in ("4", "8", "16"):
            assert (
                pathlib.Path(f"s1/gamma_{g}/compare_series.csv").read_bytes()
                == pathlib.Path(f"s2/gamma_{g}/compare_series.csv").read_bytes()
            )


class TestCheckOperator:
    def small_doc(self):
        return {
            "physical": {"A": 1.0, "gamma": 8.0, "env": {"kind": "constant", "value": 0.0}},
            "numerical": {
                "space_points": 32,
                "trait_bounds": [-8.0, 8.0],
                "trait_points": 256,
                "dt": 0.004,
                "t_end": 0.4,
                "snapshot_dt": 0.1,
                "seed": 3,
            },
            "output": {"directory": "out"},
        }

    def test_default_config_passes(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, self.small_doc())
        assert run_cli("check-operator", "--config", cfg, "--out", "op") == 0
        report = json.loads(pathlib.Path("op/operator_report.json").read_text())
        assert report["all_passed"] is True
        names = {c["name"] for c in report["checks"]}
        assert {"mass_conservation", "tanaka_w2", "tanaka_w4", "gaussian_fixed_point"} <= names
        assert "pass" in capsys.readouterr().out

    def test_narrow_grid_passes(self, tmp_path, monkeypatch):
        # Draws sized for an 8-wide grid lost 5.8e-8 of their mass under T
        # on this one, and both Tanaka checks aborted.
        doc = self.small_doc()
        doc["physical"]["A"] = 0.27
        doc["numerical"].update({"trait_bounds": [-4.16, 4.21], "trait_points": 64})
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, doc)
        assert run_cli("check-operator", "--config", cfg, "--out", "op") == 0
        report = json.loads(pathlib.Path("op/operator_report.json").read_text())
        assert report["all_passed"] is True

    def test_broken_kernel_fails_mass_conservation(self, tmp_path, monkeypatch):
        # The kernel the suite builds integrates to 1.01; parse_config holds its
        # own reference to segregation_kernel, so the document still parses.
        def broken_kernel(A, grid):
            table, defect = segregation_kernel(A, grid)
            return 1.01 * table, defect

        monkeypatch.setattr(infinitesimal, "segregation_kernel", broken_kernel)
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, self.small_doc())
        assert run_cli("check-operator", "--config", cfg, "--out", "op") == 3
        report = json.loads(pathlib.Path("op/operator_report.json").read_text())
        failed = {c["name"] for c in report["checks"] if not c["passed"]}
        assert "mass_conservation" in failed

    def test_same_seed_gives_identical_report_bytes(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, self.small_doc())
        assert run_cli("check-operator", "--config", cfg, "--out", "op") == 0
        first = pathlib.Path("op/operator_report.json").read_bytes()
        assert run_cli("check-operator", "--config", cfg, "--out", "op") == 0
        assert pathlib.Path("op/operator_report.json").read_bytes() == first
