import json
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest

from simkbm import experiments, infinitesimal
from simkbm.cli import main
from simkbm.config import parse_config
from simkbm.experiments import CompareResult
from simkbm.infinitesimal import segregation_kernel
from simkbm.output import read_csv, read_snapshot

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


# The bounds clear Z0 by 4.24 sqrt(V0), enough for the initial columns, but the
# reference Gaussian of variance A holds only 0.99998 on the grid: every
# command that computes gauss_dev exits 2 at t = 0, after two RuntimeWarnings.
SHORT_REFERENCE = {
    "physical": {
        "A": 2.0,
        "gamma": 1.0,
        "env": {"kind": "constant", "value": 0.0},
        "initial": {
            "N0": {"kind": "constant", "value": 1.0},
            "Z0": {"kind": "constant", "value": 0.0},
            "V0": "auto",
        },
    },
    "numerical": {
        "space_points": 16,
        "trait_points": 64,
        "t_end": 0.02,
        "seed": 0,
        "trait_bounds": [-6.0, 6.0],
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


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc, indent=2))
    return str(path)


def run_cli(*argv):
    return main(list(argv))


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

    def test_reference_gaussian_short_of_mass_is_exit_two(self, tmp_path, capsys):
        for command, cfg_doc in SHORT_REFERENCE_RUNS:
            cfg = write_config(tmp_path, cfg_doc, f"{command}.json")
            with warnings.catch_warnings(record=True):
                rc = run_cli(command, "--config", cfg, "--out", str(tmp_path / command))
            err = capsys.readouterr().err
            assert rc == 2 and err.count("\n") == 1, (command, err)
            assert "reference Gaussian" in err and "'t': 0.0" in err, (command, err)
            # gauss_dev raises after the whole run, before any output is written.
            assert not (tmp_path / command).exists(), command

    @pytest.mark.parametrize(
        "command,flags", [("simulate-sim", ()), ("gamma-sweep", ("--jobs", "2"))]
    )
    def test_warnings_are_one_line_each_on_real_stderr(self, tmp_path, command, flags):
        # The in-process tests record warnings; only a fresh interpreter shows
        # what the default warning display prints.
        cfg = write_config(tmp_path, dict(SHORT_REFERENCE_RUNS)[command])
        src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        entry = "import sys; from simkbm.cli import main; sys.exit(main())"
        proc = subprocess.run(
            [sys.executable, "-c", entry, command, "--config", cfg, "--out", str(tmp_path / "o")]
            + list(flags),
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            timeout=120,
        )
        lines = proc.stderr.splitlines()
        assert proc.returncode == 2 and len(lines) > 1, proc.stderr
        assert lines[-1].startswith("runtime invariant violation"), proc.stderr
        assert all(line.startswith("warning: ") for line in lines[:-1]), proc.stderr


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

    @pytest.mark.parametrize("period", [1e-300, 1e300])
    def test_diffusion_ratio_out_of_range(self, tmp_path, capsys, period):
        doc = self.doc(period=period)
        assert "dt/(2 h^2)" in assert_one_line_rejection(tmp_path, capsys, doc)

    @pytest.mark.parametrize(
        "path, value",
        [
            ("numerical.t_end", float("inf")),
            ("physical.A", float("nan")),
            ("physical.env", {"kind": "sinusoidal_in_x", "amplitude": float("nan")}),
            ("physical.initial", {"N0": {"kind": "constant", "value": float("inf")}}),
            ("physical.gamma", 10**400),
            ("numerical.trait_bounds", [-8.0, float("inf")]),
        ],
        ids=["t_end-inf", "A-nan", "env-nan", "N0-inf", "gamma-1e400", "trait_bounds-inf"],
    )
    def test_non_finite_numbers(self, tmp_path, capsys, path, value):
        doc = self.doc()
        section, key = path.split(".")
        doc[section][key] = value
        assert "must be finite" in assert_one_line_rejection(tmp_path, capsys, doc)


class TestConfigToRunContract:
    def test_auto_cadence_on_a_ragged_horizon(self, tmp_path, monkeypatch):
        # 350 steps: the rounded pick t_end / (100 dt) = 3 does not divide them.
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

        monkeypatch.setattr("simkbm.experiments.run_sim", no_stepping)
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
