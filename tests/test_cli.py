import json
import pathlib

import numpy as np
import pytest

from simkbm.cli import main
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
    "output": {"directory": "out", "diagnostics": ["gauss_dev", "v_max", "mass_leak", "holder"]},
}


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc, indent=2))
    return str(path)


def run_cli(*argv):
    return main(list(argv))


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
            "output": {"directory": "out", "diagnostics": ["gauss_dev", "v_max", "mass_leak"]},
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


class TestConfigToRunContract:
    def test_auto_cadence_on_a_ragged_horizon(self, tmp_path, monkeypatch):
        # 350 steps: the rounded pick t_end / (100 dt) = 3 does not divide them.
        monkeypatch.chdir(tmp_path)
        doc = json.loads(json.dumps(SMALL_COMPARE))
        doc["numerical"].update({"dt": 0.002, "t_end": 0.7})
        del doc["numerical"]["snapshot_dt"]
        doc["output"]["diagnostics"] = ["v_max", "mass_leak"]
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
        monkeypatch.chdir(tmp_path)
        doc = json.loads(json.dumps(SMALL_COMPARE))
        del doc["physical"]["gamma"]
        doc["physical"]["gamma_list"] = [2.0, 4.0, 8.0, 16.0, 32.0]
        doc["test_hooks"] = {"planted_theta": 0.5, "planted_c": 3.0}
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
        doc["test_hooks"] = {"planted_theta": 0.5}
        cfg = write_config(tmp_path, doc)
        assert run_cli("gamma-sweep", "--config", cfg, "--out", str(tmp_path / "o")) == 1
        assert not (tmp_path / "o").exists()

    def test_sweep_without_gauss_dev_rejected(self, tmp_path, capsys):
        # All-zero gauss_dev errors cannot be fitted by a power law.
        doc = json.loads(json.dumps(SMALL_COMPARE))
        del doc["physical"]["gamma"]
        doc["physical"]["gamma_list"] = [4.0, 8.0, 16.0]
        doc["output"]["diagnostics"] = ["v_max"]
        cfg = write_config(tmp_path, doc)
        assert run_cli("gamma-sweep", "--config", cfg, "--out", str(tmp_path / "o")) == 1
        assert "gauss_dev" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

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
    def small_doc(self, hooks=None):
        doc = {
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
        if hooks:
            doc["test_hooks"] = hooks
        return doc

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
        monkeypatch.chdir(tmp_path)
        cfg = write_config(
            tmp_path, self.small_doc(hooks={"break_kernel_normalization": True})
        )
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
