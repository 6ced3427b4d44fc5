import json
import warnings

import numpy as np
import pytest

from simkbm import ConfigError, parse_config
from simkbm.environment import Environment
from simkbm.grids import TorusGrid, TraitGrid
from simkbm.infinitesimal import ReproductionKernel
from simkbm.sim_solver import gaussian_initial_state, kinetic_moments, plan_steps

MINIMAL = {"physical": {"A": 1.0, "gamma": 8.0}, "numerical": {"t_end": 5.0}}


def doc(**overrides):
    base = json.loads(json.dumps(MINIMAL))
    for path, value in overrides.items():
        cursor = base
        *parents, leaf = path.split(".")
        for key in parents:
            cursor = cursor.setdefault(key, {})
        cursor[leaf] = value
    return base


class TestParsing:
    def test_minimal_config_with_defaults(self):
        cfg = parse_config(json.dumps(MINIMAL))
        assert cfg.A == 1.0 and cfg.gamma == 8.0
        assert cfg.space_points == 64 and cfg.trait_points == 512
        assert "dim" not in cfg.to_dict()["numerical"] and cfg.period == 1.0
        # auto truncation: 8 sqrt(A) beyond the constant environment at 0
        assert cfg.trait_bounds == (-8.0, 8.0)
        assert cfg.v0 == cfg.A
        assert cfg.dt > 0 and abs(round(cfg.t_end / cfg.dt) * cfg.dt - cfg.t_end) < 1e-9

    def test_negative_A_names_the_field(self):
        with pytest.raises(ConfigError, match="physical.A"):
            parse_config(doc(**{"physical.A": -1.0}))

    def test_missing_gamma(self):
        bad = doc()
        del bad["physical"]["gamma"]
        with pytest.raises(ConfigError, match="gamma"):
            parse_config(bad)

    def test_unknown_keys_rejected_not_ignored(self):
        with pytest.raises(ConfigError, match="unknown key 'gama'"):
            parse_config(doc(**{"physical.gama": 3.0}))
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(doc(**{"numerical.dx": 0.1}))
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(doc(typo_section={}))

    @pytest.mark.parametrize(
        "source,reason",
        [
            (b"\xff\xfe{}", "not UTF-8 text"),
            ("[" * 100000, "nests arrays or objects too deeply"),
            (b"[" * 100000, "nests arrays or objects too deeply"),
            ("{", "not valid JSON"),
            ("[]", "must be a JSON object"),
        ],
        ids=["utf-16-bom", "deep-text", "deep-bytes", "truncated", "array"],
    )
    def test_undecodable_documents(self, source, reason):
        with pytest.raises(ConfigError, match=reason):
            parse_config(source)

    def test_fixed_point_masses_are_checked_without_warnings(self):
        # The fixed-point centers on [-6.9, 6.9] are -0.92, 0 and 0.92: the outer
        # two lie 5.98 sqrt(A) from an end, where gaussian_on_grid would warn.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            cfg = parse_config(doc(**{"numerical.trait_bounds": [-6.9, 6.9]}))
        assert cfg.trait_bounds == (-6.9, 6.9)

    def test_gamma_and_list_exclusive(self):
        with pytest.raises(ConfigError, match="exactly one"):
            parse_config(doc(**{"physical.gamma_list": [2.0, 4.0, 8.0]}))

    def test_gamma_list_must_increase(self):
        bad = doc(**{"physical.gamma_list": [4.0, 2.0, 8.0]})
        del bad["physical"]["gamma"]
        with pytest.raises(ConfigError, match="strictly increasing"):
            parse_config(bad)

    def test_auto_trait_bounds_follow_environment_and_initial_mean(self):
        cfg = parse_config(
            doc(
                **{
                    "physical.env": {
                        "kind": "sinusoidal_in_x",
                        "offset": 0.0,
                        "amplitude": 0.5,
                        "wavenumber": 1,
                    }
                }
            )
        )
        assert cfg.trait_bounds == (-8.5, 8.5)

    def test_dt_stability_rejection(self):
        with pytest.raises(ConfigError, match="stability bound"):
            parse_config(doc(**{"numerical.dt": 0.05}))

    # A step ratio that overflows a float is not a whole number of steps either.
    @pytest.mark.parametrize("dt,t_end", [(0.003, 0.01), (0.001, 1e308), (1e-320, 1.0)])
    def test_t_end_must_be_multiple_of_dt(self, dt, t_end):
        with pytest.raises(ConfigError, match="numerical.t_end must be an integer multiple of dt"):
            parse_config(doc(**{"numerical.dt": dt, "numerical.t_end": t_end}))

    @pytest.mark.parametrize("dt,snapshot_dt", [(0.002, 0.003), (0.001, 1e308)])
    def test_snapshot_dt_must_be_multiple_of_dt(self, dt, snapshot_dt):
        with pytest.raises(
            ConfigError, match="numerical.snapshot_dt must be an integer multiple of dt"
        ):
            parse_config(doc(**{"numerical.dt": dt, "numerical.snapshot_dt": snapshot_dt}))

    def test_snapshot_dt_must_divide_t_end(self):
        for snapshot_dt in (0.3, 1.4):
            with pytest.raises(ConfigError, match="snapshot_dt must divide t_end"):
                parse_config(
                    doc(**{"numerical.dt": 0.002, "numerical.t_end": 0.7,
                           "numerical.snapshot_dt": snapshot_dt})
                )
        # Under an auto dt, no whole number of 1e308 intervals makes t_end = 5.
        with pytest.raises(ConfigError, match="snapshot_dt must divide t_end"):
            parse_config(doc(**{"numerical.snapshot_dt": 1e308}))

    def test_auto_dt_divides_an_explicit_cadence(self):
        # The auto step 1/348 does not divide 0.05, and the document exited 1
        # ("integer multiple of dt"): 18 steps of 1/360 fill each interval.
        env = {"kind": "sinusoidal_in_x", "amplitude": 0.5}
        timing = {"physical.env": env, "numerical.t_end": 1.0}
        cfg = parse_config(doc(**timing, **{"numerical.snapshot_dt": 0.05}))
        assert cfg.dt == 1.0 / 360 and cfg.snapshot_dt == 0.05
        assert plan_steps(0.0, 1.0, cfg.dt, 0.05) == (360, 18)
        # Where the auto step divides the cadence, it is kept.
        cfg = parse_config(doc(**timing, **{"numerical.snapshot_dt": 0.25}))
        assert cfg.dt == 1.0 / 348 and plan_steps(0.0, 1.0, cfg.dt, 0.25) == (348, 87)
        # A cadence far below the auto step: 5000 intervals of one step each.
        cfg = parse_config(doc(**{"numerical.t_end": 1e-6, "numerical.snapshot_dt": 2e-10}))
        assert plan_steps(0.0, 1e-6, cfg.dt, 2e-10) == (5000, 1)

    def test_horizon_over_the_step_cap_by_roundoff_is_accepted(self):
        # t_end / dt is 1000000.0000001, which rounds to the cap of 10^6 steps.
        cfg = parse_config(doc(**{"numerical.t_end": 1000.0000000001, "numerical.dt": 0.001}))
        assert (cfg.t_end, cfg.dt, cfg.snapshot_dt) == (1000.0000000001, 0.001, 10.0)

    def test_auto_cadence_divides_the_step_count(self):
        # 350 steps: the target (350 + 50) // 100 = 4 does not divide 350.
        cfg = parse_config(doc(**{"numerical.dt": 0.002, "numerical.t_end": 0.7}))
        assert cfg.snapshot_dt == 0.002 * 2
        # Where the target divides the step count, it is kept as is.
        cfg = parse_config(doc(**{"numerical.dt": 0.002, "numerical.t_end": 1.0}))
        assert cfg.snapshot_dt == 0.002 * 5

    # 150 steps aim at 2, so snapshot_dt is 0.004, although in floats
    # t_end / (100 dt) = 1.4999999999999998 would round to 1.  450 steps aim
    # at 5 (snapshot_dt 0.01), where rounding half to even would aim at 4.
    @pytest.mark.parametrize(
        "t_end, n_steps", [(0.3, 150), (0.7, 350), (0.9, 450), (20.014, 10007)]
    )
    def test_auto_cadence_is_the_largest_divisor_up_to_the_target(self, t_end, n_steps):
        target = (n_steps + 50) // 100
        every = max(d for d in range(1, target + 1) if n_steps % d == 0)
        document = doc(**{"numerical.dt": 0.002, "numerical.t_end": t_end})
        if every < target / 2:  # 10007 is prime
            message = rf"= {target} \(the largest up to it is {every}\)"
            with pytest.raises(ConfigError, match=message):
                parse_config(document)
        else:
            assert parse_config(document).snapshot_dt == 0.002 * every

    def test_trait_bounds_need_initial_headroom(self):
        # V0 = 1 needs 4 units on either side of Z0 = 0.  A = 0.25 keeps the
        # operator suite's fixed-point Gaussians on [-4, 4]; A = 1 does not.
        narrow = {"physical.A": 0.25, "physical.initial": {"V0": 1.0}}
        with pytest.raises(ConfigError, match="trait_bounds: .* within 3.000 standard deviations"):
            parse_config(doc(**narrow, **{"numerical.trait_bounds": [-3.0, 3.0]}))
        cfg = parse_config(doc(**narrow, **{"numerical.trait_bounds": [-4.0, 4.0]}))
        assert cfg.trait_bounds == (-4.0, 4.0)
        with pytest.raises(ConfigError, match="a fixed-point center of the operator suite"):
            parse_config(doc(**{"numerical.trait_bounds": [-4.0, 4.0]}))

    @pytest.mark.parametrize("dim", [1, 2])
    def test_rejects_dim_as_an_unknown_key(self, dim):
        # The integrators are one-dimensional and no document names a dimension.
        with pytest.raises(ConfigError, match="unknown key 'dim' in numerical"):
            parse_config(doc(**{"numerical.dim": dim}))

    def test_auto_bounds_past_the_float_range(self):
        # y_opt reaches 1e308 + 1e308 = inf, and so does the "auto" upper bound.
        env = {"kind": "sinusoidal_in_x", "offset": 1e308, "amplitude": 1e308}
        with pytest.raises(ConfigError, match=r"numerical.trait_bounds: .* finite.*inf\]"):
            parse_config(doc(**{"physical.env": env}))

    def test_kernel_defect_rejection_is_the_kernel_warning(self):
        # 16 points on the auto bounds [-8, 8]: spacing 1 > 0.9 sqrt(A/2) = 0.64.
        with pytest.raises(ConfigError) as info:
            parse_config(doc(**{"numerical.trait_points": 16}))
        with pytest.warns(RuntimeWarning) as record:
            ReproductionKernel(1.0, TraitGrid(-8.0, 8.0, 16))
        assert str(info.value) == f"{record[0].message}; raise numerical.trait_points"

    def test_margin_rejection_is_the_initial_state_error(self):
        # Z0 = 0 and V0 = 1 on [-3, 3]: 3 standard deviations where 4 are needed.
        narrow = {"physical.A": 0.25, "physical.initial": {"V0": 1.0}}
        with pytest.raises(ConfigError) as info:
            parse_config(doc(**narrow, **{"numerical.trait_bounds": [-3.0, 3.0]}))
        with pytest.raises(ValueError) as error:
            gaussian_initial_state(
                TorusGrid(64), TraitGrid(-3.0, 3.0, 512), np.ones(64), np.zeros(64), 1.0
            )
        assert str(info.value) == f"numerical.trait_bounds: {error.value}"

    def test_unresolved_initial_variance_is_the_initial_state_error(self):
        # sqrt(V0) = 0.01 on the default spacing 1/32: the initial columns held
        # N(0) = 0.7356 where N0 = 1, and compare measured err_N 0.2644 from t = 0.
        unresolved = {"physical.initial": {"V0": 1e-4}}
        with pytest.raises(ConfigError) as info:
            parse_config(doc(**unresolved))
        trait = TraitGrid(-8.0, 8.0, 512)
        with pytest.raises(ValueError) as error:
            gaussian_initial_state(TorusGrid(64), trait, np.ones(64), np.zeros(64), 1e-4)
        assert str(info.value) == f"physical.initial.V0: {error.value}"
        assert "the spacing must be below about sqrt(V0) = 0.01" in str(error.value)
        # A = 3, V0 = 0.05 on 64 points over [-12, 12]: N(0) was 0.998209.
        coarse = {"numerical.trait_bounds": [-12.0, 12.0], "numerical.trait_points": 64}
        with pytest.raises(ConfigError, match="off mass 1 by 1.791e-03"):
            parse_config(doc(**coarse, **{"physical.A": 3.0, "physical.initial": {"V0": 0.05}}))
        # V0 = 1e-3 is off by 3.3e-9 on the default grid, within PROBABILITY_TOL.
        assert parse_config(doc(**{"physical.initial": {"V0": 1e-3}})).v0 == 1e-3
        state = gaussian_initial_state(TorusGrid(64), trait, np.ones(64), np.zeros(64), 1e-3)
        assert np.abs(kinetic_moments(state).N - 1.0).max() <= 1e-8

    def test_rejects_vanishing_initial_population(self):
        with pytest.raises(ConfigError, match="N0"):
            parse_config(doc(**{"physical.initial": {"N0": {"kind": "constant", "value": 0.0}}}))

    def test_test_hooks_section_rejected(self):
        with pytest.raises(ConfigError, match="unknown key 'test_hooks'"):
            parse_config(doc(test_hooks={"planted_theta": 0.5}))

    def test_bad_diagnostics_rejected(self):
        # Every run writes every diagnostic, so no key selects them.
        with pytest.raises(ConfigError, match="unknown key 'diagnostics' in output"):
            parse_config(doc(output={"diagnostics": ["gauss_dev"]}))

    @pytest.mark.parametrize("field", ["N0", "Z0"])
    @pytest.mark.parametrize(
        "profile, message",
        [
            ({"kind": "sinusoidal_in_x", "amplitude": 0.1}, "physical.initial.{field}.kind"),
            ({"kind": "affine_in_t", "value": 1.0, "rate": 0.1}, "physical.initial.{field}.kind"),
            ({"kind": "constant"}, "missing required key physical.initial.{field}.value"),
        ],
        ids=["sinusoidal_in_x", "affine_in_t", "constant-without-value"],
    )
    def test_initial_fields_take_only_their_own_kinds(self, field, profile, message):
        with pytest.raises(ConfigError, match=message.format(field=field)):
            parse_config(doc(**{f"physical.initial.{field}": profile}))

    def test_environment_kinds(self):
        cfg = parse_config(
            doc(**{"physical.env": {"kind": "affine_in_t", "value": 0.1, "rate": 0.2}})
        )
        env = cfg.env
        assert isinstance(env, Environment)
        assert env.evaluate(2.0, np.zeros(1))[0] == pytest.approx(0.5)

    def test_auto_dt_fits_its_step_count_to_the_auto_cadence(self):
        # The stability bound gives 1777 steps here, a prime: the auto dt
        # takes 1782 = 99 * 18 instead, and the run about 100 snapshots.
        cfg = parse_config(
            doc(**{"physical.env": {"kind": "affine_in_t", "value": 0.1, "rate": 0.2}})
        )
        n_steps = round(cfg.t_end / cfg.dt)
        every = round(cfg.snapshot_dt / cfg.dt)
        assert (n_steps, every) == (1782, 18)
        assert cfg.dt == cfg.t_end / n_steps
        assert n_steps // every + 1 == 100


class TestRoundTrip:
    def test_parse_serialize_parse_is_identity(self):
        cfg = parse_config(
            doc(
                **{
                    "physical.env": {
                        "kind": "sinusoidal_plus_drift",
                        "offset": 0.1,
                        "amplitude": 0.5,
                        "wavenumber": 2,
                        "rate": -0.05,
                    },
                    "physical.initial": {
                        "N0": {"kind": "sinusoidal", "offset": 1.0, "amplitude": 0.2, "wavenumber": 1},
                        "Z0": {"kind": "sinusoidal", "offset": 0.1, "amplitude": 0.2, "wavenumber": 3},
                        "V0": 0.8,
                    },
                    "numerical.dt": 0.002,
                    "numerical.snapshot_dt": 0.05,
                    "numerical.seed": 42,
                    "output.text": True,
                }
            )
        )
        again = parse_config(json.dumps(cfg.to_dict()))
        assert again == cfg
        assert cfg.to_dict()["physical"]["initial"] == {
            "N0": {"kind": "sinusoidal", "offset": 1.0, "amplitude": 0.2, "wavenumber": 1},
            "Z0": {"kind": "sinusoidal", "offset": 0.1, "amplitude": 0.2, "wavenumber": 3},
            "V0": 0.8,
        }

    @pytest.mark.parametrize(
        "path, field",
        [
            ("physical.env", {"kind": "constant", "value": 0.3}),
            ("physical.env", {"kind": "affine_in_t", "value": 0.1, "rate": 0.2}),
            (
                "physical.env",
                {"kind": "sinusoidal_in_x", "offset": 0.1, "amplitude": 0.5, "wavenumber": 1},
            ),
            (
                "physical.env",
                {
                    "kind": "sinusoidal_plus_drift",
                    "offset": 0.0,
                    "amplitude": 0.5,
                    "wavenumber": 2,
                    "rate": -0.1,
                },
            ),
            ("physical.initial.N0", {"kind": "constant", "value": 1.5}),
            (
                "physical.initial.Z0",
                {"kind": "sinusoidal", "offset": 0.1, "amplitude": 0.2, "wavenumber": 3},
            ),
        ],
        ids=["constant", "affine_in_t", "sinusoidal_in_x", "sinusoidal_plus_drift",
             "initial-constant", "initial-sinusoidal"],
    )
    def test_every_field_kind_round_trips(self, path, field):
        cfg = parse_config(doc(**{path: field}))
        assert parse_config(json.dumps(cfg.to_dict())) == cfg
        echo = cfg.to_dict()
        for key in path.split("."):
            echo = echo[key]
        assert echo == field

    def test_round_trip_with_gamma_list(self):
        base = doc()
        base["physical"]["gamma_list"] = [2.0, 4.0, 8.0]
        del base["physical"]["gamma"]
        cfg = parse_config(base)
        assert parse_config(json.dumps(cfg.to_dict())) == cfg
        assert cfg.gamma_list == (2.0, 4.0, 8.0) and cfg.gamma is None


class TestEnvironment:
    @pytest.mark.parametrize(
        "kind, coefficient, value",
        [
            ("constant", "amplitude", 0.5),
            ("constant", "wavenumber", 2),
            ("constant", "rate", 2.0),
            ("affine_in_t", "amplitude", 0.5),
            ("affine_in_t", "wavenumber", 2),
            ("sinusoidal_in_x", "rate", -0.1),
        ],
    )
    def test_rejects_a_coefficient_its_kind_never_reads(self, kind, coefficient, value):
        with pytest.raises(ValueError, match=f"a {kind} field reads no {coefficient}, got {value}"):
            Environment(kind, **{coefficient: value})

    @pytest.mark.parametrize("wavenumber", [float("inf"), float("nan")])
    def test_rejects_a_wavenumber_that_is_not_finite(self, wavenumber):
        with pytest.raises(ValueError, match="wavenumber must be a positive integer"):
            Environment("sinusoidal_in_x", amplitude=1.0, wavenumber=wavenumber)

    @pytest.mark.parametrize("kind", ["constant", "affine_in_t", "sinusoidal_in_x"])
    def test_accepts_an_unread_coefficient_at_its_default(self, kind):
        env = Environment(kind, offset=0.4, amplitude=0.0, wavenumber=1, rate=0.0)
        assert env.evaluate(1.0, np.zeros(1))[0] == 0.4
