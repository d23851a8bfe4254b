import csv
import importlib.util
import json
import math
import shutil
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from cbfctrl import CBFControlError, cli, evaluate_constraint, evaluate_controller
from cbfctrl.cli import _fmt, main, write_trajectory_csv
from cbfctrl.simulate import Trajectory
from oracles import counted_plant

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def write_config(tmp_path, name, config):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return path


def single_integrator_config(**overrides):
    config = {
        "schema": 1,
        "seed": 0,
        "system": {"name": "single_integrator", "dim": 1},
        "barrier": {"kind": "linear", "normal": [1.0], "offset": 1.0, "beta": 1.5},
        "controller": {"kind": "qp"},
        "nominal": {"kind": "constant", "value": [2.0]},
        "x0": [0.0],
        "sim": {"dt": 0.001, "horizon": 1.0, "integrator": "rk4", "record_every": 1},
    }
    config.update(overrides)
    return config


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    return header, rows


def test_simulate_single_integrator(tmp_path):
    cfg = write_config(tmp_path, "si.json", single_integrator_config())
    rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 0
    header, rows = read_csv(tmp_path / "trajectory.csv")
    assert header == ["t", "x0", "u0", "h", "residual", "kappa", "margin"]
    assert len(rows) == 1001
    h_col = [r[3] for r in rows]
    assert min(h_col) >= -1e-6


def test_simulate_velocity_scenario_row_count(tmp_path):
    rc = main(
        [
            "simulate",
            "--config",
            str(CONFIG_DIR / "twolink_velocity.json"),
            "--out",
            str(tmp_path),
        ]
    )
    assert rc == 0
    header, rows = read_csv(tmp_path / "twolink_velocity.csv")
    assert header == [
        "t", "x0", "x1", "x2", "u0", "u1", "h", "residual", "kappa", "margin",
    ]
    assert len(rows) == 10001
    assert min(r[6] for r in rows) >= -1e-4


def test_missing_barrier_section_names_key(tmp_path, capsys):
    config = single_integrator_config()
    del config["barrier"]
    cfg = write_config(tmp_path, "bad.json", config)
    rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 1
    assert "config.barrier" in capsys.readouterr().err


def test_unknown_key_rejected(tmp_path, capsys):
    config = single_integrator_config()
    config["extra_section"] = {"a": 1}
    cfg = write_config(tmp_path, "bad.json", config)
    rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 1
    assert "extra_section" in capsys.readouterr().err


def test_wrong_schema_version(tmp_path, capsys):
    config = single_integrator_config(schema=2)
    cfg = write_config(tmp_path, "bad.json", config)
    rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 1
    assert "schema" in capsys.readouterr().err


def test_strict_range_precheck_low_eta(tmp_path, capsys):
    # eta = 0.4 puts the tunable term below its range already at x0
    rc = main(
        [
            "simulate",
            "--config",
            str(CONFIG_DIR / "twolink_velocity.json"),
            "--set",
            "controller.eta=0.4",
            "--set",
            "sim.horizon=1.0",
            "--out",
            str(tmp_path),
            "--strict-range",
        ]
    )
    assert rc == 1
    assert "precheck" in capsys.readouterr().err
    assert not (tmp_path / "twolink_velocity.csv").exists()


def test_low_eta_without_strict_range_fails_at_runtime(tmp_path):
    rc = main(
        [
            "simulate",
            "--config",
            str(CONFIG_DIR / "twolink_velocity.json"),
            "--set",
            "controller.eta=0.4",
            "--set",
            "sim.horizon=1.0",
            "--out",
            str(tmp_path),
        ]
    )
    assert rc == 2
    assert (tmp_path / "twolink_velocity.csv").exists()


def test_simulate_determinism_bytes(tmp_path):
    config = single_integrator_config(
        disturbance={"kind": "bounded_random", "magnitude": 0.2, "seed": 5}
    )
    cfg = write_config(tmp_path, "si.json", config)
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert main(["simulate", "--config", str(cfg), "--out", str(out1), "--seed", "7"]) == 0
    assert main(["simulate", "--config", str(cfg), "--out", str(out2), "--seed", "7"]) == 0
    assert (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()


def test_set_override_applies(tmp_path):
    cfg = write_config(tmp_path, "si.json", single_integrator_config())
    rc = main(
        [
            "simulate",
            "--config",
            str(cfg),
            "--set",
            "sim.horizon=0.5",
            "--out",
            str(tmp_path),
        ]
    )
    assert rc == 0
    _, rows = read_csv(tmp_path / "trajectory.csv")
    assert len(rows) == 501


def test_sweep_summary_and_identity(tmp_path):
    cfg = write_config(
        tmp_path,
        "vel.json",
        {
            "schema": 1,
            "system": {"name": "two_link_velocity"},
            "barrier": {"kind": "builtin"},
            "controller": {"kind": "tunable", "eta": 0.7, "sigma": 0.2},
            "sim": {"dt": 0.001, "horizon": 2.0, "integrator": "rk4", "record_every": 1},
        },
    )
    out = tmp_path / "sweep"
    rc = main(
        [
            "sweep",
            "--config",
            str(cfg),
            "--param",
            "eta",
            "--values",
            "0.5,0.7,1.0",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    lines = (out / "summary.csv").read_text().splitlines()
    assert lines[0] == "eta,min_h,max_input_norm,max_deriv_jump,margin_min,status"
    assert len(lines) == 4  # one row per value
    min_h = [float(line.split(",")[1]) for line in lines[1:]]
    max_in = [float(line.split(",")[2]) for line in lines[1:]]
    assert min_h[0] < min_h[1] < min_h[2]
    assert max_in[0] < max_in[1] < max_in[2]

    # eta = 1 duplicates a sontag run
    rc = main(
        [
            "simulate",
            "--config",
            str(cfg),
            "--set",
            "controller.kind=sontag",
            "--out",
            str(tmp_path / "stg"),
        ]
    )
    assert rc == 0
    assert (out / "eta_1.0.csv").read_bytes() == (
        tmp_path / "stg" / "trajectory.csv"
    ).read_bytes()


def test_sweep_partial_failure_exit_code(tmp_path):
    cfg = write_config(
        tmp_path,
        "vel.json",
        {
            "schema": 1,
            "system": {"name": "two_link_velocity"},
            "barrier": {"kind": "builtin"},
            "controller": {"kind": "tunable", "eta": 0.7, "sigma": 0.2},
            "sim": {"dt": 0.001, "horizon": 1.0, "integrator": "rk4", "record_every": 1},
        },
    )
    out = tmp_path / "sweep"
    rc = main(
        [
            "sweep",
            "--config",
            str(cfg),
            "--param",
            "eta",
            "--values",
            "0.7,0.4",
            "--out",
            str(out),
        ]
    )
    assert rc == 2
    lines = (out / "summary.csv").read_text().splitlines()
    assert len(lines) == 3
    assert lines[1].endswith("ok")
    assert "failed" in lines[2]

    # bounded-input members that fail mid-run: each value's CSV, truncated
    # or not, is that value's own simulate CSV
    bounded = ["--set", "controller.kind=bounded_input", "--set", "controller.gamma=3.0"]
    argv = ["sweep", "--config", str(cfg), "--param", "gamma", "--values", "1.0,1.5,2.0,3.0"]
    assert main(argv + bounded + ["--out", str(tmp_path / "gammas")]) == 2
    lines = (tmp_path / "gammas" / "summary.csv").read_text().splitlines()
    assert [line.split(",")[-1] for line in lines[1:]] == ["failed step 86", "failed step 272", "failed step 563", "ok"]
    for value in ("1.0", "1.5", "2.0", "3.0"):
        alone = tmp_path / f"alone_{value}"
        rc = main(["simulate", "--config", str(cfg), "--out", str(alone)] + bounded + ["--set", f"controller.gamma={value}"])
        assert rc == (0 if value == "3.0" else 2)
        assert (tmp_path / "gammas" / f"gamma_{value}.csv").read_bytes() == (alone / "trajectory.csv").read_bytes()


def test_sweep_over_a_string_value_writes_it_as_text(tmp_path):
    cfg = CONFIG_DIR / "single_integrator_qp.json"
    out = tmp_path / "sweep"
    argv = ["sweep", "--config", str(cfg), "--param", "controller.kind", "--values", '"qp","sontag"']
    rc = main(argv + ["--set", "controller.sigma=0.2", "--set", "sim.horizon=0.2", "--out", str(out)])
    assert rc == 0
    lines = (out / "summary.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in lines] == ["controller.kind", "qp", "sontag"]
    assert all(line.endswith(",ok") for line in lines[1:])
    for kind in ("qp", "sontag"):
        assert (out / f"controller.kind_{kind}.csv").exists()


def test_sweep_over_vector_values_writes_each_as_one_field(tmp_path):
    out = tmp_path / "sweep"
    sets = ["--set", 'disturbance={"kind": "constant", "value": [0, 0]}', "--set", "sim.horizon=0.05"]
    argv = ["sweep", "--config", str(CONFIG_DIR / "twolink_velocity.json"), "--param", "disturbance.value"]
    assert main(argv + ["--values", "[0, 0.2],[0,0.5]", "--out", str(out)] + sets) == 0
    rows = list(csv.reader((out / "summary.csv").read_text().splitlines()))
    assert [row[0] for row in rows] == ["disturbance.value", "[0,0.2]", "[0,0.5]"]
    assert all(len(row) == 6 and row[-1] == "ok" for row in rows[1:])
    # each member is the run of its own value
    for value in ([0, 0.2], [0, 0.5]):
        alone = tmp_path / f"alone_{value[1]}"
        one = ["--set", f'disturbance={{"kind": "constant", "value": {json.dumps(value)}}}', "--set", "sim.horizon=0.05"]
        assert main(["simulate", "--config", str(CONFIG_DIR / "twolink_velocity.json"), "--out", str(alone)] + one) == 0
        swept = (out / f"disturbance.value_[0,{value[1]}].csv").read_bytes()
        assert swept == (alone / "twolink_velocity.csv").read_bytes()


def test_sweep_over_booleans_labels_each_as_its_json(tmp_path, capsys):
    out = tmp_path / "sweep"
    argv = ["sweep", "--config", str(CONFIG_DIR / "twolink_velocity.json"), "--param", "controller.relu"]
    sets = ["--set", "controller.relu=false", "--set", "sim.horizon=0.05"]
    assert main(argv + ["--values", "true,false", "--out", str(out)] + sets) == 0
    rows = list(csv.reader((out / "summary.csv").read_text().splitlines()))
    assert [row[0] for row in rows] == ["controller.relu", "true", "false"]
    assert sorted(p.name for p in out.iterdir()) == ["controller.relu_false.csv", "controller.relu_true.csv", "summary.csv"]
    # each member is the run of its own value
    for value in ("true", "false"):
        alone = tmp_path / f"alone_{value}"
        one = ["--set", f"controller.relu={value}", "--set", "sim.horizon=0.05"]
        assert main(["simulate", "--config", str(CONFIG_DIR / "twolink_velocity.json"), "--out", str(alone)] + one) == 0
        assert (out / f"controller.relu_{value}.csv").read_bytes() == (alone / "twolink_velocity.csv").read_bytes()


@pytest.mark.parametrize(
    "config, item, message",
    [
        ("twolink_torque", "system.q_bar=1.0", "system 'two_link_torque' does not read config.system.q_bar"),
        ("twolink_torque", "system.x0_q=[1,0]", "unknown config key config.system.x0_q"),
        ("twolink_torque", "system.dim=2", "system 'two_link_torque' does not read config.system.dim"),
        ("twolink_torque", "controller.relu=true", "system 'two_link_torque' does not read config.controller.relu"),
        ("twolink_velocity", "system.mu=20", "system 'two_link_velocity' does not read config.system.mu"),
        ("twolink_velocity", "system.m1=2", "system 'two_link_velocity' does not read config.system.m1"),
        ("twolink_velocity", "barrier.beta=5", "the builtin barrier does not read config.barrier.beta"),
        ("twolink_velocity", "barrier.offset=1", "the builtin barrier does not read config.barrier.offset"),
        (
            "twolink_velocity",
            "nominal.kind=zero",
            "system 'two_link_velocity' does not read config.nominal: it tracks its own reference",
        ),
        ("single_integrator_qp", "system.mu=20", "system 'single_integrator' does not read config.system.mu"),
        *(
            (
                "single_integrator_qp",
                'disturbance={"kind":"constant","value":[0.1],"%s":%s}' % (key, value),
                f"the constant disturbance does not read config.disturbance.{key}",
            )
            for key, value in (("freq", "3"), ("amplitude", "[1]"), ("magnitude", "2"))
        ),
        (
            "single_integrator_qp",
            'disturbance={"kind":"sinusoidal","amplitude":[1],"freq":3,"value":[0.1]}',
            "the sinusoidal disturbance does not read config.disturbance.value",
        ),
        ("single_integrator_qp", 'nominal={"kind":"zero","value":[3]}', "the zero nominal does not read config.nominal.value"),
        ("twolink_velocity", "system.name=two_link", "unknown system name 'two_link'"),
        ("twolink_velocity", "controller.gamma=-1", "config.controller.gamma must be positive, got -1"),
    ],
)
def test_config_keys_the_scenario_does_not_read_are_config_errors(tmp_path, capsys, config, item, message):
    out = tmp_path / "out"
    argv = ["simulate", "--config", str(CONFIG_DIR / f"{config}.json"), "--set", item, "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


def test_sweep_with_a_bad_value_makes_no_out_directory(tmp_path, capsys):
    # every swept value is validated and built before --out is made
    out = tmp_path / "d"
    rc = main(["sweep", "--config", VELOCITY_CONFIG, "--param", "eta", "--values", '"abc"', "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == "config error: config.controller.eta must be a number, got 'abc'\n"
    assert not out.exists()


def test_sweep_unknown_parameter(tmp_path, capsys):
    cfg = write_config(tmp_path, "si.json", single_integrator_config())
    rc = main(
        [
            "sweep",
            "--config",
            str(cfg),
            "--param",
            "controller.missing",
            "--values",
            "1,2",
            "--out",
            str(tmp_path),
        ]
    )
    assert rc == 1
    assert "does not exist" in capsys.readouterr().err


def test_check_pass_and_fail_split(tmp_path):
    # bounded-input range over the closed-loop grid: eta = 0.7 admissible,
    # eta = 0.8 violates at the correction peak
    base = [
        "check",
        "--config",
        str(CONFIG_DIR / "twolink_velocity.json"),
        "--set",
        "controller.kind=bounded_input",
    ]
    assert main(base + ["--set", "controller.eta=0.7", "--out", str(tmp_path)]) == 0
    assert main(base + ["--set", "controller.eta=0.8", "--out", str(tmp_path)]) == 3


def test_check_empty_grid(tmp_path, capsys):
    config = single_integrator_config(grid={"kind": "box", "axes": []})
    cfg = write_config(tmp_path, "si.json", config)
    rc = main(["check", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 1
    assert "empty" in capsys.readouterr().err


def test_check_box_grid_compatibility(tmp_path, capsys):
    # gamma far below the needed correction: compatibility fails on the grid
    config = single_integrator_config(
        controller={"kind": "bounded_input", "eta": 0.5, "sigma": 0.2, "gamma": 0.05},
        grid={"kind": "box", "base": [0.0], "axes": [{"dim": 0, "min": -3.0, "max": 0.9, "count": 12}]},
    )
    del config["nominal"]
    cfg = write_config(tmp_path, "si.json", config)
    rc = main(["check", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 3
    err = capsys.readouterr().err
    assert "violate" in err


def double_integrator_infeasible_config(kind):
    # h = 1 - x1 with d = 0: c = 1.5 - x1dot, so the grid's c_eff is 1.5, 0.5, -0.5, -1.5
    controller = {"kind": kind} if kind == "qp" else {"kind": kind, "sigma": 0.2, "eta": 0.7}
    return single_integrator_config(
        system={"name": "double_integrator"},
        barrier={"kind": "linear", "normal": [1.0, 0.0], "offset": 1.0, "beta": 1.5},
        controller=controller,
        nominal={"kind": "zero"},
        x0=[0.0, 0.0],
        grid={"kind": "box", "base": [0.0, 0.0], "axes": [{"dim": 1, "min": 0.0, "max": 3.0, "count": 4}]},
    )


@pytest.mark.parametrize("kind", ["qp", "sontag", "tunable"])
def test_check_fails_states_where_the_controller_is_infeasible(tmp_path, capsys, kind):
    # ||d||^2 <= EPS_D with c_eff <= 0 fails for every kind, even where the
    # range rule alone passes (sontag's kappa is 1, qp has no range)
    cfg = write_config(tmp_path, "di.json", double_integrator_infeasible_config(kind))
    rc = main(["check", "--config", str(cfg), "--out", str(tmp_path)])
    out, err = capsys.readouterr()
    assert rc == 3
    rows = [line.split() for line in out.splitlines()[1:5]]
    assert [row[1] for row in rows] == ["1.50000", "0.50000", "-0.50000", "-1.50000"]
    assert [row[-1] for row in rows] == ["ok", "ok", "FAIL", "FAIL"]
    assert "2 of 4 grid points violate" in err
    if kind == "sontag":
        rc = main(["margin", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 2
        assert "infeasible constraint" in capsys.readouterr().err


# the single integrator on the shipped velocity config, for its linear barrier and constant nominal
SINGLE = ['system={"name":"single_integrator"}', 'controller={"kind":"qp"}', "x0=[0]"]
LINE = 'barrier={"kind":"linear","normal":[1],"offset":1}'


@pytest.mark.parametrize(
    "command, sets, message",
    [
        ("simulate", ['x0=["a",1,2]'], "config.x0 must be a list of 3 numbers, got ['a', 1, 2]"),
        ("simulate", ["x0=[[1],2,3]"], "config.x0 must be a list of 3 numbers, got [[1], 2, 3]"),
        (
            "check",
            ["grid.kind=box", 'grid.base="abc"', 'grid.axes=[{"dim":0,"min":0,"max":1,"count":2}]'],
            "config.grid.base must be a list of 3 numbers, got 'abc'",
        ),
        ("simulate", ['x0=["1","0","0"]'], "config.x0 must be a list of 3 numbers, got ['1', '0', '0']"),
        ("simulate", ["x0=[true,0,0]"], "config.x0 must be a list of 3 numbers, got [True, 0, 0]"),
        ("simulate", ["x0=[1,0]"], "config.x0 must be a list of 3 numbers, got [1, 0]"),
        ("simulate", ['system.x0_q=["a",0]'], "unknown config key config.system.x0_q"),
        (
            "simulate",
            ['disturbance={"kind":"sinusoidal","amplitude":["a",0],"freq":1}'],
            "config.disturbance.amplitude must be a list of 2 numbers, got ['a', 0]",
        ),
        (
            "simulate",
            ['disturbance={"kind":"constant","value":[0,0.1,0]}'],
            "config.disturbance.value must be a list of 2 numbers, got [0, 0.1, 0]",
        ),
        (
            "simulate",
            SINGLE + ['barrier={"kind":"linear","normal":["a"],"offset":1}'],
            "config.barrier.normal must be a list of 1 number, got ['a']",
        ),
        (
            "simulate",
            SINGLE + [LINE, 'nominal={"kind":"constant","value":[1,2]}'],
            "config.nominal.value must be a list of 1 number, got [1, 2]",
        ),
    ],
)
def test_non_numeric_config_arrays_are_config_errors(tmp_path, capsys, command, sets, message):
    argv = [command, "--config", str(CONFIG_DIR / "twolink_velocity.json"), "--out", str(tmp_path)]
    for item in sets:
        argv += ["--set", item]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_non_numeric_nominal_is_a_config_error(tmp_path, capsys):
    config = single_integrator_config(nominal={"kind": "constant", "value": ["x"]})
    cfg = write_config(tmp_path, "si.json", config)
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == "config error: config.nominal.value must be a list of 1 number, got ['x']\n"


def test_margin_subcommand(tmp_path, capsys):
    config = {
        "schema": 1,
        "system": {"name": "two_link_velocity"},
        "barrier": {"kind": "builtin"},
        "controller": {"kind": "tunable", "eta": 0.7, "sigma": 0.2},
        "sim": {"dt": 0.001, "horizon": 2.0, "integrator": "rk4", "record_every": 1},
        "grid": {"kind": "trajectory", "subsample": 50},
    }
    cfg = write_config(tmp_path, "vel.json", config)
    rc = main(["margin", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "sample-based" in out
    lines = (tmp_path / "margins.csv").read_text().splitlines()
    assert lines[0] == "idx,margin"
    margins = [float(line.split(",")[1]) for line in lines[1:]]
    assert all(m <= 0.0 for m in margins if math.isfinite(m))


def test_margin_needs_tunable(tmp_path, capsys):
    cfg = write_config(tmp_path, "si.json", single_integrator_config())
    rc = main(["margin", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 1


def test_margin_rejects_min_norm_torque_filter(tmp_path, capsys):
    # the configured kind is tunable, but the torque-level filter is min-norm
    rc = main(
        ["margin", "--config", str(CONFIG_DIR / "twolink_torque.json"), "--out", str(tmp_path)]
    )
    assert rc == 1
    assert "min-norm" in capsys.readouterr().err
    assert not (tmp_path / "margins.csv").exists()


@pytest.mark.parametrize("command", ["check", "margin"])
def test_simulation_flags_only_where_read(tmp_path, command):
    cfg = str(CONFIG_DIR / "twolink_velocity.json")
    for flag in ("--zoh", "--strict-range"):
        with pytest.raises(SystemExit) as info:
            main([command, "--config", cfg, flag, "--out", str(tmp_path)])
        assert info.value.code == 2
    with pytest.raises(SystemExit):
        main(["sweep", "--config", cfg, "--param", "eta", "--values", "0.7", "--strict-range"])


def test_invalid_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    rc = main(["simulate", "--config", str(path), "--out", str(tmp_path)])
    assert rc == 1
    assert "JSON" in capsys.readouterr().err


def test_double_integrator_with_zero_nominal(tmp_path):
    config = {
        "schema": 1,
        "system": {"name": "double_integrator"},
        "barrier": {"kind": "linear", "normal": [1.0, 0.4], "offset": 1.0, "beta": 1.5},
        "controller": {"kind": "sontag", "sigma": 0.2},
        "nominal": {"kind": "zero"},
        "x0": [0.0, 0.5],
        "sim": {"dt": 0.001, "horizon": 2.0, "integrator": "rk4", "record_every": 2},
    }
    cfg = write_config(tmp_path, "di.json", config)
    rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 0
    header, rows = read_csv(tmp_path / "trajectory.csv")
    assert header[:3] == ["t", "x0", "x1"]
    assert len(rows) == 1001
    assert min(r[4] for r in rows) >= -1e-6  # h column


def test_zoh_flag_round_trips(tmp_path):
    cfg = write_config(tmp_path, "si.json", single_integrator_config())
    rc = main(["simulate", "--config", str(cfg), "--zoh", "--out", str(tmp_path)])
    assert rc == 0


# --- config value types ---------------------------------------------------------

VELOCITY_CONFIG = str(CONFIG_DIR / "twolink_velocity.json")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["check", "--set", "controller.eta=null"], "config.controller.eta must be a number"),
        (["simulate", "--set", "controller.sigma=abc"], "config.controller.sigma must be a number"),
        (["margin", "--set", "controller.gamma=true"], "config.controller.gamma must be a number"),
        (["simulate", "--set", "controller.relu=1"], "config.controller.relu must be true or false"),
        (["check", "--set", "controller.kind=5"], "config.controller.kind must be a string"),
        (["sweep", "--param", "eta", "--values", "null"], "config.controller.eta must be a number"),
        (["sweep", "--param", "eta", "--values", '0.7,"abc"'], "config.controller.eta must be a number"),
        (["simulate", "--set", "sim.dt=abc"], "dt must be a number"),
        (["simulate", "--set", "sim.horizon=null"], "horizon must be a number"),
        (["simulate", "--set", "sim.record_every=1.5"], "record_every must be an integer"),
        (["sweep", "--param", "eta", "--values", "0.7", "--set", "sim.record_every=1.5"], "record_every must be an integer"),
        (["simulate", "--set", "sim.zoh=yes"], "zoh must be true or false"),
        (["simulate", "--set", "sim.integrator=4"], "integrator must be a string"),
        (["simulate", "--set", "seed=a"], "config.seed must be a nonnegative integer"),
        (["simulate", "--set", "seed=-1"], "config.seed must be a nonnegative integer"),
        (["simulate", "--set", "system.dim=a"], "config.system.dim must be an integer"),
        (["simulate", "--set", "system.q_bar=a"], "config.system.q_bar must be a number"),
        (["check", "--set", "system.kp=a"], "config.system.kp must be a number"),
        (["simulate", "--set", "barrier.offset=a"], "config.barrier.offset must be a number"),
        (["simulate", "--set", "disturbance.kind=sinusoidal", "--set", "disturbance.freq=a"],
         "config.disturbance.freq must be a number"),
        (["simulate", "--set", "disturbance.kind=bounded_random", "--set", "disturbance.magnitude=null"],
         "config.disturbance.magnitude must be a number"),
        (["simulate", "--set", "disturbance.kind=bounded_random", "--set", "disturbance.seed=1.5"],
         "config.disturbance.seed must be a nonnegative integer"),
        (["simulate", "--set", 'disturbance={"kind":"bounded_random","magnitude":0.1}', "--seed", "-2"],
         "--seed must be a nonnegative integer"),
        (["simulate", "--set", "sim.horizon=1e308"], "horizon / dt must be a finite step count"),
        (["simulate", "--set", "sim.dt=1e-320"], "horizon / dt must be a finite step count"),
        (["simulate", "--set", "schema=true"], "config.schema must be 1"),
        (["simulate", "--set", "schema=1.0"], "config.schema must be 1"),
    ],
)
def test_config_value_types_are_config_errors(tmp_path, capsys, argv, message):
    rc = main(argv[:1] + ["--config", VELOCITY_CONFIG] + argv[1:] + ["--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {message}, got ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "item, message",
    [
        ("sim=5", "config.sim must be an object, got 5"),
        ("grid=7", "config.grid must be an object, got 7"),
        ("grid.axes=5", "config.grid.axes must be a list, got 5"),
        ("grid.axes=[1]", "config.grid.axes[0] must be an object, got 1"),
        ("output=1", "config.output must be an object, got 1"),
        ("controller=[]", "config.controller must be an object, got []"),
        ("system=null", "config.system must be an object, got None"),
        ('barrier="builtin"', "config.barrier must be an object, got 'builtin'"),
        ("nominal=[0,0]", "config.nominal must be an object, got [0, 0]"),
        ("disturbance=0.1", "config.disturbance must be an object, got 0.1"),
    ],
)
def test_config_sections_that_are_not_objects_are_config_errors(tmp_path, capsys, item, message):
    rc = main(["check", "--config", VELOCITY_CONFIG, "--set", item, "--out", str(tmp_path)])
    assert rc == 1
    assert capsys.readouterr().err == f"config error: {message}\n"


@pytest.mark.parametrize(
    "item, message",
    [
        ("x0=[NaN,0.0,0.0]", "config.x0 must be a list of 3 numbers, got [nan, 0.0, 0.0]"),
        ("x0=[0.0,Infinity,0.0]", "config.x0 must be a list of 3 numbers, got [0.0, inf, 0.0]"),
        ("system.q_bar=NaN", "config.system.q_bar must be a number, got nan"),
        ("system.kp=1e400", "config.system.kp must be a number, got inf"),
        ("system.kp=-1e400", "config.system.kp must be a number, got -inf"),
        ("controller.eta=NaN", "config.controller.eta must be a number, got nan"),
        ("system.beta=1" + "0" * 400, "config.system.beta must be a number, got 1" + "0" * 400),
        (
            'disturbance={"kind":"bounded_random","magnitude":-0.5}',
            "disturbance magnitude must be nonnegative, got -0.5",
        ),
    ],
)
def test_non_finite_config_numbers_are_config_errors(tmp_path, capsys, item, message):
    # before any step runs: no trajectory file is written
    out = tmp_path / "out"
    rc = main(["simulate", "--config", VELOCITY_CONFIG, "--set", item, "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("value, shown", [("5", "5"), ('""', "''"), ("null", "None"), ('["a.csv"]', "['a.csv']")])
def test_output_trajectory_must_be_a_non_empty_string(tmp_path, capsys, value, shown):
    # rejected with the config, before the run: no output directory is made
    out = tmp_path / "out"
    rc = main(["simulate", "--config", VELOCITY_CONFIG, "--set", "sim.horizon=0.01",
               "--set", f"output.trajectory={value}", "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == f"config error: config.output.trajectory must be a non-empty string, got {shown}\n"
    assert not out.exists()


@pytest.mark.parametrize("name", ["sub/x.csv", ".", "..", "absolute"])
def test_output_trajectory_must_be_a_bare_file_name(tmp_path, capsys, name):
    out = tmp_path / "out"
    if name == "absolute":  # a path outside --out
        name = str(tmp_path / "x.csv")
    rc = main(["simulate", "--config", VELOCITY_CONFIG, "--set", "sim.horizon=0.01",
               "--set", f"output.trajectory={name}", "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == f"config error: config.output.trajectory must be a bare file name, got {name!r}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--set", "sim.horizon=0.01"],
        ["sweep", "--param", "eta", "--values", "0.7", "--set", "sim.horizon=0.01"],
        ["margin", "--set", "grid.subsample=100", "--set", "sim.horizon=0.1"],
    ],
)
def test_out_naming_a_file_is_a_config_error(tmp_path, capsys, argv):
    out = tmp_path / "taken"
    out.write_text("keep")
    rc = main(argv[:1] + ["--config", VELOCITY_CONFIG] + argv[1:] + ["--out", str(out)])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err == f"config error: cannot make the --out directory {out}: File exists\n"
    assert out.read_text() == "keep"


# --- check and margin grids ------------------------------------------------------

BOX_AXES = [
    {"dim": 0, "min": -2.0, "max": 4.0, "count": 8},
    {"dim": 1, "min": -1.5, "max": 3.0, "count": 25},
    {"dim": 2, "min": 0.0, "max": 6.0, "count": 10},
]
SMALL_AXES = [
    {"dim": 1, "min": -1.5, "max": 3.0, "count": 12},
    {"dim": 2, "min": 0.0, "max": 6.0, "count": 9},
]


def box(axes):
    return ["--set", "grid.kind=box", "--set", "grid.axes=" + json.dumps(axes)]


def outcome(capsys, out_dir, argv):
    """Exit code, stdout, stderr and output files of one command into out_dir."""
    shutil.rmtree(out_dir, ignore_errors=True)
    code = main(argv + ["--out", str(out_dir)])
    captured = capsys.readouterr()
    files = {p.name: p.read_bytes() for p in out_dir.iterdir()} if out_dir.exists() else {}
    return code, captured.out, captured.err, files


def unstacked(monkeypatch):
    """Make build_scenario declare no stacked evaluation, so that every grid
    state goes through the per-state body."""
    build = cli.build_scenario

    def build_scenario(*args, **kwargs):
        sc = build(*args, **kwargs)
        sc.system = replace(sc.system, evaluation=replace(sc.system.evaluation, stack=None))
        return sc

    monkeypatch.setattr(cli, "build_scenario", build_scenario)


def counting(monkeypatch, name):
    calls = []
    fn = getattr(cli, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

    monkeypatch.setattr(cli, name, counted)
    return calls


def counting_states(monkeypatch):
    """The calls of the per-state evaluation the CLI makes (simulate.point_evaluation's at)."""
    calls = []
    build = cli.point_evaluation

    def counted(*args):
        at, maps = build(*args)

        def counted_at(x):
            calls.append(1)
            return at(x)

        return counted_at, maps

    monkeypatch.setattr(cli, "point_evaluation", counted)
    return calls


GRID_CASES = {
    "tunable": box(BOX_AXES),
    "sontag": box(BOX_AXES) + ["--set", "controller.kind=sontag"],
    "bounded_input": box(BOX_AXES) + ["--set", "controller.kind=bounded_input"],
    "qp": box(SMALL_AXES) + ["--set", "controller.kind=qp"],
    "relu": box(SMALL_AXES) + ["--set", "controller.relu=true"],
    "eta_0.3": box(BOX_AXES) + ["--set", "controller.eta=0.3"],
    "small_bounded_input": box(SMALL_AXES) + ["--set", "controller.kind=bounded_input"],
    "trajectory": ["--set", "sim.horizon=2.0", "--set", "grid.subsample=10"],
    "gamma_0": box(SMALL_AXES) + ["--set", "controller.gamma=0"],
    # c_eff ~ -q2 / 2: its square overflows at |q2| >= 5e159, where Gamma takes its hypot form
    "huge_q2": box([{"dim": 1, "min": -1e160, "max": 1e160, "count": 5}, {"dim": 2, "min": 0.0, "max": 6.0, "count": 3}]),
}


@pytest.mark.parametrize("command", ["check", "margin"])
@pytest.mark.parametrize("case", list(GRID_CASES))
def test_stacked_grid_matches_the_per_state_body(tmp_path, capsys, monkeypatch, command, case):
    argv = [command, "--config", VELOCITY_CONFIG] + GRID_CASES[case]
    stacked = outcome(capsys, tmp_path / "out", argv)
    unstacked(monkeypatch)
    per_state = counting_states(monkeypatch)
    assert outcome(capsys, tmp_path / "out", argv) == stacked
    if case == "gamma_0":
        # the norm bound is rejected with the config, before any state is evaluated
        assert stacked == (1, "", "config error: config.controller.gamma must be positive, got 0\n", {})
    elif (command, case) != ("margin", "qp"):  # margin rejects the min-norm filter up front
        assert per_state


def break_stacking(sc, name):
    """Make the scenario's stacked evaluation break its contract in the map
    called name: a per-row input map or barrier gradient, or a nominal of
    the wrong shape."""
    ev = sc.system.evaluation

    def stack(xs):
        f, g, h, grad, kd = ev.stack(xs)
        if name == "input_map":
            g = np.broadcast_to(g, (len(xs),) + g.shape)
        elif name == "barrier gradient":
            grad = np.broadcast_to(grad, (len(xs),) + grad.shape)
        else:
            kd = kd[:, :1]
        return f, g, h, grad, kd

    sc.system = replace(sc.system, evaluation=replace(ev, stack=stack))
    return sc


@pytest.mark.parametrize("name", ["input_map", "barrier gradient", "nominal"])
def test_stacks_outside_the_shared_contract_are_config_errors(tmp_path, capsys, monkeypatch, name):
    build = cli.build_scenario
    monkeypatch.setattr(cli, "build_scenario", lambda *args, **kwargs: break_stacking(build(*args, **kwargs), name))
    rc = main(["check", "--config", VELOCITY_CONFIG, "--out", str(tmp_path)] + box(SMALL_AXES))
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"config error: {name} of a stack of 108 states has shape (")


def test_bounded_input_margin_stops_at_the_first_state_out_of_range(tmp_path, capsys):
    sets = GRID_CASES["bounded_input"]
    code, out, err, files = outcome(capsys, tmp_path / "out", ["margin", "--config", VELOCITY_CONFIG] + sets)
    assert (code, out, files) == (2, "", {})
    config = cli.load_config(VELOCITY_CONFIG, sets[1::2])
    sc = cli.build_scenario(config)
    for x in cli._grid_states(config, sc, None):
        try:
            evaluate_controller(sc.spec, evaluate_constraint(sc.system, sc.barrier, x), x)
        except CBFControlError as exc:
            assert err == f"error: {exc}\n"
            break
    else:
        pytest.fail("no grid state is out of range")


@pytest.mark.parametrize("command, counted", [("check", "point_evaluation"), ("margin", "evaluate_controller")])
def test_unflagged_grid_makes_no_per_state_evaluation(tmp_path, monkeypatch, command, counted):
    calls = counting_states(monkeypatch) if counted == "point_evaluation" else counting(monkeypatch, counted)
    rc = main([command, "--config", VELOCITY_CONFIG, "--out", str(tmp_path)] + box(BOX_AXES))
    assert rc == (3 if command == "check" else 0)  # compatibility with gamma = 2.3 fails on part of the box
    assert calls == []


@pytest.mark.parametrize("case", [case for case in GRID_CASES if case != "gamma_0"])
def test_check_evaluates_per_state_only_where_gamma_leaves_its_direct_form(tmp_path, monkeypatch, case):
    # the stack decides every state whose Gamma is in its direct form, the
    # flagged ones of the bounded-input grid included; on the huge_q2 grid
    # the 4 x 3 states with |q2| >= 5e159 are left to the per-state body
    # (test_stacked_grid_matches_the_per_state_body checks the output)
    calls = counting(monkeypatch, "_check_state")
    assert main(["check", "--config", VELOCITY_CONFIG, "--out", str(tmp_path)] + GRID_CASES[case]) in (0, 3)
    assert len(calls) == (12 if case == "huge_q2" else 0)


@pytest.mark.parametrize(
    "config, n_states",
    [
        (dict(single_integrator_config(), grid={"kind": "box", "axes": [{"dim": 0, "min": -3.0, "max": 0.9, "count": 12}]}), 12),
        (dict(json.loads((CONFIG_DIR / "twolink_torque.json").read_text()),
              grid={"kind": "box", "axes": [{"dim": 1, "min": -1.0, "max": 1.0, "count": 4}]}), 4),
    ],
)
def test_plants_without_stacking_maps_check_each_state(tmp_path, monkeypatch, config, n_states):
    calls = counting(monkeypatch, "_check_state")
    assert main(["check", "--config", str(write_config(tmp_path, "c.json", config)), "--out", str(tmp_path)]) == 0
    assert len(calls) == n_states


def test_torque_check_evaluates_the_plant_once_per_state(tmp_path, capsys, monkeypatch):
    # the torque plant declares its one-call evaluation: a check state costs
    # one plant evaluation and no call of the separate maps
    config = dict(
        json.loads((CONFIG_DIR / "twolink_torque.json").read_text()),
        grid={"kind": "box", "axes": [{"dim": 1, "min": -1.0, "max": 1.0, "count": 4},
                                      {"dim": 2, "min": 1.0, "max": 3.0, "count": 3}]},
    )
    argv = ["check", "--config", str(write_config(tmp_path, "c.json", config))]
    want = outcome(capsys, tmp_path / "out", argv)
    calls = {}
    build = cli.build_scenario

    def build_scenario(*args, **kwargs):
        sc = build(*args, **kwargs)
        sc.system, sc.barrier, sc.spec = counted_plant(sc, calls)
        return sc

    monkeypatch.setattr(cli, "build_scenario", build_scenario)
    assert outcome(capsys, tmp_path / "out", argv) == want
    assert calls == {"evaluation": 12}


@pytest.mark.parametrize(
    "axis, message",
    [
        ({"dim": 0, "min": 0.0, "max": 1.0}, "missing config key config.grid.axes[0].count"),
        ({"dim": 7, "min": 0.0, "max": 1.0, "count": 2}, "config.grid.axes[0].dim must be an integer in [0, 3), got 7"),
        ({"dim": 1.5, "min": 0.0, "max": 1.0, "count": 2}, "config.grid.axes[0].dim must be an integer in [0, 3), got 1.5"),
        ({"dim": -1, "min": 0.0, "max": 1.0, "count": 2}, "config.grid.axes[0].dim must be an integer in [0, 3), got -1"),
        ({"dim": 0, "min": 0.0, "max": 1.0, "count": -2}, "config.grid.axes[0].count must be a positive integer, got -2"),
        ({"dim": 0, "min": 0.0, "max": 1.0, "count": True}, "config.grid.axes[0].count must be a positive integer, got True"),
        ({"dim": 0, "min": "a", "max": 1.0, "count": 2}, "config.grid.axes[0].min must be a number, got 'a'"),
    ],
)
@pytest.mark.parametrize("command", ["check", "margin"])
def test_bad_grid_axes_are_config_errors(tmp_path, capsys, command, axis, message):
    rc = main([command, "--config", VELOCITY_CONFIG, "--out", str(tmp_path)] + box([axis]))
    assert rc == 1
    assert capsys.readouterr().err == f"config error: {message}\n"


@pytest.mark.parametrize("counts", [[10_000_000_000_000], [1001, 1000], [101, 100, 100]])
@pytest.mark.parametrize("command", ["check", "margin"])
def test_box_grid_over_the_state_bound_is_a_config_error(tmp_path, capsys, monkeypatch, command, counts):
    # the product of the counts is checked before any grid array is formed
    def no_grid(*args, **kwargs):
        raise AssertionError("grid formed")

    monkeypatch.setattr(cli.np, "linspace", no_grid)
    monkeypatch.setattr(cli.np, "meshgrid", no_grid)
    axes = [{"dim": i, "min": 0.0, "max": 1.0, "count": count} for i, count in enumerate(counts)]
    rc = main([command, "--config", VELOCITY_CONFIG, "--out", str(tmp_path)] + box(axes))
    assert rc == 1
    assert capsys.readouterr().err == (
        f"config error: config.grid.axes hold {math.prod(counts)} states (the product of their counts), "
        f"more than {cli.MAX_GRID_STATES}\n"
    )


def test_bad_subsample_is_a_config_error(tmp_path, capsys):
    rc = main(["check", "--config", VELOCITY_CONFIG, "--set", "grid.subsample=0", "--out", str(tmp_path)])
    assert rc == 1
    assert capsys.readouterr().err == "config error: config.grid.subsample must be a positive integer, got 0\n"


@pytest.mark.parametrize("command", ["check", "margin"])
@pytest.mark.parametrize("eta, covered", [(0.45, 79), (0.4, 0)])
def test_failed_trajectory_probe_is_reported(tmp_path, capsys, command, eta, covered):
    # the probe leaves the kappa range at step 78 (eta 0.45) or at x0 (eta 0.4)
    rc = main([command, "--config", VELOCITY_CONFIG, "--set", f"controller.eta={eta}",
               "--set", "grid.subsample=100", "--out", str(tmp_path)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        f"error: trajectory probe failed after recording {covered} states: KappaRangeError at step {max(covered - 1, 0)}: "
    )


def test_check_lists_the_first_20_failing_states_rounded(tmp_path, capsys):
    code, out, err, _ = outcome(capsys, tmp_path / "out", ["check", "--config", VELOCITY_CONFIG] + GRID_CASES["bounded_input"])
    assert code == 3
    lines = err.splitlines()
    assert lines[0] == "200 of 2000 grid points violate"
    violations = [int(line.split()[0]) for line in out.splitlines()[1:-1]]
    config = cli.load_config(VELOCITY_CONFIG, GRID_CASES["bounded_input"][1::2])
    states = cli._grid_states(config, cli.build_scenario(config), None)
    assert lines[1:] == [
        f"  point {i}: x = [{', '.join(str(round(float(v), 5)) for v in states[i])}]" for i in violations[:20]
    ]
    assert lines[1] == "  point 121: x = [-2.0, 0.75, 0.66667]"


# --- the parser -----------------------------------------------------------------


def test_main_builds_one_parser_and_arguments_do_not_leak(tmp_path, capsys):
    # two calls in one process give what each gives alone, on a new parser
    config = dict(json.loads(Path(VELOCITY_CONFIG).read_text()), grid={"kind": "trajectory", "subsample": 100})
    config["sim"]["horizon"] = 0.5
    plain = ["margin", "--config", str(write_config(tmp_path, "short.json", config))]
    with_sets = ["check", "--config", VELOCITY_CONFIG] + GRID_CASES["small_bounded_input"] + ["--seed", "3"]
    alone = {}
    for name, argv in (("plain", plain), ("with_sets", with_sets)):
        cli._parser.cache_clear()
        alone[name] = outcome(capsys, tmp_path / name, argv)
    assert alone["with_sets"][0] == 3 and alone["plain"][0] == 0
    for order in (("with_sets", "plain"), ("plain", "with_sets")):
        cli._parser.cache_clear()
        for name in order:
            argv = plain if name == "plain" else with_sets
            assert outcome(capsys, tmp_path / name, argv) == alone[name]
        assert cli._parser.cache_info().misses == 1  # one parser built for both calls
    assert cli.build_parser() is not cli.build_parser()


def test_main_runs_the_command_bound_at_call_time(tmp_path, monkeypatch):
    argv = ["check", "--config", VELOCITY_CONFIG, "--out", str(tmp_path)] + GRID_CASES["qp"]
    assert main(argv) == 3  # the parser exists from here on
    seen = []
    monkeypatch.setattr(cli, "cmd_check", lambda args: seen.append(args.set) or 42)
    assert main(argv) == 42
    assert seen == [GRID_CASES["qp"][1::2]]


# --- CSV writer -----------------------------------------------------------------


def test_trajectory_csv_matches_per_value_formatting(tmp_path):
    special = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1.0 / 3.0, 0.1, -2.5e300]
    rows = len(special)
    col = np.array(special)
    traj = Trajectory(
        times=np.arange(rows) * 1e-3,
        states=np.column_stack([col, col[::-1], -col]),
        inputs=np.column_stack([col[::-1], col]),
        h_values=col,
        residuals=col[::-1],
        kappas=np.full(rows, math.nan),
        margins=col,
        correction_norms=col,
    )
    path = tmp_path / "t.csv"
    write_trajectory_csv(path, traj, 3, 2)
    expected = ["t,x0,x1,x2,u0,u1,h,residual,kappa,margin"]
    for i in range(rows):
        values = [traj.times[i], *traj.states[i], *traj.inputs[i], traj.h_values[i],
                  traj.residuals[i], traj.kappas[i], traj.margins[i]]
        expected.append(",".join(_fmt(v) for v in values))
    assert path.read_bytes() == ("\n".join(expected) + "\n").encode()
    cells = set(",".join(expected[1:]).split(","))
    assert {"nan", "inf", "-inf", "-0", "4.9406564584124654e-324", "0.33333333333333331"} <= cells

    empty = Trajectory(*(np.asarray([]) for _ in range(8)), failure="x", failure_step=0)
    write_trajectory_csv(path, empty, 3, 2)
    assert path.read_bytes() == (expected[0] + "\n").encode()


# --- the benchmark's tracer -----------------------------------------------------


def test_sweeps_call_simulate_run_under_the_benchmark_tracer(tmp_path):
    # perfbench's sweep metrics read the simulate.run spans under each
    # cli.cmd_sweep; a sweep that advanced its members without calling
    # simulate.run would leave them empty
    path = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
    module_spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(spans)

    sweeps = [
        ["--param", "eta", "--values", "0.5,1.0"],
        ["--param", "gamma", "--values", "0.5,3.0", "--set", "controller.kind=bounded_input"],
        ["--param", "sigma", "--values", "0.2,0.5", "--zoh"],
    ]
    with spans.installed(spans.Tracer()) as tracer:
        for i, argv in enumerate(sweeps):
            tracer.next_run()
            rc = main(
                ["sweep", "--config", VELOCITY_CONFIG, "--set", "sim.horizon=0.05",
                 "--out", str(tmp_path / str(i))] + argv
            )
            assert rc == (2 if "gamma" in argv else 0)
    spans_ = tracer.arrays()
    names = np.array(tracer.names)[spans_["name_id"]]
    sweep_runs = set(spans_["run_id"][names == "cli.cmd_sweep"].tolist())
    assert sweep_runs == {1, 2, 3}
    for run_id in sweep_runs:
        assert np.any((names == "simulate.run") & (spans_["run_id"] == run_id)), run_id
