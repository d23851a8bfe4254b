import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest

from cbfctrl.cli import _fmt, main, write_trajectory_csv
from cbfctrl.simulate import Trajectory

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
    ],
)
def test_config_value_types_are_config_errors(tmp_path, capsys, argv, message):
    rc = main(argv[:1] + ["--config", VELOCITY_CONFIG] + argv[1:] + ["--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {message}, got ")
    assert "Traceback" not in err


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
