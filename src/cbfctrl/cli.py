"""Command-line front end: declarative scenario configs, sweeps, checks.

Subcommands:
  simulate   run one closed-loop scenario, write the trajectory CSV
  sweep      run the scenario over a grid of one parameter, write a summary
  check      compatibility and tunable-range membership over a state grid
  margin     sample the safety margin over a state grid

Configs are JSON with a versioned ``schema`` key; unknown keys, and keys
that the configured scenario does not read, are rejected.  CSV output is locale-independent, 17 significant digits, LF
line endings, so identical runs produce byte-identical files.

check and margin evaluate a grid as one stack where the plant declares a
stacked evaluation (see simulate.evaluate_stack).  check takes each state's range
verdict from it (FormulaBatch.range_verdict) and evaluates per state only
where Gamma leaves its direct form; margin evaluates per state every state
that the formula kernel flags.  On other plants every state is evaluated
per state.  The output is the per-state evaluation's either way.

A box grid holds at most MAX_GRID_STATES (10^6) states, the product of
its axis counts; a larger one is a config error.

Exit codes: 0 success, 1 config error, 2 infeasibility or blow-up during
simulation, 3 check violations.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import manipulator, systems
from .analysis import DisturbanceSpec, margin_of, margins
from .core import (
    EPS_D,
    CBFControlError,
    ConfigurationError,
    DomainError,
    Gamma,
    KappaRangeError,
)
from .formulas import (
    ControllerSpec,
    FormulaBatch,
    check_kappa_range,
    controller_spec,
    evaluate_controller,
    filter_offset,
    resolve_kappa,
)
from .simulate import SimConfig, Stage, Trajectory, _batch_members, evaluate_stack, point_evaluation, run

CONFIG_ERROR = 1
RUN_ERROR = 2
CHECK_ERROR = 3

_SCHEMA_VERSION = 1

# The system keys each system reads, grouped by the constructor that takes
# them as keyword arguments (see build_scenario); a system key that the named
# system does not read is a config error.
_VELOCITY_ARGS = {"scenario": ("q_bar", "beta", "kp", "x0_q")}
_SYSTEM_ARGS = {
    "single_integrator": {"system": ("dim",)},
    "double_integrator": {},
    "two_link": _VELOCITY_ARGS,  # alias for the velocity-level scenario
    "two_link_velocity": _VELOCITY_ARGS,
    "two_link_torque": {"cfg": ("mu", "kp", "kp_bar", "alpha_b"), "params": ("m1", "m2", "l1", "l2", "gravity")},
}
# The most states a box grid may hold (the product of its axis counts);
# a larger grid is a config error, raised before any state is formed.
MAX_GRID_STATES = 10**6


def _reject_unknown(section: dict, allowed: dict, path: str) -> None:
    for key in section:
        if key not in allowed:
            raise ConfigurationError(f"unknown config key {path}.{key}")


def _require(section: dict, key: str, path: str):
    if key not in section:
        raise ConfigurationError(f"missing config key {path}.{key}")
    return section[key]


def _object(value, path: str, allowed: dict) -> dict:
    """The config section value at path, an object with keys in allowed; a config error otherwise."""
    if not isinstance(value, dict):
        raise ConfigurationError(f"{path} must be an object, got {value!r}")
    _reject_unknown(value, allowed, path)
    return value


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)  # JSON true is a bool


def _is_number(value) -> bool:
    """A finite number: JSON's NaN, Infinity and literals that overflow a float are not."""
    if _is_int(value):
        return abs(value) <= sys.float_info.max
    return isinstance(value, float) and math.isfinite(value)


_NUMBER = (_is_number, "a number")
_INT = (_is_int, "an integer")
_SEED = (lambda v: _is_int(v) and v >= 0, "a nonnegative integer")  # numpy seeds are nonnegative
# Each config section's keys, each mapped to its type check, or to None
# where the key's reader checks it; validation rejects any other key.
_TOP_KEYS = {
    "schema": None, "seed": _SEED, "system": None, "barrier": None, "controller": None, "sim": None,
    "x0": None, "nominal": None, "disturbance": None, "grid": None, "output": None,
}
_SYSTEM_KEYS = {
    "name": None,
    **dict.fromkeys((key for args in _SYSTEM_ARGS.values() for keys in args.values() for key in keys), _NUMBER),
    "dim": _INT,
    "x0_q": None,
}
_BARRIER_KEYS = {"kind": None, "normal": None, "offset": _NUMBER, "beta": _NUMBER}  # builtin reads only its kind
_CONTROLLER_KEYS = {
    "kind": None, "eta": _NUMBER, "sigma": _NUMBER, "gamma": _NUMBER,
    "relu": (lambda v: isinstance(v, bool), "true or false"),
}
_SIM_KEYS = dict.fromkeys(field.name for field in fields(SimConfig))  # SimConfig checks each
_NOMINAL_KEYS = dict.fromkeys(("kind", "value"))
_DISTURBANCE_KEYS = {
    "kind": None, "value": None, "amplitude": None, "freq": _NUMBER, "magnitude": _NUMBER, "seed": _SEED,
}
_GRID_KEYS = dict.fromkeys(("kind", "base", "axes", "subsample"))
_AXIS_KEYS = dict.fromkeys(("dim", "min", "max", "count"))
_OUTPUT_KEYS = dict.fromkeys(("trajectory",))


def _check_scalar_types(section: dict, keys: dict, path: str) -> None:
    """A config error at the first key of keys, in their order, whose value in section fails its type check."""
    for key, check in keys.items():
        if check is not None and key in section:
            is_type, kind = check
            if not is_type(section[key]):
                raise ConfigurationError(f"{path}.{key} must be {kind}, got {section[key]!r}")


def _config_array(value, key: str, length: int) -> np.ndarray:
    """The config array at key, a list of length numbers, as floats; a config error otherwise."""
    if not (isinstance(value, list) and len(value) == length and all(map(_is_number, value))):
        numbers = "number" if length == 1 else "numbers"
        raise ConfigurationError(f"config.{key} must be a list of {length} {numbers}, got {value!r}")
    return np.array(value, dtype=float)


def load_config(path: str | Path, overrides: list[str] | None = None) -> dict:
    """Load, apply --set overrides, and validate a scenario config."""
    try:
        with open(path) as fh:
            config = json.load(fh)
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config {path} is not valid JSON: {exc}") from exc
    for item in overrides or []:
        if "=" not in item:
            raise ConfigurationError(f"--set expects key=value, got {item!r}")
        key, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = config
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigurationError(f"--set path {key!r} crosses a non-section key")
        node[parts[-1]] = value
    validate_config(config)
    return config


def validate_config(config: dict) -> None:
    if not isinstance(config, dict):
        raise ConfigurationError("config root must be an object")
    _reject_unknown(config, _TOP_KEYS, "config")
    if _require(config, "schema", "config") != _SCHEMA_VERSION:
        raise ConfigurationError(
            f"unsupported schema version {config['schema']!r}, expected {_SCHEMA_VERSION}"
        )
    _check_scalar_types(config, _TOP_KEYS, "config")
    system = _object(_require(config, "system", "config"), "config.system", _SYSTEM_KEYS)
    _check_scalar_types(system, _SYSTEM_KEYS, "config.system")
    name = _require(system, "name", "config.system")
    if not (isinstance(name, str) and name in _SYSTEM_ARGS):
        raise ConfigurationError(f"unknown system name {name!r}")
    barrier = _object(_require(config, "barrier", "config"), "config.barrier", _BARRIER_KEYS)
    _check_scalar_types(barrier, _BARRIER_KEYS, "config.barrier")
    kind = _require(barrier, "kind", "config.barrier")
    if kind not in ("linear", "builtin"):
        raise ConfigurationError(f"unknown barrier kind {kind!r}")
    if name.startswith("two_link"):
        if kind != "builtin":
            raise ConfigurationError("two_link scenarios define their own barrier; use kind 'builtin'")
    elif kind != "linear":
        raise ConfigurationError(f"system {name!r} needs a linear barrier section")
    controller = _object(_require(config, "controller", "config"), "config.controller", _CONTROLLER_KEYS)
    ckind = _require(controller, "kind", "config.controller")
    if not isinstance(ckind, str):
        raise ConfigurationError(f"config.controller.kind must be a string, got {ckind!r}")
    if ckind not in ("qp", "sontag", "tunable", "bounded_input"):
        raise ConfigurationError(f"unknown controller kind {ckind!r}")
    _check_scalar_types(controller, _CONTROLLER_KEYS, "config.controller")
    if ckind in ("tunable", "bounded_input") and "eta" not in controller:
        raise ConfigurationError("missing config key config.controller.eta")
    if ckind != "qp" and "sigma" not in controller:
        raise ConfigurationError("missing config key config.controller.sigma")
    if ckind == "bounded_input" and "gamma" not in controller:
        raise ConfigurationError("missing config key config.controller.gamma")
    _object(_require(config, "sim", "config"), "config.sim", _SIM_KEYS)
    if "nominal" in config:
        nominal = _object(config["nominal"], "config.nominal", _NOMINAL_KEYS)
        if nominal.get("kind") not in ("zero", "constant"):
            raise ConfigurationError("config.nominal.kind must be 'zero' or 'constant'")
    if "disturbance" in config:
        dist = _object(config["disturbance"], "config.disturbance", _DISTURBANCE_KEYS)
        if dist.get("kind") not in ("constant", "sinusoidal", "bounded_random"):
            raise ConfigurationError("unknown disturbance kind")
        _check_scalar_types(dist, _DISTURBANCE_KEYS, "config.disturbance")
    if "grid" in config:
        grid = _object(config["grid"], "config.grid", _GRID_KEYS)
        if grid.get("kind") not in ("box", "trajectory"):
            raise ConfigurationError("config.grid.kind must be 'box' or 'trajectory'")
        axes = grid.get("axes", [])
        if not isinstance(axes, list):
            raise ConfigurationError(f"config.grid.axes must be a list, got {axes!r}")
        for i, axis in enumerate(axes):
            _object(axis, f"config.grid.axes[{i}]", _AXIS_KEYS)
    if "output" in config:
        output = _object(config["output"], "config.output", _OUTPUT_KEYS)
        name = output.get("trajectory", "trajectory.csv")
        if not (isinstance(name, str) and name):
            raise ConfigurationError(f"config.output.trajectory must be a non-empty string, got {name!r}")
    _reject_unread(config)


def _reject_unread(config: dict) -> None:
    """A config error at a key that the configured scenario would not read."""
    name = config["system"]["name"]
    read = {"name"}.union(*_SYSTEM_ARGS[name].values())
    for key in config["system"]:
        if key not in read:
            raise ConfigurationError(f"system {name!r} does not read config.system.{key}")
    if config["barrier"]["kind"] == "builtin":
        for key in config["barrier"]:
            if key != "kind":
                raise ConfigurationError(f"the builtin barrier does not read config.barrier.{key}")
    if name.startswith("two_link") and "nominal" in config:
        raise ConfigurationError(f"system {name!r} does not read config.nominal: it tracks its own reference")
    if name == "two_link_torque" and "relu" in config["controller"]:
        raise ConfigurationError("system 'two_link_torque' does not read config.controller.relu")


class Scenario:
    """Everything needed to run and inspect one configured closed loop."""

    def __init__(self, system, barrier, spec, x0, sim_cfg, disturbance, config):
        self.system = system
        self.barrier = barrier
        self.spec = spec
        self.x0 = x0
        self.sim_cfg = sim_cfg
        self.disturbance = disturbance
        self.config = config


def _given(section: dict, keys) -> dict:
    """The entries of section at those of keys that it holds."""
    return {key: section[key] for key in keys if key in section}


def build_scenario(config: dict, zoh: bool = False, seed: int | None = None) -> Scenario:
    """Assemble the runnable pieces from a validated config."""
    sysconf = config["system"]
    name = sysconf["name"]
    controller = config["controller"]
    sim = dict(config["sim"])
    if zoh:
        sim["zoh"] = True
    sim_cfg = SimConfig(**sim)

    # Only the keys present are passed: every default is the constructor's.
    args = {group: _given(sysconf, keys) for group, keys in _SYSTEM_ARGS[name].items()}
    if name in ("two_link", "two_link_velocity"):
        if "x0_q" in args["scenario"]:
            args["scenario"]["x0_q"] = tuple(_config_array(sysconf["x0_q"], "system.x0_q", 2))
        sc = manipulator.velocity_level_scenario(**controller, **args["scenario"])
        system, barrier, spec, x0 = sc.system, sc.barrier, sc.spec, sc.x0
    elif name == "two_link_torque":
        if controller["kind"] == "bounded_input":
            raise ConfigurationError("two_link_torque supports qp, sontag, and tunable kinds")
        sc = manipulator.torque_level_scenario(
            params=manipulator.ManipulatorParams(**args["params"]),
            cfg=manipulator.BacksteppingConfig(**args["cfg"]),
            **_given(controller, ("kind", "eta", "sigma")),  # gamma is read by check alone
        )
        system, barrier, spec, x0 = sc.system, sc.barrier, sc.spec, sc.x0
    else:
        if name == "single_integrator":
            system = systems.single_integrator(**args["system"])
        else:
            system = systems.double_integrator()
        bar = config["barrier"]
        normal = _config_array(_require(bar, "normal", "config.barrier"), "barrier.normal", system.state_dim)
        barrier = systems.linear_barrier(normal, _require(bar, "offset", "config.barrier"), **_given(bar, ("beta",)))
        spec = controller_spec(**controller)
        if "nominal" in config:
            nom = config["nominal"]
            if nom["kind"] == "zero":
                kd = np.zeros(system.input_dim)
            else:
                kd = _config_array(_require(nom, "value", "config.nominal"), "nominal.value", system.input_dim)
            spec = ControllerSpec.safety_filter(spec, lambda x, kd=kd: kd)
        x0 = _require(config, "x0", "config")  # read below
    if "x0" in config:
        x0 = _config_array(config["x0"], "x0", system.state_dim)

    disturbance = None
    if "disturbance" in config:
        dist = config["disturbance"]
        path = "config.disturbance"
        if dist["kind"] == "constant":
            value = _config_array(_require(dist, "value", path), "disturbance.value", system.input_dim)
            disturbance = DisturbanceSpec.constant(value)
        elif dist["kind"] == "sinusoidal":
            amplitude = _config_array(_require(dist, "amplitude", path), "disturbance.amplitude", system.input_dim)
            disturbance = DisturbanceSpec.sinusoidal(amplitude, _require(dist, "freq", path))
        else:
            seed = config.get("seed", 0) if seed is None else seed
            disturbance = DisturbanceSpec.bounded_random(_require(dist, "magnitude", path), dist.get("seed", seed))
    return Scenario(system, barrier, spec, x0, sim_cfg, disturbance, config)


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def write_trajectory_csv(path: Path, traj: Trajectory, n: int, m: int) -> None:
    header = (
        ["t"]
        + [f"x{i}" for i in range(n)]
        + [f"u{j}" for j in range(m)]
        + ["h", "residual", "kappa", "margin"]
    )
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        # One format per row, each value as _fmt writes it.
        row = ",".join(["%.17g"] * len(header)) + "\n"
        table = np.column_stack(
            (traj.times, traj.states, traj.inputs, traj.h_values, traj.residuals, traj.kappas, traj.margins)
        )
        fh.write("".join([row % tuple(values) for values in table.tolist()]))


def cmd_simulate(args) -> int:
    config = load_config(args.config, args.set)
    scenario = build_scenario(config, zoh=args.zoh, seed=args.seed)
    if args.strict_range:  # evaluate the controller once at x0 so range violations fail fast
        try:
            at, _ = point_evaluation(scenario.system, scenario.barrier, scenario.spec)
            _, _, _, con, kd = at(scenario.x0)
            evaluate_controller(scenario.spec, con, scenario.x0, kd)
        except CBFControlError as exc:
            print(f"strict-range precheck failed at x0: {exc}", file=sys.stderr)
            return CONFIG_ERROR
    traj = run(
        scenario.system,
        scenario.spec,
        scenario.barrier,
        scenario.x0,
        scenario.sim_cfg,
        scenario.disturbance,
    )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    out_name = config.get("output", {}).get("trajectory", "trajectory.csv")
    out_path = out_dir / out_name
    write_trajectory_csv(
        out_path, traj, scenario.system.state_dim, scenario.system.input_dim
    )
    if traj.failure is not None:
        print(f"run failed: {traj.failure}", file=sys.stderr)
        print(f"wrote {len(traj)} rows to {out_path}")
        return RUN_ERROR
    print(
        f"wrote {len(traj)} rows to {out_path} "
        f"(min h = {_fmt(traj.min_h())}, min residual = {_fmt(float(np.min(traj.residuals)))})"
    )
    return 0


def _summary_stats(traj: Trajectory, dt_record: float) -> tuple[float, float, float]:
    max_input = float(np.max(traj.correction_norms)) if len(traj) else math.nan
    if len(traj) >= 3:
        d2 = np.abs(np.diff(traj.inputs, n=2, axis=0))
        max_jump = float(np.max(d2)) / dt_record
    else:
        max_jump = math.nan
    finite = traj.margins[np.isfinite(traj.margins)]
    margin_min = float(np.min(finite)) if finite.size else math.nan
    return max_input, max_jump, margin_min


def cmd_sweep(args) -> int:
    config = load_config(args.config, args.set)
    param = {"eta": "controller.eta", "sigma": "controller.sigma", "gamma": "controller.gamma"}.get(
        args.param, args.param
    )
    try:
        values = json.loads(f"[{args.values}]")  # the items of one JSON array, so a vector is one value
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"cannot parse --values: {exc}") from exc
    if not values:
        raise ConfigurationError("--values is empty")
    node = config
    for part in param.split(".")[:-1]:
        if part not in node:
            raise ConfigurationError(f"swept parameter {args.param!r} does not exist in config")
        node = node[part]
    leaf = param.split(".")[-1]
    if leaf not in node:
        raise ConfigurationError(f"swept parameter {args.param!r} does not exist in config")

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    scenarios = []
    for value in values:
        node[leaf] = value
        validate_config(config)
        scenarios.append(build_scenario(config, zoh=args.zoh, seed=args.seed))

    if param.startswith("controller.") and config["system"]["name"] != "two_link_torque":
        # Only the formula differs, so the members share the first one's
        # plant and nominal and advance together where their formulas allow.
        first = scenarios[0]
        specs = [replace(sc.spec, nominal=first.spec.nominal) for sc in scenarios]
        trajs = run(first.system, specs, first.barrier, first.x0, first.sim_cfg, first.disturbance)
    else:
        # Any other key, or the torque level (whose plant embeds k0 and so
        # the formula), changes the plant: each value runs on its own.
        trajs = [
            run(sc.system, sc.spec, sc.barrier, sc.x0, sc.sim_cfg, sc.disturbance)
            for sc in scenarios
        ]

    any_failed = False
    rows = []
    for value, scenario, traj in zip(values, scenarios, trajs):
        if isinstance(value, (list, bool)):  # a swept vector or boolean: its JSON, with no spaces
            value = json.dumps(value, separators=(",", ":"))
        write_trajectory_csv(
            out_dir / f"{args.param}_{value}.csv",
            traj,
            scenario.system.state_dim,
            scenario.system.input_dim,
        )
        dt_record = scenario.sim_cfg.dt * scenario.sim_cfg.record_every
        max_input, max_jump, margin_min = _summary_stats(traj, dt_record)
        min_h = traj.min_h()
        status = "ok" if traj.ok else f"failed step {traj.failure_step}"
        if not traj.ok:
            any_failed = True
            print(f"{args.param}={value}: {traj.failure}", file=sys.stderr)
        rows.append((value, min_h, max_input, max_jump, margin_min, status))

    summary = out_dir / "summary.csv"
    with open(summary, "w", newline="\n") as fh:
        fh.write(f"{args.param},min_h,max_input_norm,max_deriv_jump,margin_min,status\n")
        for value, min_h, max_input, max_jump, margin_min, status in rows:
            cell = _fmt(value) if isinstance(value, (int, float)) else str(value)  # e.g. a swept kind
            if "," in cell or '"' in cell:  # e.g. a swept vector's JSON: one quoted field
                cell = '"' + cell.replace('"', '""') + '"'
            fh.write(
                f"{cell},{_fmt(min_h)},{_fmt(max_input)},"
                f"{_fmt(max_jump)},{_fmt(margin_min)},{status}\n"
            )
    print(f"wrote {len(rows)} summary rows to {summary}")
    return RUN_ERROR if any_failed else 0


def _grid_states(config: dict, scenario: Scenario, seed: int | None) -> np.ndarray:
    """The grid's states as one (N, n) array, in the order check and margin index them."""
    grid = config.get("grid")
    if grid is None:
        raise ConfigurationError("missing config key config.grid")
    n = scenario.system.state_dim
    if grid["kind"] == "trajectory":
        sub = grid.get("subsample", 1)
        if not (_is_int(sub) and sub > 0):
            raise ConfigurationError(f"config.grid.subsample must be a positive integer, got {sub!r}")
        # Probe along the closed loop of the unconstrained analog so a
        # bounded-input range violation cannot abort the grid itself.
        probe_config = json.loads(json.dumps(config))
        if probe_config["controller"]["kind"] == "bounded_input":
            probe_config["controller"]["kind"] = "tunable"
            del probe_config["controller"]["gamma"]
        probe = build_scenario(probe_config, seed=seed)
        traj = run(
            probe.system, probe.spec, probe.barrier, probe.x0, probe.sim_cfg, probe.disturbance
        )
        if traj.failure is not None:
            raise CBFControlError(
                f"trajectory probe failed after recording {len(traj)} states: {traj.failure}"
            )
        return traj.states[::sub]
    base = _config_array(grid["base"], "grid.base", n) if "base" in grid else scenario.x0
    axes = grid.get("axes", [])
    for i, axis in enumerate(axes):
        path = f"config.grid.axes[{i}]"
        dim = _require(axis, "dim", path)
        if not (_is_int(dim) and 0 <= dim < n):
            raise ConfigurationError(f"{path}.dim must be an integer in [0, {n}), got {dim!r}")
        count = _require(axis, "count", path)
        if not (_is_int(count) and count > 0):
            raise ConfigurationError(f"{path}.count must be a positive integer, got {count!r}")
        for key in ("min", "max"):
            if not _is_number(_require(axis, key, path)):
                raise ConfigurationError(f"{path}.{key} must be a number, got {axis[key]!r}")
    if not axes:
        return np.empty((0, n))
    total = math.prod(axis["count"] for axis in axes)
    if total > MAX_GRID_STATES:
        raise ConfigurationError(
            f"config.grid.axes hold {total} states (the product of their counts), more than {MAX_GRID_STATES}"
        )
    grids = [np.linspace(a["min"], a["max"], a["count"]) for a in axes]
    combos = np.stack(np.meshgrid(*grids, indexing="ij"), axis=-1).reshape(-1, len(axes))
    states = np.tile(base, (len(combos), 1))
    for j, axis in enumerate(axes):
        states[:, axis["dim"]] = combos[:, j]  # of two axes on one dim, the later wins
    return states


def _stacked_grid(scenario: Scenario, states: np.ndarray) -> tuple[FormulaBatch, Stage, np.ndarray] | None:
    """The grid's stacked evaluation: the formula kernel, its stage and the
    states that the kernel flags; None where the scenario does not stack.

    Where the scenario's plant and formula stack (the sweep's rule, see
    simulate._batch_members), every state is evaluated in one pass and every
    unflagged state's values equal the per-state body's, bit for bit.
    """
    spec = scenario.spec
    if not _batch_members(scenario.system, scenario.barrier, [spec]):
        return None
    kernel = FormulaBatch([spec])
    with np.errstate(all="ignore"):
        stage, flagged = evaluate_stack(
            scenario.system, scenario.barrier, spec.nominal, states, kernel, check_shapes=True
        )
    return kernel, stage, flagged


def _check_state(scenario: Scenario, at, x: np.ndarray) -> tuple[float, float, float, bool]:
    """(c_eff, ||d||^2, kappa, range ok) at x, evaluated by at (see
    simulate.point_evaluation); kappa is NaN where there is none.

    A state where the controller is infeasible (||d||^2 <= EPS_D with
    c_eff <= 0) fails whatever the kind.
    """
    _, _, _, con, kd = at(x)
    spec = scenario.spec
    c_eff, _ = filter_offset(spec, con, x, kd)
    d2 = con.d_norm_sq
    kappa = math.nan
    range_ok = d2 > EPS_D or c_eff > 0.0
    if spec.kind != "qp":
        gam = Gamma(c_eff, d2, spec.shaping)
        try:
            kappa = resolve_kappa(spec, c_eff, d2, gam, x)
            check_kappa_range(kappa, c_eff, d2, gam, spec.relu, spec.gamma)
        except (DomainError, KappaRangeError):
            range_ok = False
    return c_eff, d2, kappa, range_ok


def cmd_check(args) -> int:
    config = load_config(args.config, args.set)
    scenario = build_scenario(config, seed=args.seed)
    states = _grid_states(config, scenario, args.seed)
    n_states = len(states)
    if not n_states:
        print("check grid is empty", file=sys.stderr)
        return CONFIG_ERROR
    gamma = config["controller"].get("gamma")
    if gamma is not None and not gamma > 0.0:
        raise ConfigurationError(f"gamma must be positive, got {gamma}")

    stacked = _stacked_grid(scenario, states)
    if stacked is None:
        c_eff, d2, kappa = np.full((3, n_states), math.nan)
        range_ok = np.ones(n_states, dtype=bool)
        decided = np.zeros(n_states, dtype=bool)
    else:
        kernel, stage, _ = stacked
        with np.errstate(all="ignore"):
            kappa, range_ok, decided = kernel.range_verdict(stage.c_bar, stage.d2, stage.kappa, stage.gam)
        c_eff, d2, kappa = np.array(np.broadcast_arrays(stage.c_bar, stage.d2, kappa))
    at, _ = point_evaluation(scenario.system, scenario.barrier, scenario.spec)
    # A decided state's values are the per-state body's, which raises at
    # none of them; the rest go through it in index order, so that the first
    # state to raise is the one a per-state loop meets.
    for i in np.flatnonzero(~decided).tolist():
        c_eff[i], d2[i], kappa[i], range_ok[i] = _check_state(scenario, at, states[i])
    with np.errstate(all="ignore"):
        d_norm = np.sqrt(d2)
        slack = None if gamma is None else gamma * d_norm + c_eff  # as check_compatibility forms it
    ok = range_ok if slack is None else range_ok & (slack >= 0.0)
    violations = np.flatnonzero(~ok).tolist()
    shown = range(n_states) if n_states <= 200 else violations
    # Each column as Python floats, once, rather than one array entry at a time.
    c_col, d_col, kappa_col, ok_col = (a.tolist() for a in (c_eff, d_norm, kappa, range_ok))
    slack_col = None if slack is None else slack.tolist()

    def row(i: int) -> str:
        compat_txt = "-" if slack_col is None else "yes" if slack_col[i] >= 0.0 else f"no({-slack_col[i]:.3g})"
        kappa_txt = "-" if math.isnan(kappa_col[i]) else f"{kappa_col[i]:.5f}"
        return (
            f"{i:>4d} {c_col[i]:>12.5f} {d_col[i]:>10.5f} {compat_txt:>7s} "
            f"{kappa_txt:>10s} {'ok' if ok_col[i] else 'FAIL':>6s}"
        )

    table = [f"{'idx':>4s} {'c_eff':>12s} {'|d|':>10s} {'compat':>7s} {'kappa':>10s} {'range':>6s}"]
    table += [row(i) for i in shown]
    if n_states > 200:
        table.append(f"({n_states} grid points, table truncated to violating rows)")
    print("\n".join(table))
    if violations:
        print(f"{len(violations)} of {n_states} grid points violate", file=sys.stderr)
        for i, x in zip(violations, states[violations[:20]].tolist()):
            print(f"  point {i}: x = [{', '.join(str(round(v, 5)) for v in x)}]", file=sys.stderr)
        return CHECK_ERROR
    print(f"all {n_states} grid points pass")
    return 0


def cmd_margin(args) -> int:
    config = load_config(args.config, args.set)
    scenario = build_scenario(config, seed=args.seed)
    kind = scenario.spec.kind
    if kind == "qp":
        print(
            "margin needs a tunable, sontag, or bounded_input controller; "
            "this scenario's filter is min-norm (qp)",
            file=sys.stderr,
        )
        return CONFIG_ERROR
    states = _grid_states(config, scenario, args.seed)
    if not len(states):
        print("margin grid is empty", file=sys.stderr)
        return CONFIG_ERROR
    stacked = _stacked_grid(scenario, states)
    if stacked is None:
        values = [math.nan] * len(states)
        flagged = np.ones(len(states), dtype=bool)
    else:
        _, stage, flagged = stacked
        with np.errstate(all="ignore"):
            values = margins(stage.c_bar, stage.kappa, stage.gam).tolist()
    at, _ = point_evaluation(scenario.system, scenario.barrier, scenario.spec)
    # In index order, so that the first state to raise is the one a per-state loop meets.
    for i in np.flatnonzero(flagged).tolist():
        _, _, _, con, kd = at(states[i])
        values[i] = margin_of(evaluate_controller(scenario.spec, con, states[i], kd))
    finite = [m for m in values if math.isfinite(m)]
    if not finite:
        print("no finite margins on the grid", file=sys.stderr)
        return CONFIG_ERROR
    print(f"margin over {len(states)} grid states (sample-based estimate, not a global supremum):")
    print(f"  min M = {_fmt(min(finite))}")
    print(f"  max M (xi_bar estimate) = {_fmt(max(finite))}")
    if kind == "bounded_input":
        print("  note: the bounded-input range yields margin interval [0, inf) by construction")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / "margins.csv"
    with open(out_path, "w", newline="\n") as fh:
        fh.write("idx,margin\n")
        # One format per row, each value as _fmt writes it.
        fh.write("".join(["%d,%.17g\n" % row for row in enumerate(values)]))
    print(f"wrote per-state margins to {out_path}")
    return 0


_COMMANDS = ("simulate", "sweep", "check", "margin")  # each runs the function cmd_<name>


def build_parser() -> argparse.ArgumentParser:
    """A new parser of the command line; args.command names the subcommand."""
    parser = argparse.ArgumentParser(
        prog="cbfctrl", description="CBF safety-controller simulation toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
        p.add_argument("--out", default=".")
        p.add_argument("--seed", type=int, default=None)
    for name in ("simulate", "sweep"):
        sub.choices[name].add_argument("--zoh", action="store_true")
    sub.choices["simulate"].add_argument("--strict-range", action="store_true")
    sub.choices["sweep"].add_argument("--param", required=True)
    sub.choices["sweep"].add_argument("--values", required=True)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main uses, built at its first call; parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # Looked up at each call, so that a rebound cmd_<name> is the one that runs.
    command = globals()[f"cmd_{args.command}"]
    try:
        is_seed, kind = _SEED
        if args.seed is not None and not is_seed(args.seed):
            raise ConfigurationError(f"--seed must be {kind}, got {args.seed}")
        return command(args)
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return CONFIG_ERROR
    except CBFControlError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return RUN_ERROR


if __name__ == "__main__":
    sys.exit(main())
