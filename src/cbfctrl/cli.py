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
from dataclasses import fields
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
    offset_not_finite,
    resolve_kappa,
)
from .simulate import SimConfig, Stage, Trajectory, evaluate_stack, point_evaluation, run, stacks

CONFIG_ERROR = 1
RUN_ERROR = 2
CHECK_ERROR = 3

_SCHEMA_VERSION = 1
# The most states a box grid may hold (the product of its axis counts);
# a larger grid is a config error, raised before any state is formed.
MAX_GRID_STATES = 10**6


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)  # JSON true is a bool


def _is_number(value) -> bool:
    """A finite number: JSON's NaN, Infinity and literals that overflow a float are not."""
    if _is_int(value):
        return abs(value) <= sys.float_info.max
    return isinstance(value, float) and math.isfinite(value)


# A key's scalar checks, each (test, what a value that passes it is), in
# the order they apply; none where the key's reader checks it (an array's
# length needs the built system, a section is walked as its own table).
_NUMBER = ((_is_number, "a number"),)
_POSITIVE = _NUMBER + ((lambda v: v > 0.0, "positive"),)
_INT = ((_is_int, "an integer"),)
_POSITIVE_INT = ((lambda v: _is_int(v) and v > 0, "a positive integer"),)
_SEED = ((lambda v: _is_int(v) and v >= 0, "a nonnegative integer"),)  # numpy seeds are nonnegative
_BOOL = ((lambda v: isinstance(v, bool), "true or false"),)
_FILE_NAME = (  # a name in the --out directory, on every platform: no / or \ separator
    (lambda v: isinstance(v, str) and v != "", "a non-empty string"),
    (lambda v: v not in (".", "..") and "/" not in v and "\\" not in v, "a bare file name"),
)


class _Row:
    """What one selection of a config section reads: keys maps each key it
    reads to the key's scalar checks, and needs names the keys it cannot do
    without.

    A system's row also says what it takes of the other sections: kinds,
    for a section of which it takes only some kinds, those kinds; skips,
    for a section of which it reads some keys not, each such key (None for
    the whole section) mapped to why; and config_needs, the top-level keys
    it needs.
    """

    __slots__ = ("keys", "needs", "kinds", "skips", "config_needs")

    def __init__(self, keys: dict, needs: tuple = (), kinds=None, skips=None, config_needs: tuple = ()):
        self.keys, self.needs, self.config_needs = keys, needs, config_needs
        self.kinds, self.skips = kinds or {}, skips or {}


# One table per config section: (its selector key, how messages name a
# selection, {each value of the selector: its row}).  The top level, sim,
# output and each grid.axes entry have one row, which stands for the table.
_TOP = _Row(
    {
        "schema": ((lambda v: _is_int(v) and v == _SCHEMA_VERSION, f"{_SCHEMA_VERSION}"),),  # not true, not 1.0
        "seed": _SEED,
        **dict.fromkeys(("system", "barrier", "controller", "sim", "x0", "nominal", "disturbance", "grid", "output"), ()),
    },
    needs=("schema", "system", "barrier", "controller", "sim"),
)
_ARM_KEYS = ("m1", "m2", "l1", "l2", "gravity")  # ManipulatorParams'; the torque level's others are BacksteppingConfig's
_OWN_REFERENCE = {None: ": it tracks its own reference"}
_SYSTEMS = ("name", "system {!r}", {
    "single_integrator": _Row({"dim": _INT}, kinds={"barrier": ("linear",)}, config_needs=("x0",)),
    "double_integrator": _Row({}, kinds={"barrier": ("linear",)}, config_needs=("x0",)),
    "two_link_velocity": _Row(
        dict.fromkeys(("q_bar", "beta", "kp"), _NUMBER), kinds={"barrier": ("builtin",)}, skips={"nominal": _OWN_REFERENCE}
    ),
    "two_link_torque": _Row(
        dict.fromkeys(_ARM_KEYS + ("mu", "kp", "kp_bar", "alpha_b"), _NUMBER),
        kinds={"barrier": ("builtin",), "controller": ("qp", "sontag", "tunable")},
        skips={"nominal": _OWN_REFERENCE, "controller": {"relu": ""}},
    ),
})
_BARRIERS = ("kind", "the {} barrier", {
    "linear": _Row({"normal": (), "offset": _NUMBER, "beta": _NUMBER}, needs=("normal", "offset")),
    "builtin": _Row({}),
})
# Every kind reads every controller key, so that a kind set over a config
# (a sweep over controller.kind, --set controller.kind=...) keeps its keys.
_CONTROLLER_KEYS = {"eta": _NUMBER, "sigma": _NUMBER, "gamma": _POSITIVE, "relu": _BOOL}
_CONTROLLERS = ("kind", "the {} controller", {
    "qp": _Row(_CONTROLLER_KEYS),
    "sontag": _Row(_CONTROLLER_KEYS, needs=("sigma",)),
    "tunable": _Row(_CONTROLLER_KEYS, needs=("eta", "sigma")),
    "bounded_input": _Row(_CONTROLLER_KEYS, needs=("eta", "sigma", "gamma")),
})
_SIM = _Row(dict.fromkeys((field.name for field in fields(SimConfig)), ()))  # SimConfig checks each
_NOMINALS = ("kind", "the {} nominal", {"zero": _Row({}), "constant": _Row({"value": ()}, needs=("value",))})
_DISTURBANCES = ("kind", "the {} disturbance", {
    "constant": _Row({"value": ()}, needs=("value",)),
    "sinusoidal": _Row({"amplitude": (), "freq": _NUMBER}, needs=("amplitude", "freq")),
    "bounded_random": _Row({"magnitude": _NUMBER, "seed": _SEED}, needs=("magnitude",)),
})
# Both kinds read every grid key, so that a box set over a trajectory grid keeps its subsample.
_GRID_KEYS = {"base": (), "axes": ((lambda v: isinstance(v, list), "a list"),), "subsample": _POSITIVE_INT}
_GRIDS = ("kind", "the {} grid", {"box": _Row(_GRID_KEYS), "trajectory": _Row(_GRID_KEYS)})
_AXIS = _Row({"dim": (), "min": _NUMBER, "max": _NUMBER, "count": _POSITIVE_INT}, needs=("dim", "count", "min", "max"))
_OUTPUT = _Row({"trajectory": _FILE_NAME})
# The sections after system, in the order they are walked.
_SECTIONS = {
    "barrier": _BARRIERS, "controller": _CONTROLLERS, "sim": _SIM, "nominal": _NOMINALS,
    "disturbance": _DISTURBANCES, "grid": _GRIDS, "output": _OUTPUT,
}


def _walk(section, path: str, table, system: tuple[str, _Row] = ("", _Row({}))) -> _Row:
    """The row of table that the config section at path selects (table
    itself where it is one row), once the section is found to hold no key
    that the row does not read or reads as the wrong type, and every key
    that the row needs; a config error otherwise.

    A key that only another row reads is checked as that row checks it,
    and then rejected.  system, the configured system's (name, row), adds
    its rules for this section.
    """
    if not isinstance(section, dict):
        raise ConfigurationError(f"{path} must be an object, got {section!r}")
    name = path.rpartition(".")[2]
    owner, rules = system
    skipped = rules.skips.get(name, {})
    if None in skipped:
        raise ConfigurationError(f"system {owner!r} does not read {path}{skipped[None]}")
    if isinstance(table, _Row):
        selector, row, rows = None, table, ()
    else:
        selector, subject, rows = table
        if selector not in section:
            raise ConfigurationError(f"missing config key {path}.{selector}")
        choice = section[selector]
        if not isinstance(choice, str):
            raise ConfigurationError(f"{path}.{selector} must be a string, got {choice!r}")
        row, rows = rows.get(choice), rows.values()
        if row is None:
            raise ConfigurationError(f"unknown {name} {selector} {choice!r}")
        if choice not in rules.kinds.get(name, (choice,)):
            raise ConfigurationError(f"system {owner!r} takes no {choice} {name}")
    for key, value in section.items():
        checks = row.keys.get(key)
        reader = None
        if checks is None:
            if key == selector:
                continue
            checks = next((other.keys[key] for other in rows if key in other.keys), None)
            if checks is None:
                raise ConfigurationError(f"unknown config key {path}.{key}")
            reader = subject.format(choice)
        elif key in skipped:
            reader = f"system {owner!r}"
        for test, what in checks:
            if not test(value):
                raise ConfigurationError(f"{path}.{key} must be {what}, got {value!r}")
        if reader is not None:
            raise ConfigurationError(f"{reader} does not read {path}.{key}{skipped.get(key, '')}")
    for key in row.needs:
        if key not in section:
            raise ConfigurationError(f"missing config key {path}.{key}")
    return row


def validate_config(config: dict) -> None:
    """A config error at the first key that the configured scenario does
    not read or reads as the wrong type, and at the first key that it
    needs and lacks; see the tables above.  build_scenario and _grid_states
    check what needs the built system."""
    _walk(config, "config", _TOP)
    system = _walk(config["system"], "config.system", _SYSTEMS)
    for key in system.config_needs:
        if key not in config:
            raise ConfigurationError(f"missing config key config.{key}")
    owner = (config["system"]["name"], system)
    for name, table in _SECTIONS.items():
        if name in config:
            _walk(config[name], f"config.{name}", table, owner)
    for i, axis in enumerate(config.get("grid", {}).get("axes", ())):
        _walk(axis, f"config.grid.axes[{i}]", _AXIS)


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


class Scenario:
    """Everything needed to run and inspect one configured closed loop."""

    def __init__(self, system, barrier, spec, x0, sim_cfg, disturbance):
        self.system = system
        self.barrier = barrier
        self.spec = spec
        self.x0 = x0
        self.sim_cfg = sim_cfg
        self.disturbance = disturbance


def build_scenario(config: dict, zoh: bool = False, seed: int | None = None) -> Scenario:
    """Assemble the runnable pieces from a validated config.

    Only the keys given are passed on, so every default is the
    constructor's.  The checks left here need the built system: each
    config array's length.
    """
    name = config["system"]["name"]
    args = {key: value for key, value in config["system"].items() if key != "name"}
    controller = config["controller"]
    sim = dict(config["sim"])
    if zoh:
        sim["zoh"] = True
    sim_cfg = SimConfig(**sim)

    if name == "two_link_velocity":
        sc = manipulator.velocity_level_scenario(**controller, **args)
        system, barrier, spec, x0 = sc.system, sc.barrier, sc.spec, sc.x0
    elif name == "two_link_torque":
        params = {key: args.pop(key) for key in _ARM_KEYS if key in args}
        sc = manipulator.torque_level_scenario(
            params=manipulator.ManipulatorParams(**params),
            cfg=manipulator.BacksteppingConfig(**args),
            **{key: value for key, value in controller.items() if key != "gamma"},  # gamma is read by check alone
        )
        system, barrier, spec, x0 = sc.system, sc.barrier, sc.spec, sc.x0
    else:
        system = systems.single_integrator(**args) if name == "single_integrator" else systems.double_integrator()
        bar = {key: value for key, value in config["barrier"].items() if key != "kind"}
        bar["normal"] = _config_array(bar["normal"], "barrier.normal", system.state_dim)
        barrier = systems.linear_barrier(**bar)
        spec = controller_spec(**controller)
        nom = config.get("nominal")
        if nom is not None:
            if nom["kind"] == "zero":
                kd = np.zeros(system.input_dim)
            else:
                kd = _config_array(nom["value"], "nominal.value", system.input_dim)
            spec = ControllerSpec.safety_filter(spec, lambda x, kd=kd: kd)
    if "x0" in config:  # a two-link scenario's own x0 otherwise
        x0 = _config_array(config["x0"], "x0", system.state_dim)

    disturbance = None
    dist = config.get("disturbance")
    if dist is not None:
        if dist["kind"] == "constant":
            value = _config_array(dist["value"], "disturbance.value", system.input_dim)
            disturbance = DisturbanceSpec.constant(value)
        elif dist["kind"] == "sinusoidal":
            amplitude = _config_array(dist["amplitude"], "disturbance.amplitude", system.input_dim)
            disturbance = DisturbanceSpec.sinusoidal(amplitude, dist["freq"])
        else:
            seed = config.get("seed", 0) if seed is None else seed
            disturbance = DisturbanceSpec.bounded_random(dist["magnitude"], dist.get("seed", seed))
    return Scenario(system, barrier, spec, x0, sim_cfg, disturbance)


def _out_dir(path: str) -> Path:
    """The --out directory at path, made with its parents where missing; a
    config error where it cannot be made."""
    out_dir = Path(path)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError(f"cannot make the --out directory {path}: {exc.strerror}") from exc
    return out_dir


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
    out_dir = _out_dir(args.out)
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

    scenarios = []
    for value in values:
        node[leaf] = value
        validate_config(config)
        scenarios.append(build_scenario(config, zoh=args.zoh, seed=args.seed))
    trajs = [run(sc.system, sc.spec, sc.barrier, sc.x0, sc.sim_cfg, sc.disturbance) for sc in scenarios]

    out_dir = _out_dir(args.out)  # once every value is built and run
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
        return traj.states[:: grid.get("subsample", 1)]
    base = _config_array(grid["base"], "grid.base", n) if "base" in grid else scenario.x0
    axes = grid.get("axes", [])
    for i, axis in enumerate(axes):
        dim = axis["dim"]
        if not (_is_int(dim) and 0 <= dim < n):
            raise ConfigurationError(f"config.grid.axes[{i}].dim must be an integer in [0, {n}), got {dim!r}")
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

    Where the scenario's plant and formula stack (see simulate.stacks),
    every state is evaluated in one pass and every unflagged state's values
    equal the per-state body's, bit for bit.
    """
    spec = scenario.spec
    if not stacks(scenario.system, scenario.barrier, spec):
        return None
    kernel = FormulaBatch(spec)
    with np.errstate(all="ignore"):
        stage, flagged = evaluate_stack(scenario.system, scenario.barrier, spec.nominal, states, kernel)
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
    if not math.isfinite(c_eff):
        raise offset_not_finite(c_eff, con.d)
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
    out_path = _out_dir(args.out) / "margins.csv"
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
        (is_seed, kind), = _SEED
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
