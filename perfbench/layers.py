"""Per-layer metrics of a traced run, derived from the recorded spans.

Times are thread CPU time (busy time, see ``spans``).  Means over calls
(``.us``, ``.self_us``, ``.ms``) and ratios use every
traced round.  Plain counts (``.calls``, ``.rows``, ``formulas.errors``)
use the first traced round only, whose inputs depend on the seed alone,
so that they repeat exactly from run to run.  A metric whose layer a
workload never calls reads 0.
"""

from __future__ import annotations

import numpy as np

import spans

FILTER_KINDS = ("qp", "sontag", "tunable", "bounded_input")
SCENARIO_CALLABLES = ("drift", "input_map", "barrier.value", "barrier.gradient", "nominal")
GRID_SETUP = ("cli.load_config", "cli.build_scenario", "cli.grid_states")


def _under(flag_self: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Spans with an ancestor in flag_self (parents precede their children)."""
    has_parent = parent >= 0
    safe = np.where(has_parent, parent, 0)
    flag = flag_self.copy()
    while True:
        new = flag_self | (has_parent & flag[safe])
        if np.array_equal(new, flag):
            return flag & ~flag_self
        flag = new


def per_layer(tracer, first_runs, plain, traced, identical) -> dict:
    """{metric name: (value, unit, sample count)} for one traced run."""
    a = tracer.arrays()
    name = np.array(tracer.names + [""])[a["name_id"]] if a["name_id"].size else np.array([], dtype=str)
    parent = a["parent"]
    has_parent = parent >= 0
    safe_parent = np.where(has_parent, parent, 0)
    dur = (a["cpu_end"] - a["cpu_start"]).astype(float)
    own = spans.self_times(a["cpu_start"], a["cpu_end"], parent).astype(float)
    lo, hi = first_runs
    first = (a["run_id"] > lo) & (a["run_id"] <= hi)

    def count(key, first_only=False):
        return sum(n for (k, run), n in tracer.counts.items()
                   if k == key and (not first_only or lo < run <= hi))

    def mean(mask, values=dur, scale=1e-3):
        n = int(mask.sum())
        return (float(values[mask].sum()) / n * scale if n else 0.0), n

    def ratio(num, den):
        return (num / den if den else 0.0), int(den)

    out = {}

    def put(metric, unit, value_n):
        value, n = value_n
        out[metric] = (value, unit, n)

    is_run = name == "simulate.run"
    in_run = _under(is_run, parent)
    step = name == "simulate.step"
    constraint = name == "core.evaluate_constraint"
    controller = np.char.startswith(name, "formulas.evaluate_controller.")
    outer_controller = controller & ~(has_parent & controller[safe_parent])
    steps = int(step.sum())

    put("simulate.evals_per_step", "calls/step", ratio(int((outer_controller & in_run).sum()), steps))
    put("simulate.step.us", "us", mean(step))
    put("simulate.step.self_us", "us", mean(step, own))
    put("simulate.record.us_per_row", "us/row",
        ratio(float(own[is_run].sum()) / 1e3, count("simulate.run.rows")))

    put("core.evaluate_constraint.calls_per_step", "calls/step",
        ratio(int((constraint & in_run).sum()), steps))
    put("core.evaluate_constraint.us", "us", mean(constraint))
    put("core.evaluate_constraint.self_us", "us", mean(constraint, own))
    put("core.gamma_sontag.calls", "count", (int((first & (name == "core.gamma_sontag")).sum()), 1))

    for kind in FILTER_KINDS:
        put(f"formulas.evaluate_controller.{kind}.us", "us",
            mean(name == f"formulas.evaluate_controller.{kind}"))
    put("formulas.evaluate_controller.safety_filter.self_us", "us",
        mean(name == "formulas.evaluate_controller.safety_filter", own))
    put("formulas.errors", "count", (int((first & outer_controller & a["raised"]).sum()), 1))

    compat = name == "analysis.check_compatibility"
    put("analysis.check_compatibility.calls", "count", (int((first & compat).sum()), 1))
    put("analysis.check_compatibility.us", "us", mean(compat))
    put("analysis.safety_margin_at.calls", "count",
        (int((first & (name == "analysis.safety_margin_at")).sum()), 1))

    for callable_name in SCENARIO_CALLABLES:
        put(f"manipulator.{callable_name}.us", "us", mean(name == f"manipulator.{callable_name}"))
    evals = int(constraint.sum())
    for callee in ("k0.value", "k0.jac", "mass_matrix"):
        put(f"manipulator.{callee}.calls_per_eval", "calls/eval",
            ratio(int((name == f"manipulator.{callee}").sum()), evals))

    put("cli.load_config.ms", "ms", mean(name == "cli.load_config", scale=1e-6))
    put("cli.build_scenario.ms", "ms", mean(name == "cli.build_scenario", scale=1e-6))
    write = name == "cli.write_trajectory_csv"
    put("cli.write_trajectory_csv.us_per_row", "us/row",
        ratio(float(dur[write].sum()) / 1e3, count("cli.write_trajectory_csv.rows")))
    put("cli.write_trajectory_csv.rows", "count", (count("cli.write_trajectory_csv.rows", first_only=True), 1))

    # Grid commands that covered their whole grid, less their set-up.
    grid_cmd = np.isin(name, ("cli.cmd_check", "cli.cmd_margin")) & ~a["raised"]
    setup_child = has_parent & np.isin(name, GRID_SETUP)
    setup_ns = np.bincount(parent[setup_child], weights=dur[setup_child], minlength=name.size)
    grid_states = sum(tracer.counts.get(("cli.grid_states", int(run)), 0)
                      for run in a["run_id"][grid_cmd])
    put("cli.grid.us_per_state", "us/state",
        ratio(float((dur - setup_ns)[grid_cmd].sum()) / 1e3, grid_states))

    # Worker-thread CPU time per wall second of each sweep's pool, the pool's
    # wall time running from its first simulation's start to its last's end.
    cpu_ns = wall_ns = 0
    sweep_runs = np.unique(a["run_id"][name == "cli.cmd_sweep"])
    for run in sweep_runs:
        sims = is_run & (a["run_id"] == run)
        cpu_ns += int(dur[sims].sum())
        wall_ns += int(a["end"][sims].max() - a["start"][sims].min())
    put("cli.sweep.cpu_per_wall", "ratio", (cpu_ns / wall_ns if wall_ns else 0.0, sweep_runs.size))
    put("cli.csv_identical", "count", (identical or 0, 1))

    # Each untraced round's p99 over its 8000 evaluations, median over rounds.
    p99s = [r.latency_us[1] for r in plain if r.latency_us]
    put("eval_us_p99", "us", (float(np.median(p99s)) if p99s else 0.0, len(p99s)))
    plain_wall = sum(r.wall_s for r in plain)
    traced_wall = sum(r.wall_s for r in traced)
    put("trace.overhead_frac", "ratio", (traced_wall / plain_wall - 1.0, len(traced)))
    return out

