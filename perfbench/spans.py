"""Span tracer that wraps cbfctrl's public functions from outside the package.

Nothing in ``src/cbfctrl`` knows about tracing.  :func:`installed` rebinds
cbfctrl's functions in its modules (and the callables inside the scenarios
the CLI builds) to timing wrappers and restores every one of them on exit,
so untraced rounds run the unmodified program.

Each span is (name, start, end, parent, run id, raised), with start and end
read both from the wall clock and from the thread's CPU clock: the sweep
command runs its simulations on four threads that take turns holding the
interpreter lock, so a span's wall time there includes waiting for the
other threads, and its CPU time is the time it was busy.  Spans live in
flat ``array`` buffers while the benchmark runs and are written out once
at the end.  Parents come from a per-thread stack, so a span's children
always run in its own thread; the sweep pool's worker threads start new
root spans that carry the run id of the command that spawned them.
"""

from __future__ import annotations

import contextlib
import dataclasses
import sys
import threading
import time
import types
from array import array

import numpy as np


_FIELDS = ("name_id", "start", "end", "cpu_start", "cpu_end", "parent", "run_id", "raised")


class _Buffer:
    """Spans recorded by one thread; parent indices point into the same buffer."""

    def __init__(self) -> None:
        for field in _FIELDS:
            setattr(self, field, array("b" if field == "raised" else "q"))
        self.stack: list[int] = []


class Tracer:
    """In-memory span store: one buffer and parent stack per thread, so
    recording takes no lock while the sweep pool's threads run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._buffers: list[_Buffer] = []
        # Counts the spans cannot give, e.g. rows recorded, by (name, run id).
        self.counts: dict[tuple[str, int], int] = {}
        self.current_run = 0
        self._local = threading.local()
        self._lock = threading.Lock()

    def next_run(self) -> None:
        """Start a new operation: later spans carry the next run id."""
        self.current_run += 1

    def add(self, name: str, n: int) -> None:
        """Add n to the count called name for the current run id."""
        key = (name, self.current_run)
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + n

    def _id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            with self._lock:
                nid = self._name_ids.setdefault(name, len(self.names))
                if nid == len(self.names):
                    self.names.append(name)
        return nid

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = self._local.buf = _Buffer()
            with self._lock:
                self._buffers.append(buf)
        return buf

    def call(self, name: str, fn, args, kwargs):
        """Run fn(*args, **kwargs) inside a span called name."""
        buf = self._buffer()
        stack = buf.stack
        idx = len(buf.start)
        buf.name_id.append(self._id(name))
        buf.parent.append(stack[-1] if stack else -1)
        buf.run_id.append(self.current_run)
        buf.raised.append(0)
        stack.append(idx)
        buf.cpu_start.append(time.thread_time_ns())
        buf.start.append(time.perf_counter_ns())
        buf.end.append(0)
        buf.cpu_end.append(0)
        try:
            return fn(*args, **kwargs)
        except BaseException:
            buf.raised[idx] = 1
            raise
        finally:
            buf.end[idx] = time.perf_counter_ns()
            buf.cpu_end[idx] = time.thread_time_ns()
            stack.pop()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs)

        return traced

    def arrays(self) -> dict[str, np.ndarray]:
        """All spans, buffer after buffer, with parents as global indices."""
        out = {field: [] for field in _FIELDS}
        offset = 0
        for buf in self._buffers:
            for field in _FIELDS:
                values = np.frombuffer(getattr(buf, field), dtype=np.int8 if field == "raised" else np.int64)
                if field == "parent":
                    values = np.where(values >= 0, values + offset, -1)
                out[field].append(values)
            offset += len(buf.start)
        arrays = {
            field: np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)
            for field, parts in out.items()
        }
        arrays["raised"] = arrays["raised"].astype(bool)
        return arrays

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def self_times(start, end, parent) -> np.ndarray:
    """Duration of each span minus the part of it covered by its children.

    Children of one parent may overlap; covered time is the length of the
    union of their intervals, clipped to the parent's interval.
    """
    start = np.asarray(start, dtype=np.int64)
    end = np.asarray(end, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    dur = end - start
    covered = np.zeros(dur.size, dtype=np.int64)
    kids = np.flatnonzero(parent >= 0)
    if kids.size:
        p = parent[kids]
        s = np.maximum(start[kids], start[p])
        e = np.minimum(end[kids], end[p])
        e = np.maximum(e, s)
        order = np.lexsort((s, p))
        p, s, e = p[order], s[order], e[order]
        # Shift each parent's group past the previous one so one running
        # maximum over all children never carries across groups.
        group = np.cumsum(np.r_[0, p[1:] != p[:-1]])
        span_all = int(max(end.max() - start.min(), 1)) + 1
        shift = group * span_all - start.min()
        s_sh, e_sh = s + shift, e + shift
        reach = np.maximum.accumulate(e_sh)
        prev = np.r_[np.iinfo(np.int64).min, reach[:-1]]
        first = np.r_[True, group[1:] != group[:-1]]
        prev = np.where(first, s_sh, prev)
        gain = np.maximum(e_sh - np.maximum(s_sh, prev), 0)
        np.add.at(covered, p, gain)
    return dur - covered


# --- installing the wrappers -------------------------------------------------


def _replacements(tracer: Tracer) -> dict:
    """{original cbfctrl function: traced stand-in}."""
    from cbfctrl import analysis, cli, core, formulas, manipulator, simulate

    plain = {
        core.evaluate_constraint: "core.evaluate_constraint",
        core.gamma_sontag: "core.gamma_sontag",
        analysis.check_compatibility: "analysis.check_compatibility",
        analysis.safety_margin_at: "analysis.safety_margin_at",
        simulate.step: "simulate.step",
        manipulator.mass_matrix: "manipulator.mass_matrix",
        cli.load_config: "cli.load_config",
        cli.cmd_simulate: "cli.cmd_simulate",
        cli.cmd_sweep: "cli.cmd_sweep",
        cli.cmd_check: "cli.cmd_check",
        cli.cmd_margin: "cli.cmd_margin",
    }
    out = {fn: tracer.wrap(name, fn) for fn, name in plain.items()}
    # The originals, bound now: the module attributes are rebound later.
    controller, sim_run, write_csv = formulas.evaluate_controller, simulate.run, cli.write_trajectory_csv
    grid, build, velocity = cli._grid_states, cli.build_scenario, manipulator.velocity_level_scenario

    def evaluate_controller(spec, *args, **kwargs):
        # The safety filter calls this again for its inner kind, so the
        # kind in the name separates the filter's own time from the inner's.
        return tracer.call(
            f"formulas.evaluate_controller.{spec.kind}", controller, (spec,) + args, kwargs
        )

    out[controller] = evaluate_controller

    def run(*args, **kwargs):
        traj = tracer.call("simulate.run", sim_run, args, kwargs)
        tracer.add("simulate.run.rows", len(traj))
        return traj

    out[sim_run] = run

    def write_trajectory_csv(path, traj, *args, **kwargs):
        tracer.add("cli.write_trajectory_csv.rows", len(traj))
        return tracer.call("cli.write_trajectory_csv", write_csv, (path, traj) + args, kwargs)

    out[write_csv] = write_trajectory_csv

    def grid_states(*args, **kwargs):
        states = tracer.call("cli.grid_states", grid, args, kwargs)
        tracer.add("cli.grid_states", len(states))
        return states

    out[grid] = grid_states

    def build_scenario(*args, **kwargs):
        return _traced_scenario(tracer, tracer.call("cli.build_scenario", build, args, kwargs))

    out[build] = build_scenario

    def velocity_level_scenario(*args, **kwargs):
        # The torque scenario's barrier and nominal capture this k0.
        vs = velocity(*args, **kwargs)
        k0 = dataclasses.replace(
            vs.k0,
            value=tracer.wrap("manipulator.k0.value", vs.k0.value),
            jac_q=tracer.wrap("manipulator.k0.jac", vs.k0.jac_q),
            jac_tau=tracer.wrap("manipulator.k0.jac", vs.k0.jac_tau),
        )
        return dataclasses.replace(vs, k0=k0)

    out[velocity] = velocity_level_scenario
    return out


def _traced_scenario(tracer: Tracer, sc):
    """Swap the system, barrier and nominal callables of sc for traced ones."""
    sc.system = dataclasses.replace(
        sc.system,
        drift=tracer.wrap("manipulator.drift", sc.system.drift),
        input_map=tracer.wrap("manipulator.input_map", sc.system.input_map),
    )
    sc.barrier = dataclasses.replace(
        sc.barrier,
        value=tracer.wrap("manipulator.barrier.value", sc.barrier.value),
        gradient=tracer.wrap("manipulator.barrier.gradient", sc.barrier.gradient),
    )
    if sc.spec.kind == "safety_filter":
        sc.spec = dataclasses.replace(
            sc.spec, nominal=tracer.wrap("manipulator.nominal", sc.spec.nominal)
        )
    return sc


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Route cbfctrl's public calls through tracer for the with-block.

    Every name bound to a wrapped function in any loaded cbfctrl module is
    rebound, so calls reach the wrapper whichever module makes them, and a
    new import site needs no change here.
    """
    replacements = _replacements(tracer)
    modules = [m for n, m in list(sys.modules.items()) if n == "cbfctrl" or n.startswith("cbfctrl.")]
    saved = []
    try:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType) and value in replacements:
                    saved.append((module, attr, value))
                    setattr(module, attr, replacements[value])
        yield tracer
    finally:
        for module, attr, value in reversed(saved):
            setattr(module, attr, value)
