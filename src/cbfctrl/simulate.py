"""Fixed-step closed-loop integration of xdot = f(x) + g(x) k(x).

The controller is re-evaluated inside every RK4 stage (continuous-feedback
semantics); a zero-order-hold mode freezes it over each step for
sampled-data studies.  Each state is evaluated once: the evaluation that
records step k is also RK4 stage 1 (and the single Euler stage), so an
RK4 step costs four controller evaluations and an Euler step one.
Disturbances are evaluated at the pre-step time and held across stages.
Runs that hit an infeasible constraint, a tunable range violation, or a
numerical blow-up return a truncated trajectory carrying the failure
reason instead of raising.

run also takes a sequence of specs over one plant and returns one
trajectory per spec.  Members whose formulas vectorise (see
formulas.FormulaBatch), on a plant whose maps declare that they take
stacks of states, advance together: one RK4 loop over the (B, n) stack of
their states, with one numpy call per operation for all of them.  A
failing member stops alone, with the failure and the recorded rows of its
own scalar run, and the others go on; every other member runs the scalar
loop.  The scalar loop is the reference, and the batch reproduces it bit
for bit on the velocity-level manipulator, whose maps are exact in the
batch's order of operations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .analysis import DisturbanceSpec, margin_of, margins
from .core import (
    AffineConstraint,
    BarrierFunction,
    BlowUpError,
    CBFControlError,
    ConfigurationError,
    ControlAffineSystem,
    NumericsError,
    evaluate_constraint,
)
from .formulas import ControllerOutput, ControllerSpec, FormulaBatch, evaluate_controller, vectorisable


@dataclass(frozen=True)
class SimConfig:
    dt: float = 1e-3
    horizon: float = 10.0
    integrator: str = "rk4"
    record_every: int = 1
    zoh: bool = False
    allow_unsafe_start: bool = False

    def __post_init__(self):
        if not self.dt > 0.0:
            raise ConfigurationError(f"dt must be positive, got {self.dt}")
        if self.horizon < 0.0:
            raise ConfigurationError(f"horizon must be nonnegative, got {self.horizon}")
        if self.horizon > 0.0 and self.dt > self.horizon:
            raise ConfigurationError(
                f"dt={self.dt} exceeds horizon={self.horizon}"
            )
        if self.record_every < 1:
            raise ConfigurationError(f"record_every must be >= 1, got {self.record_every}")
        if self.integrator not in ("rk4", "euler"):
            raise ConfigurationError(f"unknown integrator {self.integrator!r}")


@dataclass
class Trajectory:
    """Time-indexed record of one closed-loop run.

    All arrays share the same leading length; times are uniformly spaced by
    dt * record_every.  kappas and margins are NaN where the controller
    kind defines no tunable term.  correction_norms holds the norm of the
    formula part of the input (u minus the nominal for filter kinds), the
    quantity the norm-bound studies constrain.  failure is None for a clean
    run, otherwise a reason string with failure_step the step index at
    which integration stopped.
    """

    times: np.ndarray
    states: np.ndarray
    inputs: np.ndarray
    h_values: np.ndarray
    residuals: np.ndarray
    kappas: np.ndarray
    margins: np.ndarray
    correction_norms: np.ndarray
    failure: Optional[str] = None
    failure_step: Optional[int] = None

    def __len__(self) -> int:
        return self.times.size

    @property
    def ok(self) -> bool:
        return self.failure is None

    def min_h(self) -> float:
        return float(np.min(self.h_values))


def step(
    system: ControlAffineSystem,
    controller: Callable[[np.ndarray], np.ndarray],
    x: np.ndarray,
    dt: float,
    integrator: str = "rk4",
) -> np.ndarray:
    """Advance one step of xdot = f(x) + g(x)*controller(x).

    RK4 evaluates the closed-loop field (controller included) at all four
    stage states; euler uses a single evaluation.  Raises NumericsError if
    the new state is not finite.
    """

    def f_cl(y: np.ndarray) -> np.ndarray:
        return system.drift(y) + system.input_map(y) @ controller(y)

    if integrator == "euler":
        x_new = x + dt * f_cl(x)
    elif integrator == "rk4":
        k1 = f_cl(x)
        k2 = f_cl(x + (0.5 * dt) * k1)
        k3 = f_cl(x + (0.5 * dt) * k2)
        k4 = f_cl(x + dt * k3)
        x_new = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    else:
        raise ConfigurationError(f"unknown integrator {integrator!r}")
    if not np.isfinite(x_new).all():
        raise NumericsError(f"state became non-finite after one step from x={x}")
    return x_new


def run(
    system: ControlAffineSystem,
    spec: ControllerSpec | Sequence[ControllerSpec],
    barrier: BarrierFunction,
    x0: np.ndarray,
    cfg: SimConfig,
    disturbance: Optional[DisturbanceSpec] = None,
) -> Trajectory | list[Trajectory]:
    """Simulate the closed loop and record the trajectory.

    The controller is composed as evaluate_constraint followed by
    evaluate_controller at every evaluation point.  The disturbance is
    added to the input after controller evaluation, at the pre-step time.
    The start state must satisfy h(x0) >= 0 unless allow_unsafe_start.
    Given a sequence of specs, returns the trajectory of each, as the
    scalar run of that spec would (see the module docstring).
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (system.state_dim,):
        raise ConfigurationError(
            f"x0 has shape {x0.shape}, expected ({system.state_dim},)"
        )
    h0 = float(barrier.value(x0))
    if h0 < 0.0 and not cfg.allow_unsafe_start:
        raise ConfigurationError(
            f"x0 outside the safe set: h(x0) = {h0} < 0 (set allow_unsafe_start to override)"
        )
    if isinstance(spec, ControllerSpec):
        return _run_scalar(system, spec, barrier, x0, cfg, disturbance)
    specs = list(spec)
    together = _batch_members(system, barrier, specs)
    trajs = [
        None if i in together else _run_scalar(system, s, barrier, x0, cfg, disturbance)
        for i, s in enumerate(specs)
    ]
    if together:
        batch = _Batch(system, [specs[i] for i in together], barrier)
        for i, traj in zip(together, batch.run(x0, cfg, disturbance)):
            trajs[i] = traj
    return trajs


def _evaluator(system, spec, barrier) -> Callable[[np.ndarray], tuple[AffineConstraint, ControllerOutput]]:
    def evaluate(y: np.ndarray) -> tuple[AffineConstraint, ControllerOutput]:
        con = evaluate_constraint(system, barrier, y)
        return con, evaluate_controller(spec, con, y)

    return evaluate


def _held(evaluate, x_k: np.ndarray, u_k: np.ndarray, w, zoh: bool) -> Callable[[np.ndarray], np.ndarray]:
    """The controller of step k: step calls it at x_k itself only for stage
    1, which reuses u_k; the zero-order hold reuses it at every stage."""

    def controller(y: np.ndarray) -> np.ndarray:
        if zoh or y is x_k:
            return u_k
        u = evaluate(y)[1].u
        return u if w is None else u + w

    return controller


def _run_scalar(
    system: ControlAffineSystem,
    spec: ControllerSpec,
    barrier: BarrierFunction,
    x0: np.ndarray,
    cfg: SimConfig,
    disturbance: Optional[DisturbanceSpec],
) -> Trajectory:
    n_steps = int(round(cfg.horizon / cfg.dt)) if cfg.horizon > 0.0 else 0
    m = system.input_dim

    times: list[float] = []
    states: list[np.ndarray] = []
    inputs: list[np.ndarray] = []
    h_values: list[float] = []
    residuals: list[float] = []
    kappas: list[float] = []
    margins: list[float] = []
    corr_norms: list[float] = []
    failure: Optional[str] = None
    failure_step: Optional[int] = None

    evaluate = _evaluator(system, spec, barrier)

    def record(
        k: int, y: np.ndarray, con: AffineConstraint, out: ControllerOutput, u_applied: np.ndarray
    ) -> None:
        times.append(k * cfg.dt)
        states.append(y.copy())
        inputs.append(np.array(out.u, dtype=float))
        h_values.append(float(barrier.value(y)))
        residuals.append(con.c + float(con.d @ u_applied))
        kappas.append(out.kappa if out.kappa is not None else math.nan)
        margins.append(margin_of(out))
        corr_norms.append(out.lam * con.d_norm)

    x = x0.copy()
    k = 0
    try:
        while True:
            t_k = k * cfg.dt
            w = disturbance.at(t_k, m) if disturbance is not None else None
            con_k, out_k = evaluate(x)
            u_k = out_k.u if w is None else out_k.u + w
            if k % cfg.record_every == 0:
                record(k, x, con_k, out_k, u_k)
            if k >= n_steps:
                break
            try:
                x = step(system, _held(evaluate, x, u_k, w, cfg.zoh), x, cfg.dt, cfg.integrator)
            except NumericsError as exc:
                raise BlowUpError(str(exc), step_index=k) from exc
            k += 1
    except BlowUpError as exc:
        failure = f"blow-up at step {exc.step_index}: {exc}"
        failure_step = exc.step_index
    except CBFControlError as exc:
        failure = f"{type(exc).__name__} at step {k}: {exc}"
        failure_step = k

    return Trajectory(
        times=np.asarray(times),
        states=np.asarray(states),
        inputs=np.asarray(inputs),
        h_values=np.asarray(h_values),
        residuals=np.asarray(residuals),
        kappas=np.asarray(kappas),
        margins=np.asarray(margins),
        correction_norms=np.asarray(corr_norms),
        failure=failure,
        failure_step=failure_step,
    )


# --- members advancing together ----------------------------------------------


def _formula(spec: ControllerSpec) -> ControllerSpec:
    return spec.inner if spec.kind == "safety_filter" else spec


def _batch_members(system, barrier, specs: list[ControllerSpec]) -> list[int]:
    """Indices of the specs that advance together: every vectorisable one
    around the nominal of the first (one object that takes stacks, or none)."""
    if not (system.stacks and barrier.stacks):
        return []
    fits = [i for i, s in enumerate(specs) if vectorisable(_formula(s))]
    if not fits:
        return []
    first = specs[fits[0]]
    if first.kind == "safety_filter" and not first.nominal_stacks:
        return []
    return [i for i in fits if specs[i].kind == first.kind and specs[i].nominal is first.nominal]


def _dot(a: np.ndarray, b: np.ndarray):
    """a . b row by row, of vectors (k,) or stacks (B, k)."""
    if a.ndim == 1:
        return a @ b if b.ndim == 1 else b @ a
    if b.ndim == 1:
        return a @ b
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _vecmat(v: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """v @ mat row by row: v (n,) or (B, n), mat (n, m) or (B, n, m)."""
    if v.ndim == 1 or mat.ndim == 2:
        return v @ mat
    return (v[:, None, :] @ mat)[:, 0, :]


def _field(f: np.ndarray, g: np.ndarray, u: np.ndarray) -> np.ndarray:
    """f + g u for B inputs u (B, m), with f and g shared or stacked."""
    gu = u @ g.T if g.ndim == 2 else (g @ u[:, :, None])[:, :, 0]
    return f + gu


class _Stage(NamedTuple):
    """The batch's evaluation at a stack of states: the plant's maps, the
    constraint (c, d) and the formula at (c_bar, d), c_bar = c + d.k_d."""

    f: np.ndarray
    g: np.ndarray
    h: np.ndarray
    c: np.ndarray
    d: np.ndarray
    d2: float | np.ndarray
    c_bar: np.ndarray
    lam: np.ndarray
    kappa: np.ndarray
    gam: np.ndarray
    u: np.ndarray


class _Batch:
    """Members that share a plant and advance through one RK4 loop."""

    def __init__(self, system, specs, barrier):
        self.system = system
        self.barrier = barrier
        self.specs = specs
        self.nominal = specs[0].nominal if specs[0].kind == "safety_filter" else None
        self.checked = False

    def evaluate(self, ys: np.ndarray, kernel: FormulaBatch) -> tuple[_Stage, np.ndarray]:
        """The stage at the stack ys, and the members flagged by the kernel."""
        system, barrier = self.system, self.barrier
        h = barrier.value(ys)
        grad = barrier.gradient(ys)
        f = system.drift(ys)
        g = system.input_map(ys)
        c = _dot(grad, f) + barrier.classk.fn(h)
        d = _vecmat(grad, g)
        d2 = _dot(d, d)
        if self.nominal is None:
            kd = None
            c_bar = c
        else:
            kd = self.nominal(ys)
            c_bar = c + _dot(kd, d)
        if not self.checked:
            self._check_shapes(len(ys), f, g, h, grad, kd)
        lam, kappa, gam, flagged = kernel(c_bar, d2)
        u = lam[:, None] * d
        if kd is not None:
            u = u + kd
        return _Stage(f, g, h, c, d, d2, c_bar, lam, kappa, gam, u), flagged

    def _check_shapes(self, b, f, g, h, grad, kd) -> None:
        n, m = self.system.state_dim, self.system.input_dim
        for name, arr, shapes in (
            ("drift", f, [(n,), (b, n)]),
            ("input_map", g, [(n, m), (b, n, m)]),
            ("barrier value", h, [(b,)]),
            ("barrier gradient", grad, [(n,), (b, n)]),
            ("nominal", kd, [(b, m)]),
        ):
            if arr is not None and np.shape(arr) not in shapes:
                raise ConfigurationError(
                    f"{name} of a stack of {b} states has shape {np.shape(arr)}, expected one of {shapes}"
                )
        self.checked = True

    def settle(self, ys, stage: _Stage, flagged: np.ndarray, members, skip=()) -> dict[int, CBFControlError]:
        """Evaluate the flagged members on the scalar path: take the output
        of those that pass into stage, and return the error of the others."""
        errors = {}
        for pos in np.flatnonzero(flagged):
            if pos in skip:
                continue
            evaluate = _evaluator(self.system, self.specs[members[pos]], self.barrier)
            try:
                _, out = evaluate(ys[pos])
            except CBFControlError as exc:
                errors[pos] = exc
                continue
            stage.lam[pos] = out.lam
            stage.gam[pos] = out.gamma_eff
            if out.kappa is not None:
                stage.kappa[pos] = out.kappa
            stage.u[pos] = out.u
        return errors

    def replay(self, member: int, x: np.ndarray, k: int, w, cfg: SimConfig) -> str:
        """The failure of the scalar loop's step k from x, which the batch saw fail after stage 1."""
        evaluate = _evaluator(self.system, self.specs[member], self.barrier)
        out = evaluate(x)[1]
        u_k = out.u if w is None else out.u + w
        try:
            step(self.system, _held(evaluate, x, u_k, w, cfg.zoh), x, cfg.dt, cfg.integrator)
        except NumericsError as exc:
            return f"blow-up at step {k}: {exc}"
        raise RuntimeError(f"member {member} failed step {k} in the batch but not on the scalar path")

    def run(self, x0: np.ndarray, cfg: SimConfig, disturbance) -> list[Trajectory]:
        specs = self.specs
        n_members = len(specs)
        n_steps = int(round(cfg.horizon / cfg.dt)) if cfg.horizon > 0.0 else 0
        every = cfg.record_every
        n, m = self.system.state_dim, self.system.input_dim
        steps = np.arange(0, n_steps + 1, every)
        rec = _Record(len(steps), n_members, n, m)
        rows = [len(steps)] * n_members
        failures: list[Optional[str]] = [None] * n_members
        failure_steps: list[Optional[int]] = [None] * n_members
        kernel = FormulaBatch([_formula(s) for s in specs])
        members = np.arange(n_members)  # the member of each row of xs
        xs = np.tile(x0, (n_members, 1))

        def stop(failed: dict[int, str], k: int, kept_row: bool) -> None:
            """Members at the positions in failed stop at step k, with or without row k."""
            nonlocal xs, members, kernel
            for pos, message in failed.items():
                i = members[pos]
                failures[i] = message
                failure_steps[i] = k
                rows[i] = k // every + 1 if kept_row else (k + every - 1) // every
            keep = np.ones(len(members), dtype=bool)
            keep[list(failed)] = False
            xs, members, kernel = xs[keep], members[keep], kernel.take(keep)

        def at(k: int, errors) -> dict[int, str]:
            return {pos: f"{type(e).__name__} at step {k}: {e}" for pos, e in errors.items()}

        with np.errstate(all="ignore"):
            k = 0
            while len(members):
                try:
                    w = disturbance.at(k * cfg.dt, m) if disturbance is not None else None
                except CBFControlError as exc:
                    stop(at(k, dict.fromkeys(range(len(members)), exc)), k, False)
                    break
                stage, flagged = self.evaluate(xs, kernel)
                errors = self.settle(xs, stage, flagged, members) if flagged.any() else {}
                if errors:
                    # Drop the members that fail at x_k; the others evaluate as before.
                    stop(at(k, errors), k, False)
                    if not len(members):
                        break
                    stage, flagged = self.evaluate(xs, kernel)
                    if flagged.any() and self.settle(xs, stage, flagged, members):
                        raise RuntimeError(f"a member's evaluation at step {k} changed when others failed")
                u_k = stage.u if w is None else stage.u + w
                if k % every == 0:
                    rec.write(k // every, None if len(members) == n_members else members, xs, stage, u_k, kernel)
                if k >= n_steps:
                    break
                errors = {}
                x_new = self.step(xs, stage, u_k, w, kernel, cfg, members, errors)
                # As in the scalar loop: a NumericsError inside the step is a blow-up.
                failed = at(k, errors)
                failed.update(
                    (pos, f"blow-up at step {k}: {e}") for pos, e in errors.items() if isinstance(e, NumericsError)
                )
                finite = np.isfinite(x_new)
                if not finite.all():
                    for pos in np.flatnonzero(~finite.all(axis=1)):
                        if pos not in failed:
                            failed[pos] = self.replay(members[pos], xs[pos], k, w, cfg)
                xs = x_new
                if failed:
                    stop(failed, k, True)
                k += 1

        trajs = []
        for i in range(n_members):
            trajs.append(rec.trajectory(i, rows[i], steps * cfg.dt, failures[i], failure_steps[i]))
        return trajs

    def step(self, xs, stage: _Stage, u_k, w, kernel, cfg: SimConfig, members, errors) -> np.ndarray:
        """One RK4 (or Euler) step of every member from xs; the errors of
        members that fail in stages 2-4 go into errors."""
        dt = cfg.dt
        k1 = _field(stage.f, stage.g, u_k)
        if cfg.integrator == "euler":
            return xs + dt * k1

        def f_cl(ys):
            if cfg.zoh:
                return _field(self.system.drift(ys), self.system.input_map(ys), u_k)
            st, flagged = self.evaluate(ys, kernel)
            if flagged.any():
                errors.update(self.settle(ys, st, flagged, members, skip=errors))
            return _field(st.f, st.g, st.u if w is None else st.u + w)

        k2 = f_cl(xs + (0.5 * dt) * k1)
        k3 = f_cl(xs + (0.5 * dt) * k2)
        k4 = f_cl(xs + dt * k3)
        return xs + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


class _Record:
    """Preallocated (rows, members, ...) arrays of a batch's recorded rows."""

    def __init__(self, n_rows: int, n_members: int, n: int, m: int):
        self.states = np.empty((n_rows, n_members, n))
        self.inputs = np.empty((n_rows, n_members, m))
        self.h_values = np.empty((n_rows, n_members))
        self.residuals = np.empty((n_rows, n_members))
        self.kappas = np.empty((n_rows, n_members))
        self.margins = np.empty((n_rows, n_members))
        self.correction_norms = np.empty((n_rows, n_members))

    def write(self, row: int, members, xs, stage: _Stage, u_applied, kernel: FormulaBatch) -> None:
        """Record row for the members (all when None) as the scalar loop's record would."""
        sel = slice(None) if members is None else members
        self.states[row, sel] = xs
        self.inputs[row, sel] = stage.u
        self.h_values[row, sel] = stage.h
        self.residuals[row, sel] = stage.c + _dot(u_applied, stage.d)
        kappa = stage.kappa if kernel.kappa_nan is None else stage.kappa + kernel.kappa_nan
        self.kappas[row, sel] = kappa
        self.margins[row, sel] = margins(stage.c_bar, kappa, stage.gam)
        self.correction_norms[row, sel] = stage.lam * np.sqrt(stage.d2)

    def trajectory(self, i: int, rows: int, times: np.ndarray, failure, failure_step) -> Trajectory:
        """Member i's trajectory of its first rows rows, shaped as the scalar loop shapes it."""
        fields = ("states", "inputs", "h_values", "residuals", "kappas", "margins", "correction_norms")
        if rows == 0:
            arrays = {name: np.asarray([]) for name in fields}
            return Trajectory(times=np.asarray([]), failure=failure, failure_step=failure_step, **arrays)
        arrays = {name: getattr(self, name)[:rows, i].copy() for name in fields}
        return Trajectory(times=times[:rows].copy(), failure=failure, failure_step=failure_step, **arrays)
