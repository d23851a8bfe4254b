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

run takes one spec and has two loops.  Where the run is on exactly the
barrier and nominal that the plant declared its evaluation with
(core.PlantEvaluation, compared by identity), and its policy does not read
the state (kappa_direct), it runs in Python floats (_run_floats): the state is a
tuple, each evaluation one call of the plant's floats, every sum a float
sum written left to right, the formula formulas.controller_terms (the
float core of evaluate_controller) and the rows lists of floats, made into
arrays once at the end.  Every other run takes the numpy loop, the
reference, whose evaluation at a state is point_evaluation's: it calls the
drift, input map, barrier value and gradient and the nominal once per
state, and builds one AffineConstraint, which holds ||d||^2, and one
ControllerOutput; the record reads the correction norm from that
||d||^2.  The constraint (c, d), the filter's offset and k_d, the RK4
stage field f + g u and the recorded h all come from that one evaluation,
and the maps' shapes are checked once per run.  Both loops raise the same
errors with the same messages at the same steps.  Their values agree bit
for bit where the plant's products are exact (the velocity-level
manipulator), and otherwise up to the rounding of numpy's fused dot
products (see manipulator).

evaluate_stack evaluates one spec at a stack of states in one pass, on a
plant that declares its stacked evaluation (core.PlantEvaluation.stack)
for the barrier and the spec's nominal (see stacks); the CLI's check and
margin grids use it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .analysis import DisturbanceSpec, margin, margin_of
from .core import (
    EPS_D,
    BarrierFunction,
    BlowUpError,
    CBFControlError,
    ConfigurationError,
    ControlAffineSystem,
    NumericsError,
    form_constraint,
)
from .formulas import (
    ControllerOutput,
    ControllerSpec,
    FormulaBatch,
    controller_terms,
    evaluate_controller,
    vectorisable,
)


@dataclass(frozen=True)
class SimConfig:
    dt: float = 1e-3
    horizon: float = 10.0
    integrator: str = "rk4"
    record_every: int = 1
    zoh: bool = False
    allow_unsafe_start: bool = False

    def __post_init__(self):
        for name, kind, what in (
            ("dt", numbers.Real, "a number"),
            ("horizon", numbers.Real, "a number"),
            ("record_every", numbers.Integral, "an integer"),
            ("integrator", str, "a string"),
            ("zoh", bool, "true or false"),
            ("allow_unsafe_start", bool, "true or false"),
        ):
            value = getattr(self, name)
            if not isinstance(value, kind) or (kind is not bool and isinstance(value, bool)):
                raise ConfigurationError(f"{name} must be {what}, got {value!r}")
        if not self.dt > 0.0:
            raise ConfigurationError(f"dt must be positive, got {self.dt}")
        if self.horizon < 0.0:
            raise ConfigurationError(f"horizon must be nonnegative, got {self.horizon}")
        if not math.isfinite(self.horizon):
            raise ConfigurationError(f"horizon must be finite, got {self.horizon}")
        if not math.isfinite(self.horizon / self.dt):
            raise ConfigurationError(
                f"horizon / dt must be a finite step count, got {self.horizon} / {self.dt}"
            )
        if self.horizon > 0.0 and self.dt > self.horizon:
            raise ConfigurationError(
                f"dt={self.dt} exceeds horizon={self.horizon}"
            )
        if self.record_every < 1:
            raise ConfigurationError(f"record_every must be >= 1, got {self.record_every}")
        if self.integrator not in ("rk4", "euler"):
            raise ConfigurationError(f"unknown integrator {self.integrator!r}")

    @property
    def n_steps(self) -> int:
        """Steps of dt in the horizon; 0 for a zero horizon."""
        return int(round(self.horizon / self.dt)) if self.horizon > 0.0 else 0


@dataclass
class Trajectory:
    """Time-indexed record of one closed-loop run.

    All arrays share the same leading length; times are uniformly spaced by
    dt * record_every.  kappas and margins are NaN where the controller
    kind defines no tunable term.  correction_norms holds the norm of the
    formula part of the input (u minus the nominal for a filter), the
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
        """The least recorded h; NaN for a trajectory with no rows."""
        return float(np.min(self.h_values)) if len(self) else math.nan


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

    if integrator not in ("euler", "rk4"):
        raise ConfigurationError(f"unknown integrator {integrator!r}")
    return _finite(_advance(f_cl, x, dt, integrator, f_cl(x)), x)


def _advance(
    field: Callable[[np.ndarray], np.ndarray],
    x: np.ndarray,
    dt: float,
    integrator: str,
    k1: np.ndarray,
) -> np.ndarray:
    """One Euler or RK4 step of xdot = field(y) from the state x, where
    k1 = field(x); the new state is not checked."""
    if integrator == "euler":
        return x + dt * k1
    k2 = field(x + (0.5 * dt) * k1)
    k3 = field(x + (0.5 * dt) * k2)
    k4 = field(x + dt * k3)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _finite(x_new: np.ndarray, x: np.ndarray) -> np.ndarray:
    """x_new, the step from x; NumericsError where it is not finite."""
    if not np.isfinite(x_new).all():
        raise NumericsError(f"state became non-finite after one step from x={x}")
    return x_new


def _declared(system: ControlAffineSystem, barrier: BarrierFunction, spec: ControllerSpec):
    """The system's plant evaluation where it is declared for this barrier
    and the spec's nominal (compared by identity); None otherwise."""
    ev = system.evaluation
    if ev is not None and barrier is ev.barrier and spec.nominal is ev.nominal:
        return ev
    return None


def point_evaluation(system: ControlAffineSystem, barrier: BarrierFunction, spec: ControllerSpec):
    """(at, maps): at(y) gives (f, g, h, con, k_d) at a state y, con the
    pair (c, d) and k_d the spec's nominal (None for none); maps(y) gives
    (f, g) alone, for the stages of a zero-order hold.

    at calls the system's plant evaluation once where it is declared for
    this barrier and nominal (core.PlantEvaluation.arrays), and otherwise
    each separate map once, converted as evaluate_constraint converts it;
    either equals evaluate_constraint and the maps at y, bit for bit.  It
    checks the maps' shapes at its first call.
    """
    ev = _declared(system, barrier, spec)
    nominal = spec.nominal
    if ev is not None:
        terms = ev.arrays

        def maps(y: np.ndarray) -> tuple:
            return terms(y)[:2]

    else:
        drift, input_map, gradient, value = system.drift, system.input_map, barrier.gradient, barrier.value

        def maps(y: np.ndarray) -> tuple:
            return np.asarray(drift(y), dtype=float), np.asarray(input_map(y), dtype=float)

        def terms(y: np.ndarray) -> tuple:
            f, g = maps(y)
            grad = np.asarray(gradient(y), dtype=float)
            kd = None if nominal is None else np.asarray(nominal(y), dtype=float)
            return f, g, float(value(y)), grad, kd

    classk = barrier.classk
    checked = False

    def at(y: np.ndarray) -> tuple:
        nonlocal checked
        f, g, h, grad, kd = terms(y)
        if not checked:
            _check_shapes(system, None, f, g, h, grad, kd)
            checked = True
        return f, g, h, form_constraint(y, f, g, h, grad, classk), kd

    return at, maps


def run(
    system: ControlAffineSystem,
    spec: ControllerSpec,
    barrier: BarrierFunction,
    x0: np.ndarray,
    cfg: SimConfig,
    disturbance: Optional[DisturbanceSpec] = None,
) -> Trajectory:
    """Simulate the closed loop and record the trajectory.

    At every evaluation point the controller is evaluate_controller on the
    constraint pair that point_evaluation forms.  The disturbance is added
    to the input after controller evaluation, at the pre-step time; it must
    be an (m,) vector, checked at t = 0 before the first step.  The start
    state must satisfy h(x0) >= 0 unless allow_unsafe_start.
    """
    if not isinstance(spec, ControllerSpec):
        raise ConfigurationError(f"run takes one ControllerSpec, got {type(spec).__name__}")
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
    if disturbance is not None:
        _check_disturbance(disturbance, system.input_dim)
    return _run_scalar(system, spec, barrier, x0, cfg, disturbance)


def _check_disturbance(disturbance: DisturbanceSpec, m: int) -> None:
    """Raise ConfigurationError unless the disturbance at t = 0 is an (m,) vector.

    A disturbance that raises there is left to the loop, which records the
    failure at step 0.
    """
    try:
        w = disturbance.at(0.0, m)
    except CBFControlError:
        return
    if np.shape(w) != (m,):
        raise ConfigurationError(f"disturbance has shape {np.shape(w)}, expected ({m},)")


_ROWS = ("times", "states", "inputs", "h_values", "residuals", "kappas", "margins", "correction_norms")


def _run_scalar(
    system: ControlAffineSystem,
    spec: ControllerSpec,
    barrier: BarrierFunction,
    x0: np.ndarray,
    cfg: SimConfig,
    disturbance: Optional[DisturbanceSpec],
) -> Trajectory:
    """The closed loop from x0: the float loop where the plant declares its
    evaluation for this barrier and nominal and the policy is not
    kappa_direct, else the numpy loop."""
    ev = _declared(system, barrier, spec)
    if ev is not None and (spec.policy is None or spec.policy.kind != "kappa_direct"):
        return _run_floats(ev.floats, system, spec, barrier.classk, x0, cfg, disturbance)
    n_steps = cfg.n_steps
    m = system.input_dim
    rows = {name: [] for name in _ROWS}
    failure: Optional[str] = None
    failure_step: Optional[int] = None
    at, maps = point_evaluation(system, barrier, spec)

    def applied(out: ControllerOutput) -> np.ndarray:
        return out.u if w is None else out.u + w

    def evaluate(y: np.ndarray):
        f, g, h, con, kd = at(y)
        return f, g, h, con, evaluate_controller(spec, con, y, kd)

    # The closed-loop field at RK4 stages 2-4, where the controller is
    # evaluated or, under the zero-order hold, held at u_k.
    def field(y: np.ndarray) -> np.ndarray:
        if cfg.zoh:
            f, g = maps(y)
            return f + g @ u_k
        f, g, _, _, out = evaluate(y)
        return f + g @ applied(out)

    x = x0.copy()
    k = 0
    try:
        while True:
            w = disturbance.at(k * cfg.dt, m) if disturbance is not None else None
            f_k, g_k, h_k, con_k, out_k = evaluate(x)
            u_k = applied(out_k)
            if k % cfg.record_every == 0:
                rows["times"].append(k * cfg.dt)
                rows["states"].append(x.copy())
                rows["inputs"].append(out_k.u)  # a new array at every evaluation
                rows["h_values"].append(h_k)
                rows["residuals"].append(con_k.c + float(con_k.d @ u_k))
                rows["kappas"].append(out_k.kappa if out_k.kappa is not None else math.nan)
                rows["margins"].append(margin_of(out_k))
                rows["correction_norms"].append(out_k.lam * con_k.d_norm)
            if k >= n_steps:
                break
            try:
                # RK4 stage 1 (the Euler stage) is the field at x_k under u_k.
                x = _finite(_advance(field, x, cfg.dt, cfg.integrator, f_k + g_k @ u_k), x)
            except NumericsError as exc:
                raise BlowUpError(str(exc), step_index=k) from exc
            k += 1
    except CBFControlError as exc:
        failure, failure_step = _failure(exc, k)
    return _trajectory(rows.values(), system, failure, failure_step)


def _failure(exc: CBFControlError, k: int) -> tuple[str, int]:
    """(failure, failure_step) of a run that exc stopped at step k."""
    if isinstance(exc, BlowUpError):
        return f"blow-up at step {exc.step_index}: {exc}", exc.step_index
    return f"{type(exc).__name__} at step {k}: {exc}", k


def _trajectory(rows, system: ControlAffineSystem, failure, failure_step) -> Trajectory:
    """The Trajectory of the recorded rows, one list per field in _ROWS order."""
    arrays = {name: np.asarray(values) for name, values in zip(_ROWS, rows)}
    # A run that records no row keeps the width of its states and inputs.
    arrays["states"] = arrays["states"].reshape(-1, system.state_dim)
    arrays["inputs"] = arrays["inputs"].reshape(-1, system.input_dim)
    return Trajectory(**arrays, failure=failure, failure_step=failure_step)


def _dot(n: int) -> Callable[[Sequence[float], Sequence[float]], float]:
    """a . b of two sequences of n floats as the sum a0*b0 + a1*b1 + ..., left to right."""
    # Unrolled for the manipulator's input (2) and states (3 and 5): a
    # tenth of the torque run's time goes to the loop below otherwise.
    unrolled = {
        2: lambda a, b: a[0] * b[0] + a[1] * b[1],
        3: lambda a, b: a[0] * b[0] + a[1] * b[1] + a[2] * b[2],
        5: lambda a, b: a[0] * b[0] + a[1] * b[1] + a[2] * b[2] + a[3] * b[3] + a[4] * b[4],
    }
    if n in unrolled:
        return unrolled[n]

    def dot(a, b):
        s = a[0] * b[0]
        for i in range(1, n):
            s += a[i] * b[i]
        return s

    return dot


def _run_floats(floats, system, spec, classk, x0, cfg: SimConfig, disturbance) -> Trajectory:
    """_run_scalar's loop on the plant's declared floats (see the module
    docstring); every product that numpy's loop forms with @ is a _dot."""
    n, m = system.state_dim, system.input_dim
    dot_n, dot_m = _dot(n), _dot(m)
    n_steps, dt, every, zoh = cfg.n_steps, cfg.dt, cfg.record_every, cfg.zoh
    half_dt, sixth_dt = 0.5 * dt, dt / 6.0
    euler = cfg.integrator == "euler"
    filtered = spec.nominal is not None
    isfinite, sqrt, nan = math.isfinite, math.sqrt, math.nan
    rows = [[] for _ in _ROWS]
    times, states, inputs, h_values, residuals, kappas, margins_, norms = rows
    failure: Optional[str] = None
    failure_step: Optional[int] = None
    checked = False

    def evaluate(y: tuple) -> tuple:
        """(f, g, h, c, d, d2, c_bar, lam, kappa, gam, u) at the state y."""
        nonlocal checked
        f, g, h, grad, kd = floats(y)
        if not checked:
            _check_shapes(system, None, f, g, h, grad, kd)
            checked = True
        c = dot_n(grad, f) + classk(h)
        d = tuple([dot_n(grad, col) for col in zip(*g)])
        d2 = dot_m(d, d)
        if not (isfinite(c) and (isfinite(d2) or all(map(isfinite, d)))):
            raise NumericsError(f"constraint evaluation not finite at x={np.asarray(y)}: c={c}, d={np.asarray(d)}")
        c_bar = c + dot_m(d, kd) if filtered else c
        lam, kappa, gam = controller_terms(spec, c, c_bar, d2, y, d)
        u = tuple([lam * dj + kj for dj, kj in zip(d, kd)] if filtered else [lam * dj for dj in d])
        return f, g, h, c, d, d2, c_bar, lam, kappa, gam, u

    def field(y: tuple) -> list:
        """The closed-loop field at an RK4 stage 2-4 state (see _run_scalar's)."""
        if zoh:
            f, g = floats(y)[:2]
            a = u_k
        else:
            f, g, *_, u = evaluate(y)
            a = u if w is None else [ui + wi for ui, wi in zip(u, w)]
        return [fi + dot_m(gi, a) for fi, gi in zip(f, g)]

    x = tuple(np.asarray(x0, dtype=float).tolist())
    k = 0
    try:
        while True:
            w = disturbance.at(k * dt, m).tolist() if disturbance is not None else None
            f, g, h, c, d, d2, c_bar, lam, kappa, gam, u = evaluate(x)
            u_k = u if w is None else [ui + wi for ui, wi in zip(u, w)]
            if k % every == 0:
                times.append(k * dt)
                states.append(x)
                inputs.append(u)
                h_values.append(h)
                residuals.append(c + dot_m(d, u_k))
                kappas.append(nan if kappa is None else kappa)
                margins_.append(margin(c_bar, kappa, gam))
                norms.append(lam * sqrt(d2))
            if k >= n_steps:
                break
            try:
                k1 = [fi + dot_m(gi, u_k) for fi, gi in zip(f, g)]
                if euler:
                    x_new = tuple([xi + dt * a for xi, a in zip(x, k1)])
                else:
                    k2 = field(tuple([xi + half_dt * a for xi, a in zip(x, k1)]))
                    k3 = field(tuple([xi + half_dt * a for xi, a in zip(x, k2)]))
                    k4 = field(tuple([xi + dt * a for xi, a in zip(x, k3)]))
                    x_new = tuple(
                        [xi + sixth_dt * (a + 2.0 * b + 2.0 * e + z) for xi, a, b, e, z in zip(x, k1, k2, k3, k4)]
                    )
                if not all(map(isfinite, x_new)):
                    raise NumericsError(f"state became non-finite after one step from x={np.asarray(x)}")
            except NumericsError as exc:
                raise BlowUpError(str(exc), step_index=k) from exc
            x = x_new
            k += 1
    except CBFControlError as exc:
        failure, failure_step = _failure(exc, k)
    return _trajectory(rows, system, failure, failure_step)


class Stage(NamedTuple):
    """The evaluation at a stack of states: the plant's maps, the constraint
    (c, d) and the formula at (c_bar, d), c_bar = c + d.k_d."""

    f: np.ndarray
    g: np.ndarray
    h: np.ndarray
    c: np.ndarray
    d: np.ndarray
    d2: float
    c_bar: np.ndarray
    lam: np.ndarray
    kappa: np.ndarray
    gam: np.ndarray
    u: np.ndarray


def stacks(system: ControlAffineSystem, barrier: BarrierFunction, spec: ControllerSpec) -> bool:
    """Whether evaluate_stack evaluates spec: a vectorisable spec (see
    formulas.FormulaBatch), bare or around the declared nominal, on a system
    that declares a stacked evaluation (core.PlantEvaluation.stack) for this
    barrier."""
    ev = system.evaluation
    return (
        ev is not None
        and ev.stack is not None
        and barrier is ev.barrier
        and vectorisable(spec)
        and (spec.nominal is None or spec.nominal is ev.nominal)
    )


def evaluate_stack(system, barrier, nominal, ys: np.ndarray, kernel: FormulaBatch) -> tuple[Stage, np.ndarray]:
    """The stage at the stack of states ys (B, n), around the nominal (None
    for none), and the rows that the kernel flags.

    The maps come from one call of the system's stacked evaluation, whose
    output shapes are checked (see core.PlantEvaluation and stacks), and the
    kernel's one spec is broadcast over the rows.  Each value equals
    evaluate_constraint's and evaluate_controller's at the row, bit for bit,
    where the maps are exact in this order of operations; a row where the
    filter's unshifted c is infeasible is flagged too.
    """
    f, g, h, grad, kd = system.evaluation.stack(ys)
    if nominal is None:
        kd = None  # a bare spec runs around no nominal, whatever the declaration's
    _check_shapes(system, len(ys), f, g, h, grad, kd)
    c = f @ grad + barrier.classk.fn(h)
    d = grad @ g
    d2 = d @ d  # a numpy float: the kernel's array ops take it faster than a Python float
    c_bar = c if kd is None else c + kd @ d
    lam, kappa, gam, flagged = kernel(c_bar, d2)
    u = lam[:, None] * d
    if kd is not None:
        u = u + kd
        if d2 <= EPS_D:  # evaluate_controller tests the unshifted c before c_bar
            flagged = flagged | (c <= 0.0)
    return Stage(f, g, h, c, d, d2, c_bar, lam, kappa, gam, u), flagged


def _check_shapes(system, b, f, g, h, grad, kd) -> None:
    """The maps' output shapes at a stack of b states, or at one state (b None)."""
    n, m = system.state_dim, system.input_dim
    one = b is None
    where = "one state" if one else f"a stack of {b} states"
    for name, arr, shapes in (
        ("drift", f, [(n,)] if one else [(n,), (b, n)]),
        ("input_map", g, [(n, m)]),
        ("barrier value", h, [()] if one else [(b,)]),
        ("barrier gradient", grad, [(n,)]),
        ("nominal", kd, [(m,)] if one else [(b, m)]),
    ):
        if arr is not None and np.shape(arr) not in shapes:
            raise ConfigurationError(
                f"{name} of {where} has shape {np.shape(arr)}, expected one of {shapes}"
            )
