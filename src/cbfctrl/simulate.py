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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .analysis import DisturbanceSpec, margin_of
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
from .formulas import ControllerOutput, ControllerSpec, evaluate_controller


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
    spec: ControllerSpec,
    barrier: BarrierFunction,
    x0: np.ndarray,
    cfg: SimConfig,
    disturbance: Optional[DisturbanceSpec] = None,
) -> Trajectory:
    """Simulate the closed loop and record the trajectory.

    The controller is composed as evaluate_constraint followed by
    evaluate_controller at every evaluation point.  The disturbance is
    added to the input after controller evaluation, at the pre-step time.
    The start state must satisfy h(x0) >= 0 unless allow_unsafe_start.
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

    def evaluate(y: np.ndarray) -> tuple[AffineConstraint, ControllerOutput]:
        con = evaluate_constraint(system, barrier, y)
        return con, evaluate_controller(spec, con, y)

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

            # step calls the controller at x itself only for stage 1, which
            # reuses u_k; the zero-order hold reuses it at every stage.
            def controller(y: np.ndarray, x_k=x, u_k=u_k, w=w) -> np.ndarray:
                if cfg.zoh or y is x_k:
                    return u_k
                u = evaluate(y)[1].u
                return u if w is None else u + w

            try:
                x = step(system, controller, x, cfg.dt, cfg.integrator)
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
