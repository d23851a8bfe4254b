"""Shared domain types for barrier-based safety control.

A control-affine system ``xdot = f(x) + g(x) u`` together with a barrier
function ``h`` induces, at every state, one affine inequality on the input:

    c(x) + d(x) u >= 0,   c = (dh/dx) f + beta(h),   d = (dh/dx) g.

Everything downstream (controller formulas, margins, simulation) consumes
that pointwise pair ``(c, d)``.  All types here are immutable after
construction and every operation is a pure function of its arguments.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

# Threshold on ||d||^2 below which the input direction is treated as zero.
# The formulas are exactly piecewise at d = 0; a threshold avoids
# catastrophic cancellation right at the switch.
EPS_D = 1e-12

# Gamma's direct form is exact to rounding only where its sum is a normal float.
_DBL_MIN = sys.float_info.min
_DBL_MAX = sys.float_info.max

_FLOAT = np.dtype(float)


class CBFControlError(Exception):
    """Base class for errors raised by this library."""


class ConfigurationError(CBFControlError):
    """Bad dimensions, invalid parameters, or malformed scenario config."""


class NumericsError(CBFControlError):
    """A map returned non-finite values for a finite state."""


class InfeasibleConstraintError(CBFControlError):
    """d = 0 with c <= 0: no input can satisfy the strict constraint."""


class KappaRangeError(CBFControlError):
    """Tunable term outside its validity range at the evaluated point."""


class DomainError(CBFControlError):
    """(c, d) outside the open domain {c > 0 or d > 0}."""


class IncompatibleInputError(CBFControlError):
    """Constraint cannot be met within the input norm bound."""

    def __init__(self, message: str, deficit: float):
        super().__init__(message)
        self.deficit = deficit


class DegenerateMarginError(CBFControlError):
    """Safety-margin denominator c - kappa*Gamma is numerically zero."""


class BlowUpError(NumericsError):
    """Integration produced a non-finite state."""

    def __init__(self, message: str, step_index: int):
        super().__init__(message)
        self.step_index = step_index


@dataclass(frozen=True)
class ExtendedClassK:
    """Strictly increasing scalar function fn with value 0 at 0.

    Use :meth:`linear` for ``beta(s) = alpha * s`` or :meth:`custom` for an
    arbitrary map (validated at 0 on construction; monotonicity is only
    checked by tests on sampled grids).
    """

    fn: Callable[[float], float]

    @classmethod
    def linear(cls, alpha: float) -> "ExtendedClassK":
        if not alpha > 0.0:
            raise ConfigurationError(f"class-K slope must be positive, got {alpha}")
        return cls(fn=lambda s: alpha * s)

    @classmethod
    def custom(cls, fn: Callable[[float], float]) -> "ExtendedClassK":
        if fn(0.0) != 0.0:
            raise ConfigurationError("class-K function must map 0 to exactly 0")
        return cls(fn=fn)

    def __call__(self, s: float) -> float:
        return float(self.fn(s))


@dataclass(frozen=True)
class ShapingFunction:
    """Shaping term ``s`` with s(0) = 0 and s(y) > 0 for y > 0.

    The argument is always ||d||^2, never ||d||.
    """

    fn: Callable[[float], float]
    kind: str = "custom"
    sigma: float | None = None

    @classmethod
    def linear(cls, sigma: float) -> "ShapingFunction":
        if not sigma > 0.0:
            raise ConfigurationError(f"shaping slope must be positive, got {sigma}")
        return cls(fn=lambda y: sigma * y, kind="linear", sigma=float(sigma))

    @classmethod
    def custom(cls, fn: Callable[[float], float]) -> "ShapingFunction":
        if fn(0.0) != 0.0:
            raise ConfigurationError("shaping function must map 0 to exactly 0")
        return cls(fn=fn, kind="custom")

    def __call__(self, y: float) -> float:
        return float(self.fn(y))


@dataclass(frozen=True)
class ControlAffineSystem:
    """Control-affine dynamics ``xdot = drift(x) + input_map(x) u``.

    drift maps a state vector (n,) to (n,); input_map maps it to (n, m).
    evaluation declares how these maps are evaluated with a barrier and a
    nominal, per state and over a stack of states (see PlantEvaluation);
    a run on others calls each separate map once per state instead.
    """

    state_dim: int
    input_dim: int
    drift: Callable[[np.ndarray], np.ndarray]
    input_map: Callable[[np.ndarray], np.ndarray]
    evaluation: "PlantEvaluation | None" = None

    def __post_init__(self):
        if self.state_dim < 1 or self.input_dim < 1:
            raise ConfigurationError(
                f"dimensions must be positive, got n={self.state_dim}, m={self.input_dim}"
            )


@dataclass(frozen=True)
class BarrierFunction:
    """Scalar barrier h, its gradient, and the class-K term beta.

    The safe set is {x : h(x) >= 0}; its boundary and interior are carried
    implicitly by the sign of h.  Gradients are supplied analytically.
    """

    value: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    classk: ExtendedClassK


@dataclass(frozen=True)
class PlantEvaluation:
    """How a plant's maps are formed with the barrier and nominal built beside it.

    floats maps a state, a tuple of n floats, to (f, g, h, grad_h, k_d) in
    Python floats: the drift (n floats), the input map (n rows of m floats),
    the barrier value (a float), its gradient (n floats) and the nominal
    input (m floats), or None for no nominal, each equal, bit for bit, to
    what the separate maps give at that state.  arrays gives the same tuple
    at a state array, with f, g, grad_h and k_d as new arrays.  stack, where
    declared, maps a stack of states (B, n) to the same tuple: f (B, n) or
    one (n,) shared by the stack, g one (n, m) and grad_h one (n,) shared
    by the stack, h (B,) and k_d (B, m), each row equal to arrays' where the
    maps are exact in numpy's order of operations; only such a plant runs
    members together (simulate.run).  Both hold for this barrier and this
    nominal only (compared by identity), and for the drift and input map
    of the system that declares them; a run on any other builds the tuple
    from the separate maps (simulate.point_evaluation).
    """

    floats: Callable[[tuple], tuple]
    barrier: BarrierFunction
    nominal: Callable[[np.ndarray], np.ndarray] | None = None
    stack: Callable[[np.ndarray], tuple] | None = None

    def arrays(self, x: np.ndarray) -> tuple:
        """(f, g, h, grad_h, k_d) at the state array x, from floats."""
        f, g, h, grad, kd = self.floats(tuple(np.asarray(x, dtype=float).tolist()))
        kd = None if kd is None else np.array(kd, dtype=float)
        return np.array(f, dtype=float), np.array(g, dtype=float), h, np.array(grad, dtype=float), kd


@dataclass(frozen=True)
class AffineConstraint:
    """The pointwise constraint pair: c + d u >= 0 must be achievable.

    Valid for controller synthesis only if c > 0 whenever ||d|| = 0
    (strict-inequality convention); that is enforced where controllers are
    evaluated, not here.  d_norm_sq = d . d is formed once, here, and every
    formula reads it from the constraint.
    """

    c: float
    d: np.ndarray
    d_norm_sq: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        c = float(self.c)
        object.__setattr__(self, "c", c)
        d = self.d
        if type(d) is not np.ndarray or d.dtype is not _FLOAT or d.ndim != 1:
            d = np.atleast_1d(np.asarray(d, dtype=float))
            object.__setattr__(self, "d", d)
        d2 = float(d @ d)
        # A finite d whose square overflows still constructs, with d_norm_sq inf.
        if not math.isfinite(c) or not (math.isfinite(d2) or np.isfinite(d).all()):
            raise NumericsError(f"constraint pair is not finite: c={c}, d={d}")
        object.__setattr__(self, "d_norm_sq", d2)

    @property
    def d_norm(self) -> float:
        return math.sqrt(self.d_norm_sq)


@dataclass(frozen=True)
class TunableTermPolicy:
    """How the tunable term kappa is produced at each evaluation.

    Policies are resolved in (c, ||d||^2) space except for ``kappa_direct``
    which reads the raw state.  Constant eta in [0.5, 1] is safe by
    construction; values in (0, 0.5) are accepted but rely on per-state
    range checks at evaluation time.
    """

    kind: str
    eta: float | None = None
    eta_fn: Callable[[float, float], float] | None = None
    kappa_fn: Callable[[np.ndarray], float] | None = None

    @classmethod
    def eta_constant(cls, eta: float) -> "TunableTermPolicy":
        if not 0.0 < eta <= 1.0:
            raise ConfigurationError(f"eta must lie in (0, 1], got {eta}")
        return cls(kind="eta_constant", eta=float(eta))

    @classmethod
    def eta_function(cls, fn: Callable[[float, float], float]) -> "TunableTermPolicy":
        return cls(kind="eta_function", eta_fn=fn)

    @classmethod
    def kappa_direct(cls, fn: Callable[[np.ndarray], float]) -> "TunableTermPolicy":
        return cls(kind="kappa_direct", kappa_fn=fn)


def evaluate_constraint(
    system: ControlAffineSystem, barrier: BarrierFunction, x: np.ndarray
) -> AffineConstraint:
    """Form the pointwise pair (c, d) at state x.

    c = grad(h) . f + beta(h),  d = grad(h) . g.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (system.state_dim,):
        raise ConfigurationError(
            f"state has shape {x.shape}, expected ({system.state_dim},)"
        )
    f = np.asarray(system.drift(x), dtype=float)
    g = np.asarray(system.input_map(x), dtype=float)
    if f.shape != (system.state_dim,):
        raise ConfigurationError(f"drift returned shape {f.shape}, expected ({system.state_dim},)")
    if g.shape != (system.state_dim, system.input_dim):
        raise ConfigurationError(
            f"input_map returned shape {g.shape}, expected "
            f"({system.state_dim}, {system.input_dim})"
        )
    grad = np.asarray(barrier.gradient(x), dtype=float)
    if grad.shape != (system.state_dim,):
        raise ConfigurationError(
            f"barrier gradient has shape {grad.shape}, expected ({system.state_dim},)"
        )
    return form_constraint(x, f, g, float(barrier.value(x)), grad, barrier.classk)


def form_constraint(
    x: np.ndarray, f: np.ndarray, g: np.ndarray, h: float, grad: np.ndarray, classk: ExtendedClassK
) -> AffineConstraint:
    """The pair c = grad . f + beta(h), d = grad . g from the maps' values at
    state x; NumericsError, naming x, where it is not finite."""
    c = float(grad @ f) + classk(h)
    d = grad @ g
    try:
        return AffineConstraint(c=c, d=d)
    except NumericsError as exc:
        raise NumericsError(f"constraint evaluation not finite at x={x}: c={c}, d={d}") from exc


def Gamma(c: float, d2: float, shaping: ShapingFunction) -> float:
    """Tightening magnitude sqrt(c^2 + s(d2) d2) at (c, ||d||^2); always >= |c|.

    Where the direct form overflows, or its sum c^2 + s(d2) d2 is below the
    smallest normal float (subnormal or 0, and so imprecise), the same value
    is taken as hypot(c, sqrt(s(d2)) sqrt(d2)); a Gamma that is still not
    finite raises NumericsError rather than reaching a multiplier.
    """
    s = shaping(d2)
    sq = c * c + s * d2
    if _DBL_MIN <= sq <= _DBL_MAX:
        return math.sqrt(sq)
    gam = math.hypot(c, math.sqrt(s) * math.sqrt(d2))
    if not math.isfinite(gam):
        raise NumericsError(f"Gamma is not finite at c={c}, ||d||^2={d2}")
    return gam


def gamma_sontag(con: AffineConstraint, shaping: ShapingFunction) -> float:
    """Gamma at the constraint pair con."""
    return Gamma(con.c, con.d_norm_sq, shaping)
