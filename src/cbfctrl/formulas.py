"""Closed-form controller formulas built on the pointwise pair (c, d).

Every formula is one multiplier, u = lambda * d^T (plus the nominal for the
safety filter), with

    lambda = (-c + kappa * Gamma) / ||d||^2,   Gamma = sqrt(c^2 + s(||d||^2) ||d||^2).

min-norm is its ReLU at kappa = 0, sontag kappa = 1, and tunable takes
kappa from a policy, usually kappa = (1 - eta) c / Gamma + eta (eta = 1 is
sontag, eta = 0.5 half of it), in the smooth or the ReLU form.
bounded_input is the ReLU form with kappa capped so that ||u|| <= gamma.

One range rule, :func:`check_kappa_range`, holds for every kind: kappa is
at most 1, or slack / Gamma with slack = gamma ||d|| + c for bounded_input;
it exceeds 0 in the ReLU forms and max(c / Gamma, 0) in the smooth ones,
whose tie kappa Gamma = c (a multiplier of exactly 0) is admitted as the
continuous limit, as is kappa = 0 where the bounded-input slack is exactly
0 (the range closes to that point, and u is the min-norm input of norm
gamma); where ||d||^2 <= EPS_D the multiplier is 0 whatever kappa, and only
kappa > 0 is required.

The scalar functions live in (c, ||d||^2) space: their d or d2 argument is
always the squared norm of the constraint direction, which
:class:`AffineConstraint` forms once and evaluate_controller reads from it.
A spec with a nominal k_d is a safety filter, evaluated in one pass over
the same pair: c is shifted to c + d k_d(x) (:func:`filter_offset`),
checked as c is, and the spec's formula runs there, with no second
constraint and one output.  :class:`FormulaBatch` evaluates the same
formulas for one spec over a stack of points, with one numpy call per
operation.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .core import (
    EPS_D,
    AffineConstraint,
    ConfigurationError,
    DomainError,
    Gamma,
    IncompatibleInputError,
    InfeasibleConstraintError,
    KappaRangeError,
    NumericsError,
    ShapingFunction,
    TunableTermPolicy,
)


# core.Gamma's direct form sqrt(c^2 + s(d2) d2) needs a normal, finite sum: in [_DBL_MIN, _DBL_MAX].
_DBL_MIN = sys.float_info.min
_DBL_MAX = sys.float_info.max
_SQRT_DBL_MIN = math.sqrt(_DBL_MIN)


def _multiplier(c: float, d2: float, kappa: float, gam: float) -> float:
    """ReLU((-c + kappa*Gamma) / d2); 0 when d2 ~ 0.

    The clip acts on the ReLU forms only: in its kappa range the smooth form is never negative.
    """
    if d2 <= EPS_D:
        return 0.0
    lam = (kappa * gam - c) / d2
    return lam if lam > 0.0 else 0.0


def lambda_min_norm(c: float, d: float) -> float:
    """Smallest nonnegative multiplier with c + lam*d >= 0; 0 when d ~ 0."""
    return _multiplier(c, d, 0.0, 0.0)


def norm_bound_slack(c: float, d2: float, gamma_bound: float) -> float:
    """gamma*||d|| + c: nonnegative iff some ||u|| <= gamma meets c + d u >= 0."""
    return gamma_bound * math.sqrt(d2) + c


def check_kappa_range(
    kappa: float, c: float, d2: float, gam: float,
    relu: bool = False, gamma_bound: float | None = None,
) -> None:
    """Raise KappaRangeError unless kappa is in range (see the module docstring).

    relu selects the ReLU form's lower bound, gamma_bound the bounded-input upper bound.
    """
    if d2 > EPS_D:
        upper = 1.0 if gamma_bound is None else norm_bound_slack(c, d2, gamma_bound) / gam
        if not kappa <= upper:
            raise KappaRangeError(f"kappa={kappa} violates the upper bound kappa <= {upper}")
        if not relu:
            num = kappa * gam - c
            if num != 0.0 and (num < 0.0 or kappa <= 0.0):
                lower = max(c / gam, 0.0)
                raise KappaRangeError(f"kappa={kappa} violates the lower bound {lower}")
            return
        if kappa == upper == 0.0:
            return
    if not kappa > 0.0:
        raise KappaRangeError(f"kappa={kappa} violates the lower bound 0")


def _kappa_of_eta(c: float, d2: float, eta: float, gam: float) -> float:
    """kappa = (1 - eta) c / Gamma + eta on the domain {c > 0 or d2 > EPS_D};
    in the smooth range max(c / Gamma, 0) < kappa <= 1 for eta in [0.5, 1]."""
    if c <= 0.0 and d2 <= EPS_D:
        raise DomainError(f"(c={c}, d={d2}) has c <= 0 and d ~ 0: outside the domain of kappa")
    return (1.0 - eta) * (c / gam) + eta


def lin_sontag_eta(
    gamma_bound: float, shaping: ShapingFunction
) -> Callable[[float, float], float]:
    """Norm-bound-aware eta map: 1 / (sqrt(s(d)/gamma^2 + 1) + 1).

    Suitable for :meth:`TunableTermPolicy.eta_function`; it is the default
    policy of the bounded-input kind and is feasible whenever the bound is
    strictly compatible with the constraint.  At exact compatibility its
    kappa is 0 only up to rounding: the range check admits it where it
    rounds to exactly 0 and rejects it otherwise.
    """
    g2 = gamma_bound * gamma_bound

    def eta_fn(c: float, d: float) -> float:
        return 1.0 / (math.sqrt(shaping(d) / g2 + 1.0) + 1.0)

    return eta_fn


@dataclass(frozen=True)
class ControllerOutput:
    """Result of one controller evaluation.

    u is the full input (nominal included for a filter); lam is the
    formula multiplier so that the formula part of u equals lam * d^T.
    residual is c + d.u minus the right-hand side the formula was required
    to meet (0 for min-norm, kappa*Gamma for tunable kinds).  c_eff and
    gamma_eff are the constraint offset and tightening actually used
    (shifted by the nominal for a filter); gamma_eff is NaN for the
    min-norm kind, which has no tightening.
    """

    u: np.ndarray
    lam: float
    kappa: Optional[float]
    residual: float
    c_eff: float
    gamma_eff: float


@dataclass(frozen=True)
class ControllerSpec:
    """Declarative description of which formula to evaluate.

    Kinds: ``qp`` (min-norm), ``sontag``, ``tunable`` (smooth by default,
    ReLU via flag), ``bounded_input`` (ReLU form restricted so that
    ||u|| <= gamma).  A spec with a nominal input k_d(x) is a safety filter
    of its kind around that nominal.
    """

    kind: str
    shaping: ShapingFunction | None = None
    policy: TunableTermPolicy | None = None
    relu: bool = False
    gamma: float | None = None
    nominal: Callable[[np.ndarray], np.ndarray] | None = None

    @classmethod
    def qp(cls) -> "ControllerSpec":
        return cls(kind="qp")

    @classmethod
    def sontag(cls, shaping: ShapingFunction) -> "ControllerSpec":
        return cls(kind="sontag", shaping=shaping)

    @classmethod
    def tunable(
        cls,
        shaping: ShapingFunction,
        policy: TunableTermPolicy,
        relu: bool = False,
    ) -> "ControllerSpec":
        return cls(kind="tunable", shaping=shaping, policy=policy, relu=relu)

    @classmethod
    def safety_filter(
        cls,
        inner: "ControllerSpec",
        nominal: Callable[[np.ndarray], np.ndarray],
    ) -> "ControllerSpec":
        """The spec inner as a safety filter around nominal."""
        if inner.nominal is not None:
            raise ConfigurationError(f"safety_filter cannot wrap a {inner.kind!r} spec that has a nominal")
        if not callable(nominal):  # a spec without a nominal is a bare one, see simulate.stacks
            raise ConfigurationError(f"safety_filter needs a callable nominal, got {nominal!r}")
        return replace(inner, nominal=nominal)

    @classmethod
    def bounded_input(
        cls,
        shaping: ShapingFunction,
        gamma: float,
        policy: TunableTermPolicy | None = None,
    ) -> "ControllerSpec":
        """Without a policy, eta follows lin_sontag_eta(gamma, shaping)."""
        if gamma is None or not gamma > 0.0:
            raise ConfigurationError(f"input bound gamma must be positive, got {gamma}")
        if policy is None:
            policy = TunableTermPolicy.eta_function(lin_sontag_eta(gamma, shaping))
        return cls(
            kind="bounded_input", shaping=shaping, policy=policy, relu=True, gamma=float(gamma)
        )


def controller_spec(kind: str, sigma=None, eta=None, gamma=None, relu=False) -> ControllerSpec:
    """The spec of one kind from a config's controller section: linear shaping
    slope sigma, constant gain eta, input bound gamma, tunable form relu."""
    shaping = ShapingFunction.linear(sigma) if sigma is not None else None
    if kind == "qp":
        return ControllerSpec.qp()
    if kind == "sontag":
        return ControllerSpec.sontag(shaping)
    if kind == "tunable":
        return ControllerSpec.tunable(shaping, TunableTermPolicy.eta_constant(eta), bool(relu))
    if kind == "bounded_input":
        return ControllerSpec.bounded_input(shaping, gamma, TunableTermPolicy.eta_constant(eta))
    raise ConfigurationError(f"unknown controller kind {kind!r}")


def resolve_kappa(
    spec: ControllerSpec, c: float, d2: float, gam: float, x: np.ndarray | None = None
) -> float:
    """Produce kappa for the spec at the point (c, ||d||^2) with tightening gam."""
    if spec.kind == "sontag":
        return 1.0
    pol = spec.policy
    if pol is None:
        raise ConfigurationError(f"controller kind {spec.kind!r} requires a policy")
    if pol.kind == "eta_constant":
        return _kappa_of_eta(c, d2, pol.eta, gam)
    if pol.kind == "eta_function":
        return _kappa_of_eta(c, d2, float(pol.eta_fn(c, d2)), gam)
    if pol.kind == "kappa_direct":
        if x is None:
            raise ConfigurationError("kappa_direct policy needs the state x")
        return float(pol.kappa_fn(x))
    raise ConfigurationError(f"unknown policy kind {pol.kind!r}")


def _tunable_terms(
    spec: ControllerSpec, c: float, d2: float, x: np.ndarray | None
) -> tuple[float, float, float]:
    """(Gamma, kappa, lambda) of a sontag, tunable or bounded-input spec, kappa in range."""
    gam = Gamma(c, d2, spec.shaping)
    kappa = resolve_kappa(spec, c, d2, gam, x)
    check_kappa_range(kappa, c, d2, gam, spec.relu, spec.gamma)
    return gam, kappa, _multiplier(c, d2, kappa, gam)


def lambda_and_slope(spec: ControllerSpec, c: float, d2: float) -> tuple[float, float]:
    """Multiplier and its slope d(lambda)/dc for a qp, sontag or constant-eta tunable spec.

    With kappa = (1 - eta) c / Gamma + eta the multiplier is
    eta (Gamma - c) / d2, whose slope is eta (c / Gamma - 1) / d2 (sontag:
    eta = 1); the min-norm slope is -1 / d2 where its ReLU is active.
    """
    if spec.kind == "qp":
        return lambda_min_norm(c, d2), (-1.0 / d2 if c < 0.0 else 0.0)
    if spec.kind == "sontag":
        eta = 1.0
    elif spec.kind == "tunable" and spec.policy.kind == "eta_constant":
        eta = spec.policy.eta
    else:
        raise ConfigurationError(f"analytic Jacobians are not provided for kind {spec.kind!r}")
    gam, _, lam = _tunable_terms(spec, c, d2, None)
    return lam, eta * (-1.0 + c / gam) / d2


def filter_offset(
    spec: ControllerSpec, con: AffineConstraint, x: np.ndarray | None, kd: np.ndarray | None = None
) -> tuple[float, np.ndarray | None]:
    """(c_eff, k_d): a safety filter's offset c + d k_d(x) and its nominal,
    or (c, None) for a spec without a nominal.  kd is the nominal at x where
    the caller has it; without it the nominal is called.  The offset may be
    non-finite (see offset_not_finite).
    """
    if spec.nominal is None:
        return con.c, None
    kd = np.asarray(spec.nominal(x) if kd is None else kd, dtype=float)
    return con.c + float(con.d @ kd), kd


def _shown(v):
    """v as a message prints it: a tuple of floats, a state or direction of
    the float loop (see simulate), as the array it stands for."""
    return np.asarray(v) if type(v) is tuple else v


def offset_not_finite(c: float, d) -> NumericsError:
    """The error of a filter's shifted offset c, at direction d, that is not finite."""
    return NumericsError(f"constraint pair is not finite: c={c}, d={_shown(d)}")


def _infeasible(c: float, d2: float, x) -> InfeasibleConstraintError:
    return InfeasibleConstraintError(
        f"infeasible constraint: c={c} <= 0 with ||d||^2={d2} ~ 0"
        + (f" at x={_shown(x)}" if x is not None else "")
    )


def controller_terms(
    spec: ControllerSpec, c: float, c_bar: float, d2: float, x=None, d=None
) -> tuple[float, float | None, float]:
    """(lambda, kappa, Gamma) of spec at the pair (c, ||d||^2), in floats.

    c_bar is a safety filter's shifted offset c + d k_d(x) (see
    filter_offset), at which its formula runs; a spec without a nominal
    ignores it.  kappa is None and Gamma NaN for the min-norm kind.  Raises,
    in this order: InfeasibleConstraintError where ||d||^2 <= EPS_D with
    c <= 0, NumericsError where c_bar is not finite, InfeasibleConstraintError
    at c_bar as at c, IncompatibleInputError where the bounded-input kind
    cannot meet the constraint within its norm bound, and the errors of
    Gamma, the policy and check_kappa_range.  x is the state, which a
    kappa_direct policy reads and messages print, and d the direction,
    which messages print.
    """
    if d2 <= EPS_D and c <= 0.0:
        raise _infeasible(c, d2, x)
    if spec.nominal is not None:
        if not math.isfinite(c_bar):
            raise offset_not_finite(c_bar, d)
        c = c_bar
        if d2 <= EPS_D and c <= 0.0:
            raise _infeasible(c, d2, x)
    kind = spec.kind
    if kind == "qp":
        return lambda_min_norm(c, d2), None, math.nan
    if kind not in ("sontag", "tunable", "bounded_input"):
        raise ConfigurationError(f"unknown controller kind {kind!r}")
    if kind == "bounded_input":
        slack = norm_bound_slack(c, d2, spec.gamma)
        if slack < 0.0:
            raise IncompatibleInputError(
                f"norm bound gamma={spec.gamma} incompatible with (c={c}, ||d||={math.sqrt(d2)})",
                deficit=-slack,
            )
    gam, kappa, lam = _tunable_terms(spec, c, d2, x)
    return lam, kappa, gam


def evaluate_controller(
    spec: ControllerSpec, con: AffineConstraint, x: np.ndarray | None = None, kd: np.ndarray | None = None
) -> ControllerOutput:
    """Evaluate the controller described by spec on the constraint pair.

    The formula is controller_terms', which raises InfeasibleConstraintError
    when d ~ 0 with c <= 0 (the strict convention makes that a hard error,
    never a silent zero input), KappaRangeError when the resolved tunable
    term leaves its validity range, and IncompatibleInputError when the
    bounded-input kind cannot meet the constraint within its norm bound.
    This wrapper adds the input u and the output.  A spec with a nominal (a
    safety filter) is one pass: its formula runs at the shifted offset
    c + d k_d(x) (see filter_offset), which is checked for feasibility as c
    is, on the constraint's own d and ||d||^2.  kd is the nominal at x where
    the caller has it, as the per-state evaluation of a run or of the CLI
    gives it (see simulate.point_evaluation); a spec without a nominal
    ignores it.
    """
    d, d2 = con.d, con.d_norm_sq
    c, kd = filter_offset(spec, con, x, kd)
    lam, kappa, gam = controller_terms(spec, con.c, c, d2, x, d)
    residual = c + lam * d2 if kappa is None else c + lam * d2 - kappa * gam
    u = lam * d
    if kd is not None:
        u = u + kd
    return ControllerOutput(u=u, lam=lam, kappa=kappa, residual=residual, c_eff=c, gamma_eff=gam)


def vectorisable(spec: ControllerSpec) -> bool:
    """Whether FormulaBatch evaluates spec: qp, or sontag, tunable or
    bounded_input with a linear shaping, the last two with a constant eta.

    The slope sigma must keep s(d2) d2 a normal float wherever d2 > EPS_D,
    so that core.Gamma's direct form holds there at every c.
    """
    if spec.kind == "qp":
        return True
    if spec.kind not in ("sontag", "tunable", "bounded_input"):
        return False
    if spec.shaping is None or spec.shaping.kind != "linear":
        return False
    if not (spec.shaping.sigma * EPS_D) * EPS_D >= _DBL_MIN:
        return False
    return spec.kind == "sontag" or (spec.policy is not None and spec.policy.kind == "eta_constant")


class FormulaBatch:
    """The multipliers of one vectorisable formula spec over a stack of points (c_i, d2).

    Every operation is one numpy call over the stack, in the order of the
    scalar functions, so that each point's lambda, kappa and Gamma equal
    evaluate_controller's bit for bit.  sontag is the tunable formula at
    eta = 1, since (1 - 1) c / Gamma + 1 == 1.0, and qp is sontag's formula
    with kappa Gamma scaled by 0.  Instead of raising, a call flags every
    point at which evaluate_controller might raise, and a few more where
    it does not: a Gamma that overflows or is below sqrt(DBL_MIN) (where
    core.Gamma takes its hypot form) and the tie kappa = 0 that the range
    admits.  The caller evaluates a flagged point on the per-state path.
    :meth:`range_verdict` gives the exact verdict of the range rule
    instead, at every point whose Gamma is in its direct form, so that
    only the others need the per-state path.
    """

    def __init__(self, spec: ControllerSpec):
        if not vectorisable(spec):
            raise ConfigurationError(f"kind {spec.kind!r} with this shaping or policy does not batch")
        self.has_eta = spec.kind in ("tunable", "bounded_input")
        self.qp = spec.kind == "qp"
        self.relu = spec.relu
        self.eta = spec.policy.eta if self.has_eta else 1.0
        self.one_minus_eta = 1.0 - self.eta
        self.sigma = 1.0 if self.qp else spec.shaping.sigma
        self.gamma = spec.gamma if spec.kind == "bounded_input" else None  # None: no norm bound

    def __call__(
        self, c: np.ndarray, d2
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(lambda, kappa, Gamma, flagged) at offsets c (B,) and the one squared norm d2 they share.

        kappa is NaN for qp, which has no tunable term; the multiplier at a
        flagged point may be anything.
        """
        gam = np.sqrt(c * c + (self.sigma * d2) * d2)
        kappa = self.one_minus_eta * (c / gam) + self.eta
        kappa_gam = kappa * gam
        num = kappa_gam - c
        if self.qp:
            lam = np.maximum((kappa_gam * 0.0 - c) / d2, 0.0)
        else:
            lam = np.maximum(num / d2, 0.0)
        # kappa > 0 and Gamma > 0 (not underflowed to 0), also False where kappa is NaN
        flagged = ~(np.isfinite(c + gam) & (kappa_gam > 0.0))
        if self.gamma is None:
            flagged |= kappa > 1.0
        else:
            slack = self.gamma * np.sqrt(d2) + c
            flagged |= (slack < 0.0) | (kappa > slack / gam)
        if not self.relu:
            flagged |= num < 0.0
        # Only where d2 <= EPS_D can the sum under Gamma fall below DBL_MIN
        # (see vectorisable), where core.Gamma takes its hypot form.
        if d2 <= EPS_D:
            lam = np.zeros_like(c)
            flagged |= (c <= 0.0) | (gam < _SQRT_DBL_MIN)
        if self.qp:
            kappa = kappa + math.nan  # after the flags, which read sontag's kappa
        return lam, kappa, gam, flagged

    def range_verdict(
        self, c: np.ndarray, d2, kappa: np.ndarray, gam: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(kappa, ok, decided) of a point check at the offsets c and squared
        norm d2 of a call, with the call's kappa and Gamma.

        Where decided, ok equals the scalar verdict: the point is feasible
        (||d||^2 > EPS_D or c > 0) and, except for qp, check_kappa_range
        admits kappa; and kappa is resolve_kappa's, which is NaN where it
        raises DomainError (tunable and bounded-input specs at an
        infeasible point).  Decided are the points whose Gamma is in
        core.Gamma's direct form, DBL_MIN <= c^2 + s(d2) d2 <= DBL_MAX, where
        the call's kappa and Gamma equal the scalar ones; elsewhere ok and
        kappa may be anything.
        """
        sq = c * c + (self.sigma * d2) * d2
        decided = (sq >= _DBL_MIN) & (sq <= _DBL_MAX)
        big = d2 > EPS_D
        feasible = big | (c > 0.0)
        # check_kappa_range, branch by branch
        upper = 1.0 if self.gamma is None else (self.gamma * np.sqrt(d2) + c) / gam
        num = kappa * gam - c
        smooth_lower = ~((num != 0.0) & ((num < 0.0) | (kappa <= 0.0)))
        relu_lower = (kappa > 0.0) | (big & (kappa == upper) & (upper == 0.0))
        in_range = (kappa <= upper if big else True) & (smooth_lower if big and not self.relu else relu_lower)
        ok = feasible if self.qp else feasible & in_range
        if self.has_eta and not feasible.all():
            kappa = np.where(feasible, kappa, math.nan)
        return kappa, ok, decided
