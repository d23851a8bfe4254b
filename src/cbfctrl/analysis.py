"""Diagnostics on top of the controller formulas.

Covers the gain-perturbation safety margin, compatibility of the
constraint with a norm bound on the input, and residuals under additive
input disturbances.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    AffineConstraint,
    ConfigurationError,
    DegenerateMarginError,
    ShapingFunction,
    gamma_sontag,
)
from .formulas import (
    ControllerOutput,
    ControllerSpec,
    evaluate_controller,
    norm_bound_slack,
)


# Below this |c - kappa*Gamma| the margin is treated as undefined.
_MARGIN_DEN_EPS = 1e-12


def _margin(c: float, kappa: float, gamma: float) -> float:
    den = c - kappa * gamma
    if abs(den) <= _MARGIN_DEN_EPS:
        raise DegenerateMarginError(
            f"degenerate margin: c - kappa*Gamma = {den} with c={c}, kappa={kappa}"
        )
    return -1.0 + c / den


def margins(c: np.ndarray, kappa: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """The margin M at arrays of (c, kappa, Gamma), NaN where margin gives NaN
    for a finite Gamma: a NaN kappa or a numerically zero denominator."""
    den = c - kappa * gamma
    m = -1.0 + c / den
    degenerate = np.abs(den) <= _MARGIN_DEN_EPS
    if degenerate.any():
        m[degenerate] = math.nan
    return m


def safety_margin_at(
    con: AffineConstraint, kappa: float, shaping: ShapingFunction
) -> float:
    """Pointwise margin M = -1 + c / (c - kappa*Gamma).

    Scaling the controller by (1 + xi) keeps the system safe for every
    xi >= sup M over the states of interest.  kappa in the smooth range
    guarantees the denominator is negative, so M <= 0; M equals -1/2 in
    the limit c -> -inf with kappa = 1.
    """
    return _margin(con.c, kappa, gamma_sontag(con, shaping))


def margin(c: float, kappa: float | None, gamma: float) -> float:
    """Margin M at the offset c, tunable term kappa and tightening Gamma of one evaluation.

    NaN where M is undefined: the kind has no tunable term (kappa is
    None), Gamma is not finite, or the denominator is numerically zero.
    """
    if kappa is None or not math.isfinite(gamma):
        return math.nan
    try:
        return _margin(c, kappa, gamma)
    except DegenerateMarginError:
        return math.nan


def margin_of(out: ControllerOutput) -> float:
    """margin at the constraint and tightening that out used."""
    return margin(out.c_eff, out.kappa, out.gamma_eff)


@dataclass(frozen=True)
class CompatibilityResult:
    """Outcome of the norm-bound compatibility test gamma*||d|| + c >= 0."""

    compatible: bool
    deficit: float

    def __bool__(self) -> bool:
        return self.compatible


def check_compatibility(con: AffineConstraint, gamma: float) -> CompatibilityResult:
    """Can some ||u|| <= gamma satisfy c + d u >= 0?  Yes iff gamma*||d|| >= -c."""
    if not gamma > 0.0:
        raise ConfigurationError(f"gamma must be positive, got {gamma}")
    slack = norm_bound_slack(con.c, con.d_norm_sq, gamma)
    if slack >= 0.0:
        return CompatibilityResult(compatible=True, deficit=0.0)
    return CompatibilityResult(compatible=False, deficit=-slack)


@dataclass(frozen=True)
class DisturbanceSpec:
    """Additive input disturbance w(t), applied as u + w after the controller.

    Kinds: constant vector, sinusoidal amplitude*sin(freq*t), or a
    norm-bounded pseudo-random vector that is a deterministic function of
    (seed, t) so repeated runs reproduce bit-identically.
    """

    kind: str
    value: np.ndarray | None = None
    amplitude: np.ndarray | None = None
    freq: float | None = None
    magnitude: float | None = None
    seed: int | None = None

    @classmethod
    def constant(cls, value) -> "DisturbanceSpec":
        return cls(kind="constant", value=np.atleast_1d(np.asarray(value, dtype=float)))

    @classmethod
    def sinusoidal(cls, amplitude, freq: float) -> "DisturbanceSpec":
        return cls(
            kind="sinusoidal",
            amplitude=np.atleast_1d(np.asarray(amplitude, dtype=float)),
            freq=float(freq),
        )

    @classmethod
    def bounded_random(cls, magnitude: float, seed: int) -> "DisturbanceSpec":
        if not math.isfinite(magnitude):
            raise ConfigurationError("disturbance magnitude must be finite")
        if magnitude < 0.0:
            raise ConfigurationError(f"disturbance magnitude must be nonnegative, got {magnitude}")
        return cls(kind="bounded_random", magnitude=float(magnitude), seed=int(seed))

    def at(self, t: float, input_dim: int) -> np.ndarray:
        if self.kind == "constant":
            return self.value
        if self.kind == "sinusoidal":
            return self.amplitude * math.sin(self.freq * t)
        if self.kind == "bounded_random":
            t_bits = struct.unpack("<Q", struct.pack("<d", float(t)))[0]
            rng = np.random.default_rng((self.seed, t_bits))
            direction = rng.standard_normal(input_dim)
            norm = float(np.linalg.norm(direction))
            if norm == 0.0:
                return np.zeros(input_dim)
            radius = self.magnitude * rng.uniform() ** (1.0 / input_dim)
            return (radius / norm) * direction
        raise ConfigurationError(f"unknown disturbance kind {self.kind!r}")


def disturbed_residual(
    spec: ControllerSpec,
    con: AffineConstraint,
    x: np.ndarray | None,
    disturbance: Optional[DisturbanceSpec],
    t: float = 0.0,
) -> float:
    """CBF residual c + d (u + w) under the additive input disturbance.

    For the smooth tunable kinds this equals kappa*Gamma + d w, so the
    tightening absorbs disturbances with d w >= -kappa*Gamma, whereas the
    min-norm controller's residual is d w whenever its constraint is tight.
    """
    out = evaluate_controller(spec, con, x)
    u = out.u
    if disturbance is not None:
        u = u + disturbance.at(t, con.d.size)
    return con.c + float(con.d @ u)
