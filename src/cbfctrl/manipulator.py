"""Two-link planar manipulator: dynamics, safe tracking scenarios, studies.

The experiment has two layers.  At the velocity level the joints are
treated as a single integrator qdot = v and a safety filter keeps the
second joint below a position limit while tracking a sinusoidal
reference.  At the torque level the velocity command k0 is backstepped
through the rigid-body dynamics using the composite barrier

    b(q, v) = h(q) - (1/(2 mu)) ||v - k0||^2,

with a min-norm safety filter around the tracking torque.  Backstepping
needs the total derivative of k0, so the velocity-level scenario carries
analytic Jacobians built on the multiplier slope of its formula.  Both
levels declare their plant evaluation in floats (core.PlantEvaluation), the
velocity level also over a stack of states, on which a sweep of its
formulas advances.  Every torque-level map is a view of one per-state
evaluation, torque_terms: a run forms the dynamics, k0 and its Jacobians
once per state.

torque_terms forms every entry in Python floats, and writes each product
of a 2x2 matrix or 2-vector with a 2-vector as a0*b0 + a1*b1, left to
right.  That rounds differently from numpy's @ on these shapes: OpenBLAS
forms a length-2 dot product as fma(a1, b1, a0*b0), with one rounding
fewer, and Python 3.11 has no math.fma to reproduce it.  Against the same
formulas written with @ each entry agrees to within 1e-13 * max(1, |entry|)
(8e-15 at most over 6000 random states).  The same holds for the sums of
the float loop (simulate), which forms grad_b . f, grad_b . g, d . k_d
and g u as float sums where the numpy loop calls OpenBLAS: a torque run
with a smooth k0 stays within 1e-11 * max(1, |entry|) of the numpy loop's
(under 1e-14 over 2 s); the min-norm run, which a one-ULP change of x0
moves as far, parts from it where its k0 crosses its kink (README, "Known
deviations").  The velocity level forms k0 with no such sum, and its f, g
and grad_h are constant with entries in {0, 1, -1}, so every product is
exact and both loops agree bit for bit.

Time enters through the reference trajectory; both layers carry it as a
trailing clock state with rate 1, which keeps every map a pure function
of the state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import (
    BarrierFunction,
    ConfigurationError,
    ControlAffineSystem,
    ExtendedClassK,
    NumericsError,
    PlantEvaluation,
)
from .formulas import ControllerSpec, controller_spec, lambda_and_slope
from .simulate import SimConfig, Trajectory, run

Q2_LIMIT = math.pi / 3.0


@dataclass(frozen=True)
class ManipulatorParams:
    """Planar two-link arm: point masses m1 and m2 at the ends of links of
    lengths l1 and l2, under gravity."""

    m1: float = 1.0
    m2: float = 1.0
    l1: float = 1.0
    l2: float = 1.0
    gravity: float = 9.8

    def __post_init__(self):
        for name in ("m1", "m2", "l1", "l2", "gravity"):
            if not getattr(self, name) > 0.0:
                raise ConfigurationError(f"{name} must be positive")


class _Arm:
    """The arm's constant coefficients, and the entries of M(q), C(q, v) and
    N(q) formed from them in floats.

    Each entry is the textbook expression, with its constant factors
    multiplied out once here in the order the expression reads.
    """

    __slots__ = ("m11_0", "m11_1", "m11_2", "m12_0", "m12_1", "m22", "m2", "hc", "n1", "n2")

    def __init__(self, p: ManipulatorParams):
        self.m11_0 = p.m1 * p.l1**2
        self.m11_1 = p.l1**2 + p.l2**2
        self.m11_2 = 2.0 * p.l1 * p.l2
        self.m12_0 = p.l2**2
        self.m12_1 = p.l1 * p.l2
        self.m22 = p.m2 * p.l2**2
        self.m2 = p.m2
        self.hc = p.m2 * p.l1 * p.l2
        self.n1 = (p.m1 * p.l1 + p.m2 * p.l1) * p.gravity
        self.n2 = p.m2 * p.l2 * p.gravity

    def mass(self, c2: float) -> tuple[float, float, float]:
        """(m11, m12, m22) at cos(q2) = c2; M is symmetric."""
        m11 = self.m11_0 + self.m2 * (self.m11_1 + self.m11_2 * c2)
        return m11, self.m2 * (self.m12_0 + self.m12_1 * c2), self.m22

    def coriolis(self, s2: float, v1: float, v2: float) -> tuple[float, float, float, float]:
        """Entries of C, row by row, at sin(q2) = s2 and v = (v1, v2)."""
        hc = self.hc * s2
        return -hc * v2, -hc * (v1 + v2), hc * v1, 0.0

    def gravity(self, c1: float, c12: float) -> tuple[float, float]:
        """N at cos(q1) = c1 and cos(q1 + q2) = c12."""
        return self.n1 * c1 + self.n2 * c12, self.n2 * c12


def mass_matrix(p: ManipulatorParams, q: np.ndarray) -> np.ndarray:
    m11, m12, m22 = _Arm(p).mass(math.cos(q[1]))
    return np.array([[m11, m12], [m12, m22]])


def _inverse_terms(a: float, b: float, c: float, d: float) -> tuple[float, float, float, float]:
    """Entries, row by row, of the inverse of [[a, b], [c, d]]; NumericsError where
    |det| <= 1e-12 (|a d| + |b c|), a bound relative to the entries' scale."""
    det = a * d - b * c
    if abs(det) <= 1e-12 * (abs(a * d) + abs(b * c)):
        raise NumericsError(f"mass matrix is numerically singular, det={det}")
    return d / det, -b / det, -c / det, a / det


# --- reference trajectory r(tau) = [2 sin(tau) + 1, 2 sin(tau)] -------------

def reference_rate(tau: float) -> np.ndarray:
    c = 2.0 * math.cos(tau)
    return np.array([c, c])


# --- velocity-level scenario ------------------------------------------------

K0Floats = tuple[float, float, float, float, float, float, float, float]


@dataclass(frozen=True)
class VirtualController:
    """Velocity command k0(q, tau) together with its partial derivatives.

    jac_q is the 2x2 Jacobian in q and jac_tau the partial in the clock;
    the total derivative along qdot = v is jac_q @ v + jac_tau.  floats
    gives all three from one pass at (q1, q2, tau) as plain floats,
    (k1, k2, J11, J12, J21, J22, t1, t2), which is what the torque level
    reads; value, jac_q and jac_tau are arrays of those floats.
    """

    value: Callable[[np.ndarray, float], np.ndarray]
    jac_q: Callable[[np.ndarray, float], np.ndarray]
    jac_tau: Callable[[np.ndarray, float], np.ndarray]
    floats: Callable[[float, float, float], K0Floats]

    @classmethod
    def from_floats(cls, floats: Callable[[float, float, float], K0Floats]) -> "VirtualController":
        """Controller whose maps all read the one-pass floats(q1, q2, tau)."""

        def terms(q: np.ndarray, tau: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
            k1, k2, j11, j12, j21, j22, t1, t2 = floats(float(q[0]), float(q[1]), tau)
            return np.array([k1, k2]), np.array([[j11, j12], [j21, j22]]), np.array([t1, t2])

        return cls(
            value=lambda q, tau: terms(q, tau)[0],
            jac_q=lambda q, tau: terms(q, tau)[1],
            jac_tau=lambda q, tau: terms(q, tau)[2],
            floats=floats,
        )


@dataclass(frozen=True)
class VelocityScenario:
    """Assembled velocity-level safe-tracking problem.

    The simulated state is [q1, q2, clock]; the input is the joint
    velocity.  spec is a safety filter around the tracking command, and
    the barrier is h = q_bar - q2.
    """

    system: ControlAffineSystem
    barrier: BarrierFunction
    spec: ControllerSpec
    k0: VirtualController
    x0: np.ndarray
    q_bar: float


def velocity_level_scenario(
    eta: float = 0.7,
    sigma: float = 0.2,
    kind: str = "tunable",
    gamma: Optional[float] = None,
    relu: bool = False,
    q_bar: float = Q2_LIMIT,
    beta: float = 1.5,
    kp: float = 1.0,
) -> VelocityScenario:
    """Safe tracking of the sinusoidal reference under h = q_bar - q2.

    kind selects the filter formula: "tunable" (constant eta, smooth
    unless relu), "sontag", "qp", or "bounded_input" (requires gamma).  The
    constraint pair at the filter is c = beta*h, d = [0, -1].  The system
    declares the plant evaluation of this barrier and tracking command.
    """
    inner = controller_spec(kind, sigma=sigma, eta=eta, gamma=gamma, relu=relu)

    # Every separate map takes one state; floats and stack form them all at a
    # state and at a stack.  The drift, input map and gradient are constant.
    kp_mat = np.diag([kp, kp])
    neg_kp_mat = -kp_mat
    f_aug = np.array([0.0, 0.0, 1.0])
    g_aug = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    grad_h = np.array([0.0, -1.0, 0.0])
    barrier = BarrierFunction(
        value=lambda x: q_bar - x[1],
        gradient=lambda x: grad_h,
        classk=ExtendedClassK.linear(beta),
    )

    neg_kp_t = neg_kp_mat.T
    ref_offset = np.array([1.0, 0.0])
    # kp is diagonal and d = [0, -1] is constant, so every product with them
    # below has one nonzero term: each entry is formed in floats, as numpy
    # forms it elementwise, from the matrices' own entries.
    (n00, n01), (n10, n11) = neg_kp_mat.tolist()
    kp_00 = kp_mat.tolist()[0][0]

    def tracking(q1: float, q2: float, tau: float) -> tuple[float, float, float]:
        """The command -kp (q - r(tau)) + r'(tau), entry by entry, and the
        rate r'(tau) (both entries)."""
        ref = 2.0 * math.sin(tau)
        rate = 2.0 * math.cos(tau)
        return n00 * (q1 - (ref + 1.0)) + rate, n11 * (q2 - ref) + rate, rate

    f_floats, grad_floats = tuple(f_aug.tolist()), tuple(grad_h.tolist())
    g_floats = tuple(map(tuple, g_aug.tolist()))

    def floats(y: tuple) -> tuple:
        q1, q2, tau = y
        k1, k2, _ = tracking(q1, q2, tau)
        return f_floats, g_floats, q_bar - q2, grad_floats, (k1, k2)

    def stack(xs: np.ndarray) -> tuple:
        # r and r' at every row; -kp_mat is diagonal, so each product has
        # the scalar path's one term.
        tau = xs[:, 2]
        ref = (2.0 * np.sin(tau))[:, None] + ref_offset
        k_d = (xs[:, :2] - ref) @ neg_kp_t + (2.0 * np.cos(tau))[:, None]
        return f_aug, g_aug, q_bar - xs[:, 1], grad_h, k_d

    def nominal(x: np.ndarray) -> np.ndarray:
        k1, k2, _ = tracking(*x.tolist())
        return np.array([k1, k2])

    system = ControlAffineSystem(
        state_dim=3,
        input_dim=2,
        drift=lambda x: f_aug,
        input_map=lambda x: g_aug,
        evaluation=PlantEvaluation(floats, barrier, nominal, stack),
    )
    spec = ControllerSpec.safety_filter(inner, nominal)

    # Constraint geometry at the filter: constant direction d = [0, -1],
    # c = beta * h, so d.k0d = -k0d[1] and dcbar/dq = beta dh/dq + d (-kp).
    d_vec = np.array([0.0, -1.0])
    d2 = float(d_vec @ d_vec)
    dc1, dc2 = (beta * np.array([0.0, -1.0]) + d_vec @ neg_kp_mat).tolist()

    def k0_floats(q1: float, q2: float, tau: float) -> K0Floats:
        """k0 and its Jacobians in q and tau from one multiplier evaluation."""
        k1, k2, rate = tracking(q1, q2, tau)
        lam, slope = lambda_and_slope(inner, beta * (q_bar - q2) - k2, d2)
        dk_dtau = kp_00 * rate + -2.0 * math.sin(tau)  # kp r' + r'', both entries
        s1, s2 = slope * dc1, slope * dc2
        s_tau = slope * -dk_dtau
        return (
            k1 + lam * 0.0, k2 - lam,  # k0d + lam d
            n00 + 0.0 * s1, n01 + 0.0 * s2, n10 - s1, n11 - s2,  # -kp + d (slope dcbar/dq)
            dk_dtau + 0.0 * s_tau, dk_dtau - s_tau,  # dk0d/dtau + d slope (d.dk0d/dtau)
        )

    k0 = VirtualController.from_floats(k0_floats)

    return VelocityScenario(
        system=system,
        barrier=barrier,
        spec=spec,
        k0=k0,
        x0=np.array([1.0, 0.0, 0.0]),
        q_bar=q_bar,
    )


def run_formulas(
    scenario: VelocityScenario, formulas, cfg: Optional[SimConfig] = None, disturbance=None
) -> list[Trajectory]:
    """Run the scenario's plant once per formula spec, one after another.

    Each formula (a spec from controller_spec) sits inside the scenario's
    safety filter, so run i is the run of velocity_level_scenario with
    that formula.
    """
    cfg = cfg or SimConfig()
    specs = [ControllerSpec.safety_filter(f, scenario.spec.nominal) for f in formulas]
    return [run(scenario.system, spec, scenario.barrier, scenario.x0, cfg, disturbance) for spec in specs]


# --- torque-level (backstepped) scenario -------------------------------------

@dataclass(frozen=True)
class BacksteppingConfig:
    """Gains for lifting a velocity command to torques.

    mu scales the velocity-error penalty inside the composite barrier,
    kp/kp_bar are the diagonal tracking gains at the two layers, and
    alpha_b is the class-K slope applied to the composite barrier.
    """

    mu: float = 20.0
    kp: float = 1.0
    kp_bar: float = 1.0
    alpha_b: float = 1.5

    def __post_init__(self):
        if not self.mu > 0.0:
            raise ConfigurationError("mu must be positive")
        if not (self.kp > 0.0 and self.kp_bar > 0.0):
            raise ConfigurationError("gains must be positive")
        if not self.alpha_b > 0.0:
            raise ConfigurationError("alpha_b must be positive")


@dataclass(frozen=True)
class TorqueScenario:
    """Full-order problem: state [q1, q2, v1, v2, clock], torque input."""

    system: ControlAffineSystem
    barrier: BarrierFunction
    spec: ControllerSpec
    x0: np.ndarray
    velocity: VelocityScenario
    params: ManipulatorParams
    cfg: BacksteppingConfig


def torque_terms(
    p: ManipulatorParams, velocity: VelocityScenario, cfg: BacksteppingConfig
) -> Callable[[tuple], tuple]:
    """Per-state evaluation of the torque level, in floats.

    One call at a state (q1, q2, v1, v2, clock) forms M and its inverse,
    C(q, v) v, N(q), k0 with both its Jacobians, and from them the drift
    f and input map g of the manipulator with its trailing clock (n = 5,
    m = 2), the composite barrier b = h(q) - (1/(2 mu)) ||v - k0||^2 and
    its gradient, and the tracking torque k_d = M (k0dot - kp_bar (v - k0))
    + C v + N.  It is the plant evaluation the torque-level system declares
    (see core.PlantEvaluation), so the closed loop calls it once per state.

    Every entry is a Python float and every product of a 2x2 matrix or
    2-vector with a 2-vector the sum a0*b0 + a1*b1, left to right; see the
    module docstring for how that rounds against numpy's @.
    """
    arm = _Arm(p)
    k0_floats = velocity.k0.floats
    q_bar = velocity.q_bar  # h = q_bar - q2, so dh/dq = (0, -1)
    mu, kp_bar = cfg.mu, cfg.kp_bar
    two_mu = 2.0 * mu
    zero = (0.0, 0.0)  # rows 0, 1 and 4 of g

    def floats(y: tuple) -> tuple:
        q1, q2, v1, v2, tau = y
        m11, m12, m22 = arm.mass(math.cos(q2))
        i11, i12, i21, i22 = _inverse_terms(m11, m12, m12, m22)
        c11, c12, c21, c22 = arm.coriolis(math.sin(q2), v1, v2)
        cv1, cv2 = c11 * v1 + c12 * v2, c21 * v1 + c22 * v2
        n1, n2 = arm.gravity(math.cos(q1), math.cos(q1 + q2))
        k1, k2, j11, j12, j21, j22, t1, t2 = k0_floats(q1, q2, tau)
        e1, e2 = v1 - k1, v2 - k2

        r1, r2 = cv1 + n1, cv2 + n2
        f = (v1, v2, -i11 * r1 + -i12 * r2, -i21 * r1 + -i22 * r2, 1.0)
        g = (zero, zero, (i11, i12), (i21, i22), zero)
        b = (q_bar - q2) - (e1 * e1 + e2 * e2) / two_mu
        grad_b = (
            0.0 + (e1 * j11 + e2 * j21) / mu,
            -1.0 + (e1 * j12 + e2 * j22) / mu,
            -e1 / mu,
            -e2 / mu,
            (e1 * t1 + e2 * t2) / mu,
        )
        # M (k0dot - kp_bar e_v) + C v + N, with k0dot = J v + dk0/dtau
        w1 = j11 * v1 + j12 * v2 + t1 - kp_bar * e1
        w2 = j21 * v1 + j22 * v2 + t2 - kp_bar * e2
        k_d = (m11 * w1 + m12 * w2 + cv1 + n1, m12 * w1 + m22 * w2 + cv2 + n2)
        return f, g, b, grad_b, k_d

    return floats


def torque_level_scenario(
    params: Optional[ManipulatorParams] = None,
    cfg: Optional[BacksteppingConfig] = None,
    eta: float = 0.7,
    sigma: float = 0.2,
    kind: str = "tunable",
) -> TorqueScenario:
    """Backstepped safe tracking with a min-norm filter on the composite barrier.

    The system declares torque_terms as its plant evaluation for this
    barrier and nominal torque, so a run of spec evaluates each state once.
    The separate maps (drift, input map, barrier value and gradient,
    nominal) are views of its arrays, each one full evaluation.
    """
    params = params or ManipulatorParams()
    cfg = cfg or BacksteppingConfig()
    velocity = velocity_level_scenario(eta=eta, sigma=sigma, kind=kind, kp=cfg.kp)

    def view(i: int) -> Callable[[np.ndarray], object]:
        return lambda x: evaluation.arrays(x)[i]

    barrier = BarrierFunction(value=view(2), gradient=view(3), classk=ExtendedClassK.linear(cfg.alpha_b))
    nominal = view(4)
    evaluation = PlantEvaluation(torque_terms(params, velocity, cfg), barrier, nominal)
    system = ControlAffineSystem(state_dim=5, input_dim=2, drift=view(0), input_map=view(1), evaluation=evaluation)
    spec = ControllerSpec.safety_filter(ControllerSpec.qp(), nominal)
    v0 = reference_rate(0.0)
    x0 = np.array([velocity.x0[0], velocity.x0[1], v0[0], v0[1], 0.0])
    return TorqueScenario(
        system=system,
        barrier=barrier,
        spec=spec,
        x0=x0,
        velocity=velocity,
        params=params,
        cfg=cfg,
    )


# --- studies ------------------------------------------------------------------

@dataclass(frozen=True)
class BoundedInputReport:
    """Per-eta outcome of the norm-bound study on the filter correction."""

    eta: float
    max_correction_norm: float
    satisfies_bound: bool
    valid_under_bi: bool
    bi_max_correction_norm: float
    failure: Optional[str]


def bounded_input_study(
    gamma: float,
    etas,
    sigma: float = 0.2,
    cfg: Optional[SimConfig] = None,
) -> list[BoundedInputReport]:
    """Compare unconstrained and norm-bounded filters over a grid of eta.

    eta = 1.0 coincides with the sontag formula.  Each eta is run with
    the unconstrained smooth filter to measure the peak correction norm
    and with the bounded-input formula, one run after another; a range
    violation or incompatibility mid-run is flagged rather than raised.
    """
    cfg = cfg or SimConfig()
    etas = [float(eta) for eta in etas]
    formulas = [controller_spec("tunable", sigma=sigma, eta=eta) for eta in etas] + [
        controller_spec("bounded_input", sigma=sigma, eta=eta, gamma=gamma) for eta in etas
    ]
    trajs = run_formulas(velocity_level_scenario(sigma=sigma), formulas, cfg)
    reports = []
    for eta, free, bi in zip(etas, trajs, trajs[len(etas):]):
        max_corr = float(np.max(free.correction_norms)) if free.ok else math.inf
        bi_max = float(np.max(bi.correction_norms)) if len(bi) else math.nan
        reports.append(
            BoundedInputReport(
                eta=eta,
                max_correction_norm=max_corr,
                satisfies_bound=max_corr <= gamma,
                valid_under_bi=bi.ok,
                bi_max_correction_norm=bi_max,
                failure=bi.failure,
            )
        )
    return reports
