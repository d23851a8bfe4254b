"""Reference implementations the tests compare the library against.

Each is written independently of the library's fused evaluation paths:
forward dynamics and energies of the two-link arm, its reference
trajectory and that trajectory's acceleration, central finite
differences (also of a multiplier's slope across c = 0), and the bare
ReLU multiplier; products of 2-vectors in the float arithmetic of the
torque level; and a torque plant whose maps count their calls.
"""

import math
from dataclasses import replace

import numpy as np

from cbfctrl import PlantEvaluation
from cbfctrl.manipulator import ManipulatorParams, _Arm, mass_matrix


def coriolis_matrix(p: ManipulatorParams, q: np.ndarray, v: np.ndarray) -> np.ndarray:
    c11, c12, c21, c22 = _Arm(p).coriolis(math.sin(q[1]), v[0], v[1])
    return np.array([[c11, c12], [c21, c22]])


def gravity_vector(p: ManipulatorParams, q: np.ndarray) -> np.ndarray:
    return np.array(_Arm(p).gravity(math.cos(q[0]), math.cos(q[0] + q[1])))


def finite_difference_gradient(fn, x, rel_step=1e-6):
    """Central finite-difference gradient with step rel_step*(1 + |x_i|)."""
    x = np.asarray(x, dtype=float)
    grad = np.empty_like(x)
    for i in range(x.size):
        step = rel_step * (1.0 + abs(x[i]))
        xp = x.copy()
        xm = x.copy()
        xp[i] += step
        xm[i] -= step
        grad[i] = (fn(xp) - fn(xm)) / (2.0 * step)
    return grad


def probe_derivative_jump(lam, d_fixed, step):
    """Jump of d(lam)/dc across c = 0 at fixed ||d||^2 = d_fixed, by central differences.

    lam maps (c, ||d||^2) to a multiplier.  Central slopes are taken at
    c = +step and c = -step; the returned value is their absolute
    difference.  For the plain min-norm multiplier at d_fixed = 1 this is
    1.0 (slopes -1/d and 0); smooth multipliers give a value on the order
    of step.
    """
    two_s = 2.0 * step
    slope_above = (lam(two_s, d_fixed) - lam(0.0, d_fixed)) / two_s
    slope_below = (lam(0.0, d_fixed) - lam(-two_s, d_fixed)) / two_s
    return abs(slope_above - slope_below)


def fd_k0_jacobians(k0, q, tau):
    """Central finite-difference Jacobians (in q, in tau) of a velocity command k0(q, tau)."""
    jac_q = np.vstack(
        [finite_difference_gradient(lambda z, i=i: k0(z, tau)[i], q) for i in range(2)]
    )
    step = 1e-6 * (1.0 + abs(tau))
    return jac_q, (k0(q, tau + step) - k0(q, tau - step)) / (2.0 * step)


def dot(a, b):
    """a . b of two 2-vectors as the float sum a0*b0 + a1*b1, left to right."""
    return float(a[0]) * float(b[0]) + float(a[1]) * float(b[1])


def matvec(m, v):
    """m v of a 2x2 matrix and a 2-vector, each entry a float sum (see dot)."""
    return np.array([dot(m[0], v), dot(m[1], v)])


def vecmat(v, m):
    """v m of a 2-vector and a 2x2 matrix, each entry a float sum (see dot)."""
    return np.array([dot(v, (m[0][0], m[1][0])), dot(v, (m[0][1], m[1][1]))])


def total_derivative(k0, q, v, tau, matvec=matvec):
    """d/dt k0(q, tau) along qdot = v, from a VirtualController's Jacobians."""
    return matvec(k0.jac_q(q, tau), v) + k0.jac_tau(q, tau)


def reference(tau):
    """The joint reference trajectory r(tau) tracked by both manipulator layers."""
    return np.array([2.0 * math.sin(tau) + 1.0, 2.0 * math.sin(tau)])


def reference_accel(tau):
    """r''(tau), the reference's second derivative."""
    s = -2.0 * math.sin(tau)
    return np.array([s, s])


def inverse_2x2(m):
    """Inverse of a 2x2 matrix by its adjugate."""
    (a, b), (c, d) = m.tolist()
    return np.array([[d, -b], [-c, a]]) / (a * d - b * c)


def dynamics(p: ManipulatorParams, q, qdot, u):
    """State derivative [qdot; qddot] of M qddot + C qdot + N = u."""
    q, qdot, u = (np.asarray(a, dtype=float) for a in (q, qdot, u))
    m_inv = inverse_2x2(mass_matrix(p, q))
    qddot = m_inv @ (u - coriolis_matrix(p, q, qdot) @ qdot - gravity_vector(p, q))
    return np.concatenate([qdot, qddot])


def total_energy(p: ManipulatorParams, q, v):
    """Kinetic plus potential energy of the arm."""
    g = p.gravity
    potential = (
        (p.m1 * p.l1 + p.m2 * p.l1) * g * math.sin(q[0]) + p.m2 * p.l2 * g * math.sin(q[0] + q[1])
    )
    return 0.5 * float(v @ mass_matrix(p, q) @ v) + potential


def lambda_tunable_relu(c, d2, kappa, sigma):
    """ReLU((-c + kappa*Gamma) / ||d||^2) with Gamma = sqrt(c^2 + sigma ||d||^4); 0 at d2 = 0."""
    if d2 == 0.0:
        return 0.0
    return max((-c + kappa * math.sqrt(c * c + sigma * d2 * d2)) / d2, 0.0)


def counted_plant(sc, calls):
    """A manipulator scenario's (system, barrier, spec), with its plant
    evaluation (the floats call) counted under calls["evaluation"], its stacked evaluation,
    where declared, under calls["stack"] and each separate map under its
    own name."""

    def counted(name, fn):
        def wrapped(x):
            calls[name] = calls.get(name, 0) + 1
            return fn(x)

        return wrapped

    barrier = replace(sc.barrier, value=counted("value", sc.barrier.value), gradient=counted("gradient", sc.barrier.gradient))
    nominal = counted("nominal", sc.spec.nominal)
    ev = sc.system.evaluation
    stack = None if ev.stack is None else counted("stack", ev.stack)
    system = replace(
        sc.system,
        drift=counted("drift", sc.system.drift),
        input_map=counted("input_map", sc.system.input_map),
        evaluation=PlantEvaluation(counted("evaluation", ev.floats), barrier, nominal, stack),
    )
    return system, barrier, replace(sc.spec, nominal=nominal)
