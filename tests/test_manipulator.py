import math
from dataclasses import replace

import numpy as np
import pytest

from cbfctrl import (
    AffineConstraint,
    ControllerSpec,
    DisturbanceSpec,
    ShapingFunction,
    TunableTermPolicy,
    evaluate_constraint,
    evaluate_controller,
)
from cbfctrl.core import BarrierFunction, ControlAffineSystem, ExtendedClassK, NumericsError
from cbfctrl.formulas import controller_terms, lambda_min_norm
from cbfctrl.manipulator import (
    Q2_LIMIT,
    BacksteppingConfig,
    ManipulatorParams,
    VirtualController,
    _inverse_terms,
    bounded_input_study,
    mass_matrix,
    reference_rate,
    torque_level_scenario,
    velocity_level_scenario,
)
from cbfctrl.simulate import SimConfig, run, step
from oracles import (
    coriolis_matrix,
    counted_plant,
    dot,
    dynamics,
    fd_k0_jacobians,
    finite_difference_gradient,
    gravity_vector,
    inverse_2x2,
    matvec,
    reference,
    reference_accel,
    total_derivative,
    total_energy,
    vecmat,
)

PARAMS = ManipulatorParams()
CFG_SHORT = SimConfig(dt=1e-3, horizon=4.0)


def scenario_run(sc, cfg):
    """The closed-loop run of a velocity- or torque-level scenario."""
    return run(sc.system, sc.spec, sc.barrier, sc.x0, cfg)


# --- reference oracle: one expression per callable ------------------------------
#
# The library forms k0 with its Jacobians, and every torque-level map, in one
# pass per state.  These are the same formulas written callable by callable,
# each recomputing what it needs; the fused paths must match them bit for bit.
# The torque maps take their 2-vector products as the library forms them,
# plain float sums (oracles.dot, matvec, vecmat); numpy's @ rounds those with
# a fused multiply-add, so BLAS_PRODUCTS gives the @ formulation, which agrees
# to rounding only.

def oracle_k0(eta=0.7, sigma=0.2, kind="tunable", q_bar=Q2_LIMIT, beta=1.5, kp=1.0):
    kp_mat = np.diag([kp, kp])
    shaping = ShapingFunction.linear(sigma)
    d_vec = np.array([0.0, -1.0])
    d2 = float(d_vec @ d_vec)
    dh_dq = np.array([0.0, -1.0])

    def cbar_at(q, tau):
        h = q_bar - q[1]
        k0d = -kp_mat @ (q - reference(tau)) + reference_rate(tau)
        return beta * h + float(d_vec @ k0d)

    def lam_and_slope(cbar):
        if kind == "qp":
            return lambda_min_norm(cbar, d2), (-1.0 / d2 if cbar < 0.0 else 0.0)
        root = math.sqrt(cbar * cbar + sigma * d2 * d2)
        if kind == "sontag":
            spec, gain = ControllerSpec.sontag(shaping), 1.0
        else:
            spec, gain = ControllerSpec.tunable(shaping, TunableTermPolicy.eta_constant(eta)), eta
        lam = evaluate_controller(spec, AffineConstraint(cbar, d_vec)).lam
        return lam, gain * (-1.0 + cbar / root) / d2

    def value(q, tau):
        k0d = -kp_mat @ (q - reference(tau)) + reference_rate(tau)
        lam, _ = lam_and_slope(beta * (q_bar - q[1]) + float(d_vec @ k0d))
        return k0d + lam * d_vec

    def jac_q(q, tau):
        _, slope = lam_and_slope(cbar_at(q, tau))
        return -kp_mat + np.outer(d_vec, slope * (beta * dh_dq + d_vec @ (-kp_mat)))

    def jac_tau(q, tau):
        dk0d_dtau = kp_mat @ reference_rate(tau) + reference_accel(tau)
        _, slope = lam_and_slope(cbar_at(q, tau))
        return dk0d_dtau + d_vec * (slope * float(d_vec @ dk0d_dtau))

    def floats(q1, q2, tau):
        q = np.array([q1, q2])
        (k1, k2), ((j11, j12), (j21, j22)), (t1, t2) = (
            a.tolist() for a in (value(q, tau), jac_q(q, tau), jac_tau(q, tau))
        )
        return k1, k2, j11, j12, j21, j22, t1, t2

    return VirtualController.from_floats(floats)


BLAS_PRODUCTS = dict(dot=np.matmul, matvec=np.matmul, vecmat=np.matmul)


def oracle_torque_maps(p, k0, cfg, q_bar=Q2_LIMIT, dot=dot, matvec=matvec, vecmat=vecmat):
    """(drift, input_map, barrier value, barrier gradient, nominal torque)."""

    def drift(x):
        q, v = x[:2], x[2:4]
        m_inv = inverse_2x2(mass_matrix(p, q))
        phi = matvec(-m_inv, matvec(coriolis_matrix(p, q, v), v) + gravity_vector(p, q))
        return np.array([v[0], v[1], phi[0], phi[1], 1.0])

    def input_map(x):
        g = np.zeros((5, 2))
        g[2:4, :] = inverse_2x2(mass_matrix(p, x[:2]))
        return g

    def value(x):
        q, v, tau = x[:2], x[2:4], x[4]
        e_v = v - k0.value(q, tau)
        return (q_bar - q[1]) - float(dot(e_v, e_v)) / (2.0 * cfg.mu)

    def gradient(x):
        q, v, tau = x[:2], x[2:4], x[4]
        e_v = v - k0.value(q, tau)
        grad = np.empty(5)
        grad[:2] = np.array([0.0, -1.0]) + vecmat(e_v, k0.jac_q(q, tau)) / cfg.mu
        grad[2:4] = -e_v / cfg.mu
        grad[4] = float(dot(e_v, k0.jac_tau(q, tau))) / cfg.mu
        return grad

    def nominal(x):
        q, v, tau = x[:2], x[2:4], x[4]
        e_v = v - k0.value(q, tau)
        k0_dot = total_derivative(k0, q, v, tau, matvec)
        return (
            matvec(mass_matrix(p, q), k0_dot - cfg.kp_bar * e_v)
            + matvec(coriolis_matrix(p, q, v), v)
            + gravity_vector(p, q)
        )

    return drift, input_map, value, gradient, nominal


def oracle_torque_pieces(p, k0, cfg):
    """System, barrier and filter spec assembled from the oracle maps."""
    drift, input_map, value, gradient, nominal = oracle_torque_maps(p, k0, cfg)
    system = ControlAffineSystem(state_dim=5, input_dim=2, drift=drift, input_map=input_map)
    barrier = BarrierFunction(
        value=value, gradient=gradient, classk=ExtendedClassK.linear(cfg.alpha_b)
    )
    return system, barrier, ControllerSpec.safety_filter(ControllerSpec.qp(), nominal)


def backstepping_controller(params, cfg, k0, x, t):
    """Torque at one state [q; v] and time, for a given velocity command.

    Forms the composite-barrier constraint for the full-order system and
    evaluates the min-norm safety filter around the tracking torque.
    """
    system, barrier, spec = oracle_torque_pieces(params, k0, cfg)
    x_full = np.array([x[0], x[1], x[2], x[3], t])
    con = evaluate_constraint(system, barrier, x_full)
    return evaluate_controller(spec, con, x_full).u


def random_torque_state(rng):
    return np.array(
        [
            rng.uniform(-1, 2),
            rng.uniform(-0.5, Q2_LIMIT - 0.05),
            rng.normal(scale=1.5),
            rng.normal(scale=1.5),
            rng.uniform(0.0, 6.0),
        ]
    )


# --- rigid-body model -----------------------------------------------------------

def test_gravity_compensation_holds_arm():
    rng = np.random.default_rng(60)
    for _ in range(20):
        q = rng.uniform(-math.pi, math.pi, size=2)
        xdot = dynamics(PARAMS, q, np.zeros(2), gravity_vector(PARAMS, q))
        np.testing.assert_allclose(xdot, 0.0, atol=1e-12)


def test_mass_matrix_symmetric_positive_definite():
    rng = np.random.default_rng(61)
    for _ in range(1000):
        q = rng.uniform(-math.pi, math.pi, size=2)
        m = mass_matrix(PARAMS, q)
        assert m[0, 1] == m[1, 0]
        eigs = np.linalg.eigvalsh(m)
        assert np.all(eigs > 0.0)


def test_coriolis_skew_symmetry():
    # d(M)/dt - 2C skew-symmetric: required for the energy oracle
    rng = np.random.default_rng(62)
    for _ in range(200):
        q = rng.uniform(-math.pi, math.pi, size=2)
        v = rng.normal(size=2)
        c2 = math.cos(q[1])
        hc = PARAMS.m2 * PARAMS.l1 * PARAMS.l2
        dm11 = -2.0 * hc * math.sin(q[1]) * v[1]
        dm12 = -hc * math.sin(q[1]) * v[1]
        m_dot = np.array([[dm11, dm12], [dm12, 0.0]])
        s = m_dot - 2.0 * coriolis_matrix(PARAMS, q, v)
        np.testing.assert_allclose(s + s.T, 0.0, atol=1e-12)


def test_free_swing_conserves_energy():
    system = ControlAffineSystem(
        state_dim=4,
        input_dim=2,
        drift=lambda x: dynamics(PARAMS, x[:2], x[2:], np.zeros(2)),
        input_map=lambda x: np.vstack([np.zeros((2, 2)), np.eye(2)]),
    )
    x = np.array([1.0, 0.0, 2.0, 2.0])
    e0 = total_energy(PARAMS, x[:2], x[2:])
    for _ in range(10000):
        x = step(system, lambda y: np.zeros(2), x, 1e-4)
    e1 = total_energy(PARAMS, x[:2], x[2:])
    assert abs(e1 - e0) / abs(e0) <= 1e-5


# --- velocity-level scenario ----------------------------------------------------

def test_constraint_equality_at_limit():
    # at the position limit with the command pushing in, the filtered
    # velocity meets the tightened constraint with equality
    sc = velocity_level_scenario(eta=0.7, sigma=0.2)
    x = np.array([1.0, Q2_LIMIT, 0.6])
    con = evaluate_constraint(sc.system, sc.barrier, x)
    out = evaluate_controller(sc.spec, con, x)
    assert abs(out.residual) <= 1e-9
    assert con.c + float(con.d @ out.u) == pytest.approx(
        out.kappa * out.gamma_eff, abs=1e-9
    )


def test_eta_grid_orders_peak_excursion():
    etas = [0.5, 0.7, 0.9]
    peaks = []
    trajs = []
    for eta in etas:
        traj = scenario_run(velocity_level_scenario(eta=eta, sigma=0.2), CFG_SHORT)
        assert traj.ok
        peaks.append(float(np.max(traj.states[:, 1])))
        trajs.append(traj)
    # larger eta keeps the joint farther from the limit
    assert peaks[0] > peaks[1] > peaks[2]
    # and the trajectories are genuinely distinct
    for a, b in zip(trajs, trajs[1:]):
        assert np.max(np.abs(a.states[:, 1] - b.states[:, 1])) > 1e-3


def test_half_gain_tracks_min_norm_as_sigma_shrinks():
    # comparative-simulation oracle: the gap is first-order in sigma and
    # drops below 1e-2 rad by sigma = 0.02 on this scenario
    gaps = []
    for sigma in [0.2, 0.02, 0.002]:
        t_half = scenario_run(velocity_level_scenario(eta=0.5, sigma=sigma), CFG_SHORT)
        t_qp = scenario_run(velocity_level_scenario(kind="qp", sigma=sigma), CFG_SHORT)
        gaps.append(float(np.max(np.abs(t_half.states[:, :2] - t_qp.states[:, :2]))))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[1] <= 1e-2
    assert gaps[0] <= 0.1


def test_input_kinks_min_norm_vs_smooth():
    # discrete second differences of the commanded joint-2 velocity:
    # the min-norm filter shows isolated spikes, the smooth ones do not
    qp = scenario_run(velocity_level_scenario(kind="qp", sigma=0.2), CFG_SHORT)
    d2 = np.abs(np.diff(qp.inputs[:, 1], n=2))
    assert np.max(d2) > 10.0 * np.median(d2)
    for kw in [dict(eta=0.5), dict(eta=0.9), dict(kind="sontag")]:
        tr = scenario_run(velocity_level_scenario(sigma=0.2, **kw), CFG_SHORT)
        d2 = np.abs(np.diff(tr.inputs[:, 1], n=2))
        assert np.max(d2) <= 50.0 * np.median(d2)


def test_velocity_scenario_rejects_unknown_kind():
    with pytest.raises(Exception):
        velocity_level_scenario(kind="mystery")


def test_k0_jacobians_match_finite_differences():
    # hand-derived Jacobians guard: cross-check against finite differences
    rng = np.random.default_rng(63)
    for kind, eta in [("tunable", 0.7), ("tunable", 0.5), ("sontag", 0.7)]:
        sc = velocity_level_scenario(eta=eta, sigma=0.2, kind=kind)
        for _ in range(25):
            q = np.array([rng.uniform(-1, 2), rng.uniform(-0.5, Q2_LIMIT)])
            tau = float(rng.uniform(0.0, 6.0))
            fd_jac_q, fd_jac_tau = fd_k0_jacobians(sc.k0.value, q, tau)
            np.testing.assert_allclose(sc.k0.jac_q(q, tau), fd_jac_q, atol=1e-4)
            np.testing.assert_allclose(sc.k0.jac_tau(q, tau), fd_jac_tau, atol=1e-4)


def test_k0_jacobians_min_norm_away_from_kink():
    rng = np.random.default_rng(64)
    sc = velocity_level_scenario(kind="qp", sigma=0.2)
    checked = 0
    for _ in range(60):
        q = np.array([rng.uniform(-1, 2), rng.uniform(-0.5, Q2_LIMIT)])
        tau = float(rng.uniform(0.0, 6.0))
        k0d = -np.eye(2) @ (q - reference(tau)) + reference_rate(tau)
        c_bar = 1.5 * (Q2_LIMIT - q[1]) - k0d[1]
        if abs(c_bar) < 1e-3:
            continue  # the multiplier is not differentiable at the switch
        np.testing.assert_allclose(sc.k0.jac_q(q, tau), fd_k0_jacobians(sc.k0.value, q, tau)[0], atol=1e-4)
        checked += 1
    assert checked > 30


@pytest.mark.parametrize("kp", [1.0, 2.5])
def test_velocity_plant_evaluation_equals_the_separate_maps(kp):
    # point at a state and each row of stack at a stack of states give, bit
    # for bit, what the separate maps give at that state
    sc = velocity_level_scenario(eta=0.7, kp=kp)
    ev = sc.system.evaluation
    assert ev.barrier is sc.barrier and ev.nominal is sc.spec.nominal
    rng = np.random.default_rng(71)
    xs = np.column_stack([rng.uniform(-2.0, 4.0, 300), rng.uniform(-1.5, 3.0, 300), rng.uniform(0.0, 7.0, 300)])
    f, g, h, grad, kd = ev.stack(xs)
    assert (f.shape, g.shape, h.shape, grad.shape, kd.shape) == ((3,), (3, 2), (300,), (3,), (300, 2))
    for x, h_row, kd_row in zip(xs, h, kd):
        want = [sc.system.drift(x), sc.system.input_map(x), float(sc.barrier.value(x)), sc.barrier.gradient(x), sc.spec.nominal(x)]
        floats = ev.floats(tuple(x.tolist()))
        f_, g_, h_, grad_, kd_ = floats
        assert all(type(v) is float for v in [*f_, *(v for row in g_ for v in row), h_, *grad_, *kd_])
        point = ev.arrays(x)
        assert [np.shape(v) for v in point] == [(3,), (3, 2), (), (3,), (2,)]
        for got in (point, (f, g, h_row, grad, kd_row)):
            for a, b in zip(got, want):
                a, b = np.asarray(a), np.asarray(b)
                assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), (x, a, b)


# --- torque level ----------------------------------------------------------------

def test_manifold_identity():
    # v = k0 exactly: the composite barrier reduces to h and the nominal
    # torque keeps the manifold invariant (vdot = k0dot)
    sc = torque_level_scenario(eta=0.7)
    rng = np.random.default_rng(65)
    for _ in range(20):
        q = np.array([rng.uniform(-1, 2), rng.uniform(-0.5, Q2_LIMIT - 0.05)])
        tau = float(rng.uniform(0.0, 6.0))
        v = sc.velocity.k0.value(q, tau)
        x = np.array([q[0], q[1], v[0], v[1], tau])
        b = sc.barrier.value(x)
        assert b == pytest.approx(Q2_LIMIT - q[1], abs=1e-12)
        u_nom = sc.spec.nominal(x)
        m_inv = np.linalg.inv(mass_matrix(PARAMS, q))
        vdot = m_inv @ (u_nom - coriolis_matrix(PARAMS, q, v) @ v - gravity_vector(PARAMS, q))
        k0dot = total_derivative(sc.velocity.k0, q, v, tau)
        np.testing.assert_allclose(vdot, k0dot, atol=1e-9)


def test_composite_barrier_gradient_matches_fd():
    sc = torque_level_scenario(eta=0.7)
    rng = np.random.default_rng(66)
    for _ in range(10):
        x = random_torque_state(rng)
        fd = finite_difference_gradient(sc.barrier.value, x)
        np.testing.assert_allclose(sc.barrier.gradient(x), fd, atol=1e-4)


def test_backstepping_controller_entry_point():
    cfg = BacksteppingConfig()
    sc = torque_level_scenario(eta=0.7, cfg=cfg)
    x4 = np.array([1.0, 0.0, 2.0, 2.0])
    u = backstepping_controller(PARAMS, cfg, sc.velocity.k0, x4, t=0.0)
    x5 = np.array([1.0, 0.0, 2.0, 2.0, 0.0])
    con = evaluate_constraint(sc.system, sc.barrier, x5)
    expected = evaluate_controller(sc.spec, con, x5).u
    np.testing.assert_allclose(u, expected, rtol=1e-12)


@pytest.mark.parametrize(
    "kw", [dict(eta=0.7), dict(eta=0.5), dict(kind="sontag"), dict(kind="qp")]
)
def test_k0_terms_match_oracle(kw):
    sc = velocity_level_scenario(sigma=0.2, **kw)
    ref = oracle_k0(sigma=0.2, **kw)
    rng = np.random.default_rng(67)
    for _ in range(25):
        q = np.array([rng.uniform(-1, 2), rng.uniform(-0.5, Q2_LIMIT)])
        tau = float(rng.uniform(0.0, 6.0))
        want = (ref.value(q, tau), ref.jac_q(q, tau), ref.jac_tau(q, tau))
        got = (sc.k0.value(q, tau), sc.k0.jac_q(q, tau), sc.k0.jac_tau(q, tau))
        (k1, k2, j11, j12, j21, j22, t1, t2) = sc.k0.floats(float(q[0]), float(q[1]), tau)
        floats = (np.array([k1, k2]), np.array([[j11, j12], [j21, j22]]), np.array([t1, t2]))
        for g, w, f in zip(got, want, floats):
            np.testing.assert_array_equal(g, w)
            np.testing.assert_array_equal(f, w)


def _torque_maps(sc):
    return (
        sc.system.drift,
        sc.system.input_map,
        sc.barrier.value,
        sc.barrier.gradient,
        sc.spec.nominal,
    )


@pytest.mark.parametrize("kind", ["tunable", "sontag", "qp"])
def test_torque_maps_match_oracle(kind):
    sc = torque_level_scenario(eta=0.7, kind=kind)
    ref = oracle_torque_maps(PARAMS, oracle_k0(eta=0.7, kind=kind), sc.cfg)
    got = _torque_maps(sc)
    rng = np.random.default_rng(68)
    x = random_torque_state(rng)
    for i in range(30):
        # One buffer overwritten in place: a result cached for the old
        # contents must not be returned for the new ones.
        x[:] = random_torque_state(rng)
        for j in range(len(got)):
            k = (i + j) % len(got)
            np.testing.assert_array_equal(got[k](x), ref[k](x))


@pytest.mark.parametrize("kind", ["tunable", "sontag", "qp"])
def test_torque_maps_match_the_matmul_formulation_to_rounding(kind):
    # The same maps with every product a numpy @, which OpenBLAS rounds with
    # a fused multiply-add: each entry agrees to 1e-13 * max(1, |entry|).
    sc = torque_level_scenario(eta=0.7, kind=kind)
    ref = oracle_torque_maps(PARAMS, oracle_k0(eta=0.7, kind=kind), sc.cfg, **BLAS_PRODUCTS)
    rng = np.random.default_rng(70)
    for _ in range(1000):
        x = random_torque_state(rng)
        for got, want in zip(_torque_maps(sc), ref):
            got, want = np.asarray(got(x)), np.asarray(want(x))
            assert got.shape == want.shape
            assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(1.0, np.abs(want))), (x, got, want)


def test_torque_maps_return_fresh_arrays():
    # no map shares an array between calls: writing into a returned array
    # changes no later evaluation, at the same state or at another
    sc = torque_level_scenario(eta=0.7)
    rng = np.random.default_rng(69)
    x, other = random_torque_state(rng), random_torque_state(rng)
    maps = _torque_maps(sc)
    want = [[np.array(fn(y)) for fn in maps] for y in (x, other)]
    for fn in maps:
        first = fn(x)
        if isinstance(first, np.ndarray):
            assert fn(x) is not first
            first[...] = np.nan
        for y, values in zip((x, other), want):
            for k, value in zip(maps, values):
                np.testing.assert_array_equal(k(y), value)
    f, g, b, grad_b, k_d = sc.system.evaluation.arrays(x)
    for arr in (f, g, grad_b, k_d):
        arr[...] = np.nan
    np.testing.assert_array_equal(sc.system.evaluation.arrays(x)[0], want[0][0])


TORQUE_RECORDED = ("times", "states", "inputs", "h_values", "residuals", "kappas", "margins", "correction_norms")
# Every entry of a torque run on the float loop lies within this relative
# distance of the numpy loop's (see manipulator: numpy's fused dot products).
TORQUE_TOL = 1e-11


def assert_within_torque_tolerance(got, want):
    """Two torque runs record the same rows up to TORQUE_TOL * max(1, |entry|), and fail alike."""
    for field in TORQUE_RECORDED:
        a, b = getattr(got, field), getattr(want, field)
        assert a.shape == b.shape, field
        same_nan = np.isnan(a) == np.isnan(b)
        assert same_nan.all(), field
        close = np.abs(a - b) <= TORQUE_TOL * np.maximum(1.0, np.abs(b))
        assert (close | np.isnan(b)).all(), (field, np.max(np.abs(a - b)))
    assert (got.failure, got.failure_step) == (want.failure, want.failure_step)


def _oracle_and_library_runs(cfg, disturbance=None):
    """The torque run on the float loop, on the numpy loop over the same
    maps (a copy of the barrier breaks the declaration's identity) and on
    the oracle's maps."""
    sc = torque_level_scenario(eta=0.7)
    system, barrier, spec = oracle_torque_pieces(PARAMS, oracle_k0(eta=0.7), sc.cfg)
    assert system.evaluation is None  # the oracle runs on the loop's separate maps
    got = run(sc.system, sc.spec, sc.barrier, sc.x0, cfg, disturbance)
    on_numpy = run(sc.system, sc.spec, replace(sc.barrier), sc.x0, cfg, disturbance)
    want = run(system, spec, barrier, sc.x0, cfg, disturbance)
    assert got.ok and on_numpy.ok and want.ok
    # the numpy loop on the library's maps is the oracle's, bit for bit
    for field in TORQUE_RECORDED:
        np.testing.assert_array_equal(getattr(on_numpy, field), getattr(want, field))
    return got, want


@pytest.mark.parametrize("zoh", [False, True])
def test_torque_run_matches_oracle_scenario(zoh):
    got, want = _oracle_and_library_runs(SimConfig(dt=1e-3, horizon=0.3, zoh=zoh))
    assert_within_torque_tolerance(got, want)


def test_torque_run_matches_oracle_scenario_held_and_disturbed():
    cfg = SimConfig(dt=1e-3, horizon=0.3, zoh=True, record_every=3)
    got, want = _oracle_and_library_runs(cfg, DisturbanceSpec.constant([0.4, -0.3]))
    assert len(got) == 101
    assert_within_torque_tolerance(got, want)


RUNS = {
    "rk4": ({}, 4, 4),
    "euler": ({"integrator": "euler"}, 1, 1),
    "zoh": ({"zoh": True}, 4, 1),
    "zoh-euler": ({"zoh": True, "integrator": "euler"}, 1, 1),
}


@pytest.mark.parametrize(
    "scenario, sim, evaluations, formulas",
    [pytest.param(torque_level_scenario, *args, id=name) for name, args in RUNS.items()]
    + [pytest.param(velocity_level_scenario, *args, id=f"velocity-{name}") for name, args in RUNS.items()],
)
def test_torque_run_evaluates_the_plant_once_per_state(monkeypatch, scenario, sim, evaluations, formulas):
    # RK4 evaluates the plant at 4 states a step; the zero-order hold still
    # needs f and g at stages 2-4, but runs the formula only at x_k.  The
    # velocity level's scalar run, declared alike, calls its stack nowhere.
    # Both run on the float loop: one floats call per evaluated state, one
    # call of the formula core per formula, and no evaluate_controller.
    sc = scenario(eta=0.7)
    calls = {}
    system, barrier, spec = counted_plant(sc, calls)
    n_formulas = []

    def counted_core(spec, c, c_bar, d2, x=None, d=None):
        n_formulas.append(c_bar is not c)
        return controller_terms(spec, c, c_bar, d2, x, d)

    monkeypatch.setattr("cbfctrl.simulate.controller_terms", counted_core)
    monkeypatch.setattr("cbfctrl.simulate.evaluate_controller", None)
    cfg = SimConfig(dt=1e-3, horizon=0.05, **sim)
    traj = run(system, spec, barrier, sc.x0, cfg)
    assert traj.ok and cfg.n_steps == 50
    # run reads h(x0) once through the barrier to check the start state
    assert calls == {"value": 1, "evaluation": evaluations * 50 + 1}
    assert len(n_formulas) == formulas * 50 + 1 and all(n_formulas)  # each shifted by the nominal
    monkeypatch.undo()
    alone = run(sc.system, sc.spec, sc.barrier, sc.x0, cfg)
    for field in TORQUE_RECORDED:
        assert getattr(traj, field).tobytes() == getattr(alone, field).tobytes(), field


@pytest.mark.parametrize("integrator, zoh", [("rk4", False), ("euler", False), ("rk4", True)], ids=["rk4", "euler", "zoh"])
def test_torque_run_on_another_barrier_or_nominal_uses_the_separate_maps(integrator, zoh):
    # the evaluation built from the separate maps calls each of them once
    # per evaluated state (4n + 1 of them under RK4, n + 1 under Euler);
    # under the zero-order hold RK4 stages 2-4 call the drift and input map
    # alone, and the start check calls the barrier value once more.  That is
    # the numpy loop, which gives the oracle's run bit for bit.
    sc = torque_level_scenario(eta=0.7)
    calls = {}
    system, barrier, spec = counted_plant(sc, calls)
    n = 10
    cfg = SimConfig(dt=1e-3, horizon=n * 1e-3, integrator=integrator, zoh=zoh)
    other_barrier = replace(barrier)
    other_spec = ControllerSpec.safety_filter(ControllerSpec.qp(), lambda x: spec.nominal(x))
    oracle_system, oracle_barrier, oracle_spec = oracle_torque_pieces(PARAMS, oracle_k0(eta=0.7), sc.cfg)
    want = run(oracle_system, oracle_spec, oracle_barrier, sc.x0, cfg)
    states = 4 * n + 1 if integrator == "rk4" and not zoh else n + 1
    maps = 4 * n + 1 if integrator == "rk4" else n + 1
    for b, s in ((other_barrier, spec), (barrier, other_spec)):
        calls.clear()
        traj = run(system, s, b, sc.x0, cfg)
        assert traj.ok and len(traj) == n + 1
        assert calls == {"drift": maps, "input_map": maps, "gradient": states, "value": states + 1, "nominal": states}
        for field in TORQUE_RECORDED:
            assert getattr(traj, field).tobytes() == getattr(want, field).tobytes(), field


def test_backstepping_short_run_safe():
    sc = torque_level_scenario(eta=0.7)
    traj = scenario_run(sc, SimConfig(dt=1e-3, horizon=2.0))
    assert traj.ok
    h = Q2_LIMIT - traj.states[:, 1]
    assert float(np.min(h)) >= -1e-4
    assert traj.min_h() >= -1e-4  # composite barrier stays nonnegative too


# --- norm-bound study -------------------------------------------------------------

def test_bounded_input_study_flags_split():
    reports = bounded_input_study(
        gamma=2.3, etas=[0.5, 0.9], sigma=0.2, cfg=SimConfig(dt=1e-3, horizon=2.0)
    )
    by_eta = {r.eta: r for r in reports}
    assert by_eta[0.5].satisfies_bound
    assert by_eta[0.5].valid_under_bi
    assert by_eta[0.5].bi_max_correction_norm <= 2.3 + 1e-9
    assert not by_eta[0.9].satisfies_bound
    assert not by_eta[0.9].valid_under_bi
    assert by_eta[0.9].failure is not None


def test_bounded_input_vacuous_bound_matches_unbounded():
    cfg = SimConfig(dt=1e-3, horizon=2.0)
    free = scenario_run(velocity_level_scenario(eta=0.7, sigma=0.2), cfg)
    bi = scenario_run(
        velocity_level_scenario(eta=0.7, sigma=0.2, kind="bounded_input", gamma=1e6),
        cfg,
    )
    assert bi.ok
    np.testing.assert_array_equal(bi.states, free.states)
    np.testing.assert_array_equal(bi.inputs, free.inputs)


def test_bounded_input_tight_bound_flagged():
    # gamma below what even the min-norm filter needs: flagged mid-run
    bi = scenario_run(
        velocity_level_scenario(eta=0.5, sigma=0.2, kind="bounded_input", gamma=0.1),
        SimConfig(dt=1e-3, horizon=2.0),
    )
    assert not bi.ok


def test_backstepping_config_validation():
    with pytest.raises(Exception):
        BacksteppingConfig(mu=0.0)
    with pytest.raises(Exception):
        BacksteppingConfig(alpha_b=-1.0)
    with pytest.raises(Exception):
        ManipulatorParams(m1=-1.0)


def test_a_light_arm_is_not_singular_and_a_rank_one_mass_matrix_is():
    # scaling both masses scales M, C and N alike, so the light arm's
    # accelerations are the unit arm's; its det (1e-14 at q2 = 0) is far
    # below any absolute bound, and its condition number is the unit arm's
    light = torque_level_scenario(params=ManipulatorParams(m1=1e-7, m2=1e-7))
    unit = torque_level_scenario()
    x = np.array([0.3, 0.2, 0.5, -0.4, 0.1])
    np.testing.assert_allclose(light.system.drift(x), unit.system.drift(x), rtol=1e-12)
    np.testing.assert_allclose(light.system.input_map(x), 1e7 * unit.system.input_map(x), rtol=1e-12)
    traj = scenario_run(light, SimConfig(dt=1e-3, horizon=0.01))
    assert traj.ok and len(traj) == 11
    np.testing.assert_allclose(traj.states, scenario_run(unit, SimConfig(dt=1e-3, horizon=0.01)).states, rtol=1e-9)
    # m1 = 1e-16 next to m2 = 1 makes M = [[4, 2], [2, 1]] at q2 = 0, rank 1 in floats
    rank_one = torque_level_scenario(params=ManipulatorParams(m1=1e-16))
    with pytest.raises(NumericsError, match="mass matrix is numerically singular"):
        rank_one.system.drift(np.array([1.0, 0.0, 0.0, 0.0, 0.0]))
    with pytest.raises(NumericsError, match="numerically singular, det=0.0"):
        _inverse_terms(1.0, 2.0, 2.0, 4.0)
