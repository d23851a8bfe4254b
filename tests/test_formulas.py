import math
from dataclasses import fields, replace

import numpy as np
import pytest

from cbfctrl import (
    AffineConstraint,
    ConfigurationError,
    ControllerSpec,
    DomainError,
    IncompatibleInputError,
    InfeasibleConstraintError,
    KappaRangeError,
    NumericsError,
    ShapingFunction,
    TunableTermPolicy,
    evaluate_controller,
    gamma_sontag,
    lin_sontag_eta,
)
from cbfctrl.core import Gamma
from cbfctrl.formulas import check_kappa_range, lambda_min_norm, resolve_kappa
from oracles import lambda_tunable_relu

S1 = ShapingFunction.linear(1.0)
S02 = ShapingFunction.linear(0.2)


def minnorm_oracle(c, d):
    """Projection of the origin onto the half-space c + d.u >= 0."""
    d = np.asarray(d, dtype=float)
    if c >= 0.0:
        return np.zeros_like(d)
    return (-c / float(d @ d)) * d


# --- scalar multiplier functions ---------------------------------------------

def test_lambda_min_norm_values():
    # smallest u with -1 + u >= 0 is 1
    assert lambda_min_norm(-1.0, 1.0) == pytest.approx(1.0)
    assert lambda_min_norm(2.0, 3.0) == 0.0
    assert lambda_min_norm(-5.0, 0.0) == 0.0  # d = 0 branch of the bare formula


def sontag_lam(c, d, shaping=S1):
    """The sontag multiplier at (c, d), as evaluate_controller forms it."""
    return evaluate_controller(ControllerSpec.sontag(shaping), AffineConstraint(c, d)).lam


def eta_kappa(c, d, eta, shaping):
    """kappa of the constant-eta tunable kind at (c, d), as evaluate_controller forms it."""
    spec = ControllerSpec.tunable(shaping, TunableTermPolicy.eta_constant(eta))
    return evaluate_controller(spec, AffineConstraint(c, d)).kappa


def test_lambda_sontag_values():
    # ||d||^2 = 4, s(4)*4 = 16: (-3 + 5)/4
    assert sontag_lam(3.0, [2.0]) == pytest.approx(0.5)
    assert sontag_lam(0.0, [1.0]) == pytest.approx(1.0)
    assert sontag_lam(7.0, [0.0]) == 0.0


def test_lambda_sontag_positive_for_positive_d():
    rng = np.random.default_rng(5)
    for _ in range(1000):
        c = float(rng.normal(scale=5.0))
        d2 = float(rng.uniform(1e-9, 10.0))
        assert sontag_lam(c, [math.sqrt(d2)], S02) > 0.0


def tunable_lam(c, d, kappa, shaping=S1, relu=False):
    """The tunable multiplier at (c, d) with constant kappa, as evaluate_controller forms it."""
    spec = ControllerSpec.tunable(shaping, TunableTermPolicy.kappa_direct(lambda x: kappa), relu)
    return evaluate_controller(spec, AffineConstraint(c, d), x=np.zeros(1)).lam


def test_lambda_tunable_relu_values():
    # ||d||^2 = 4: the oracle at d2 = 4 and the library at d = [2]
    assert lambda_tunable_relu(3.0, 4.0, 1.0, 1.0) == pytest.approx(sontag_lam(3.0, [2.0]))
    assert tunable_lam(3.0, [2.0], 1.0, relu=True) == pytest.approx(lambda_tunable_relu(3.0, 4.0, 1.0, 1.0))
    # (-3 + 0.5*5)/4 < 0 clips to 0
    assert lambda_tunable_relu(3.0, 4.0, 0.5, 1.0) == 0.0
    assert tunable_lam(3.0, [2.0], 0.5, relu=True) == 0.0
    # kappa -> 0 recovers the min-norm multiplier for c < 0
    assert lambda_tunable_relu(-3.0, 4.0, 1e-12, 1.0) == pytest.approx(
        lambda_min_norm(-3.0, 4.0), abs=1e-11
    )
    assert tunable_lam(-3.0, [2.0], 1e-12, relu=True) == pytest.approx(lambda_min_norm(-3.0, 4.0), abs=1e-11)


def test_lambda_tunable_relu_safety_range_flag():
    assert lambda_tunable_relu(0.0, 1.0, 1.4, 1.0) > 0.0  # bare formula is total
    con = AffineConstraint(0.0, [1.0])
    for kappa in (1.4, 0.0):
        spec = ControllerSpec.tunable(
            S1, TunableTermPolicy.kappa_direct(lambda x, k=kappa: k), relu=True
        )
        with pytest.raises(KappaRangeError):
            evaluate_controller(spec, con, x=np.zeros(1))


def test_lambda_tunable_smooth_values():
    # ||d||^2 = 4, Gamma = 5, lower bound 0.6 < 0.8: (-3 + 4)/4
    assert tunable_lam(3.0, [2.0], 0.8) == pytest.approx(0.25)
    assert tunable_lam(3.0, [2.0], 1.0) == pytest.approx(0.5)
    with pytest.raises(KappaRangeError, match="lower bound"):
        tunable_lam(3.0, [2.0], 0.5)
    with pytest.raises(KappaRangeError, match="upper bound"):
        tunable_lam(3.0, [2.0], 1.1)
    with pytest.raises(KappaRangeError, match="lower bound"):
        tunable_lam(-3.0, [2.0], -0.5)


def test_lambda_tunable_exact_tie_returns_zero():
    # c = 2, sigma = 3, ||d||^2 = 2: Gamma = sqrt(4 + 12) = 4 exactly, kappa = 0.5
    s3 = ShapingFunction.linear(3.0)
    assert tunable_lam(2.0, [1.0, 1.0], 0.5, s3) == 0.0


def test_kappa_from_eta_values():
    # ||d||^2 = 4, Gamma = 5: 0.5*0.6 + 0.5 = 0.8, the half-gain tunable term
    k = eta_kappa(3.0, [2.0], 0.5, S1)
    assert k == pytest.approx(0.8)
    gamma = math.sqrt(3.0**2 + 16.0)
    assert k == pytest.approx((3.0 + gamma) / (2.0 * gamma))
    assert eta_kappa(3.0, [2.0], 1.0, S1) == 1.0
    assert eta_kappa(0.0, [1.0], 0.7, S02) == pytest.approx(0.7)
    # outside kappa's domain: evaluate_controller meets the infeasibility
    # first, so the kind's kappa is resolved directly (as check resolves it)
    spec = ControllerSpec.tunable(S1, TunableTermPolicy.eta_constant(0.7))
    with pytest.raises(DomainError):
        resolve_kappa(spec, -1.0, 0.0, Gamma(-1.0, 0.0, S1))


def test_kappa_from_eta_lands_in_smooth_range():
    rng = np.random.default_rng(9)
    for _ in range(2000):
        c = float(rng.normal(scale=4.0))
        d = [math.sqrt(rng.uniform(1e-6, 9.0))]
        eta = float(rng.uniform(0.5, 1.0))
        kappa = eta_kappa(c, d, eta, S02)
        d2 = d[0] * d[0]
        gamma = math.sqrt(c * c + 0.2 * d2 * d2)
        assert max(c / gamma, 0.0) < kappa <= 1.0


# --- controller assembly -------------------------------------------------------

def test_qp_controller_hand_value():
    out = evaluate_controller(ControllerSpec.qp(), AffineConstraint(-1.0, [1.0, 0.0]))
    np.testing.assert_allclose(out.u, [1.0, 0.0], atol=1e-15)
    assert out.residual == pytest.approx(0.0, abs=1e-15)


def test_qp_matches_projection_oracle():
    rng = np.random.default_rng(21)
    spec = ControllerSpec.qp()
    for _ in range(3000):
        m = int(rng.integers(1, 4))
        d = rng.normal(size=m) * rng.uniform(0.1, 3.0)
        c = float(rng.normal(scale=2.0))
        if float(d @ d) <= 1e-12 and c <= 0.0:
            continue
        out = evaluate_controller(spec, AffineConstraint(c, d))
        assert np.linalg.norm(out.u - minnorm_oracle(c, d)) <= 1e-9
        assert np.allclose(out.u, out.lam * d)


def test_qp_matches_scipy_solver():
    scipy_optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(22)
    spec = ControllerSpec.qp()
    for _ in range(150):
        m = int(rng.integers(1, 4))
        d = rng.normal(size=m)
        while float(d @ d) < 1e-3:
            d = rng.normal(size=m)
        c = float(rng.normal(scale=2.0))
        res = scipy_optimize.minimize(
            lambda u: 0.5 * float(u @ u),
            x0=np.zeros(m),
            jac=lambda u: u,
            constraints=[{"type": "ineq", "fun": lambda u: c + d @ u, "jac": lambda u: d}],
            method="SLSQP",
            options={"ftol": 1e-14, "maxiter": 200},
        )
        out = evaluate_controller(spec, AffineConstraint(c, d))
        assert np.linalg.norm(out.u - res.x) <= 1e-5


def test_infeasible_constraint_raises():
    with pytest.raises(InfeasibleConstraintError):
        evaluate_controller(ControllerSpec.qp(), AffineConstraint(-5.0, [0.0]))
    with pytest.raises(InfeasibleConstraintError):
        evaluate_controller(
            ControllerSpec.sontag(S1), AffineConstraint(0.0, [0.0, 0.0])
        )


def test_sontag_recovery_eta_one():
    rng = np.random.default_rng(33)
    tun = ControllerSpec.tunable(S02, TunableTermPolicy.eta_constant(1.0))
    stg = ControllerSpec.sontag(S02)
    for _ in range(2000):
        m = int(rng.integers(1, 4))
        d = rng.normal(size=m)
        c = float(rng.normal(scale=2.0))
        if float(d @ d) <= 1e-12:
            continue
        con = AffineConstraint(c, d)
        u_tun = evaluate_controller(tun, con).u
        u_stg = evaluate_controller(stg, con).u
        assert np.linalg.norm(u_tun - u_stg) <= 1e-12


def test_half_gain_is_half_sontag():
    # d is kept away from 0: at ||d||^2 below sqrt(ulp(c^2)) the tunable
    # term rounds onto the excluded boundary of its range and errors.
    rng = np.random.default_rng(34)
    tun = ControllerSpec.tunable(S02, TunableTermPolicy.eta_constant(0.5))
    stg = ControllerSpec.sontag(S02)
    for _ in range(2000):
        m = int(rng.integers(1, 4))
        d = rng.normal(size=m)
        c = float(rng.normal(scale=2.0))
        if float(d @ d) <= 1e-6:
            continue
        con = AffineConstraint(c, d)
        u_tun = evaluate_controller(tun, con).u
        u_stg = evaluate_controller(stg, con).u
        assert np.linalg.norm(u_tun - 0.5 * u_stg) <= 1e-12


def test_tunable_constraint_equality_and_residual():
    rng = np.random.default_rng(35)
    for _ in range(2000):
        d = rng.normal(size=2)
        if float(d @ d) <= 1e-12:
            continue
        c = float(rng.normal(scale=3.0))
        eta = float(rng.uniform(0.5, 1.0))
        spec = ControllerSpec.tunable(S02, TunableTermPolicy.eta_constant(eta))
        con = AffineConstraint(c, d)
        out = evaluate_controller(spec, con)
        gamma = math.sqrt(c * c + 0.2 * float(d @ d) ** 2)
        assert abs(c + float(d @ out.u) - out.kappa * gamma) <= 1e-9
        assert abs(out.residual) <= 1e-9
        assert c + float(d @ out.u) >= -1e-9


def test_relu_flag_and_kappa_direct_policy():
    con = AffineConstraint(3.0, [2.0])  # ||d||^2 = 4, Gamma = 5 under S1
    relu_spec = ControllerSpec.tunable(
        S1, TunableTermPolicy.kappa_direct(lambda x: 0.5), relu=True
    )
    out = evaluate_controller(relu_spec, con, x=np.zeros(1))
    np.testing.assert_allclose(out.u, [0.0])
    assert out.residual == pytest.approx(3.0 - 0.5 * 5.0)
    smooth_spec = ControllerSpec.tunable(
        S1, TunableTermPolicy.kappa_direct(lambda x: 0.5)
    )
    with pytest.raises(KappaRangeError):
        evaluate_controller(smooth_spec, con, x=np.zeros(1))


def test_eta_function_policy():
    spec = ControllerSpec.tunable(
        S1, TunableTermPolicy.eta_function(lambda c, d: 0.5 + 0.001 * d)
    )
    con = AffineConstraint(3.0, [2.0])
    out = evaluate_controller(spec, con)
    assert out.kappa == pytest.approx(eta_kappa(3.0, [2.0], 0.5 + 0.004, S1), rel=1e-14)


def test_safety_filter_zero_nominal_is_plain():
    rng = np.random.default_rng(36)
    inner = ControllerSpec.tunable(S02, TunableTermPolicy.eta_constant(0.7))
    filt = ControllerSpec.safety_filter(inner, lambda x: np.zeros(2))
    for _ in range(300):
        d = rng.normal(size=2)
        c = float(rng.normal(scale=2.0))
        if float(d @ d) <= 1e-12:
            continue
        con = AffineConstraint(c, d)
        u_f = evaluate_controller(filt, con, x=np.zeros(3)).u
        u_p = evaluate_controller(inner, con).u
        np.testing.assert_allclose(u_f, u_p, atol=1e-15)


def test_safety_filter_shifts_constraint():
    kd = np.array([0.3, -1.2])
    inner = ControllerSpec.tunable(S02, TunableTermPolicy.eta_constant(0.6))
    filt = ControllerSpec.safety_filter(inner, lambda x: kd)
    con = AffineConstraint(0.4, [0.0, -1.0])
    out = evaluate_controller(filt, con, x=np.zeros(3))
    c_bar = 0.4 + float(np.array([0.0, -1.0]) @ kd)
    assert out.c_eff == pytest.approx(c_bar)
    # full input satisfies the original constraint at the tightened level
    assert 0.4 + float(np.array([0.0, -1.0]) @ out.u) == pytest.approx(
        out.kappa * out.gamma_eff, abs=1e-12
    )


def test_safety_filter_nan_nominal_raises():
    # the filter's shifted constraint is checked for finiteness like any other
    inner = ControllerSpec.tunable(S02, TunableTermPolicy.eta_constant(0.7))
    filt = ControllerSpec.safety_filter(inner, lambda x: np.array([math.nan, 0.0]))
    with pytest.raises(NumericsError):
        evaluate_controller(filt, AffineConstraint(0.4, [1.0, -1.0]), x=np.zeros(3))


@pytest.mark.parametrize("c", [1e200, -1e200])
@pytest.mark.parametrize("kind", ["sontag", "tunable"])
def test_huge_c_gives_finite_output(c, kind):
    # c*c overflows; Gamma falls back to its hypot form instead of inf
    spec = (
        ControllerSpec.sontag(S02)
        if kind == "sontag"
        else ControllerSpec.tunable(S02, TunableTermPolicy.eta_constant(0.7))
    )
    con = AffineConstraint(c, [1.0])
    out = evaluate_controller(spec, con)
    gam = gamma_sontag(con, S02)
    assert gam == abs(c)
    assert np.isfinite(out.u).all() and math.isfinite(out.residual)
    assert abs(c + float(con.d @ out.u) - out.kappa * gam) <= 1e-12 * abs(c)


def test_safety_filter_is_its_formula_with_a_nominal():
    inner = ControllerSpec.tunable(S02, TunableTermPolicy.eta_constant(0.7))
    nominal = lambda x: np.zeros(1)
    assert ControllerSpec.safety_filter(inner, nominal) == replace(inner, nominal=nominal)
    assert [f.name for f in fields(ControllerSpec)] == ["kind", "shaping", "policy", "relu", "gamma", "nominal"]


def test_safety_filter_rejects_filter_inner():
    inner = ControllerSpec.safety_filter(ControllerSpec.qp(), lambda x: np.zeros(1))
    with pytest.raises(ConfigurationError):
        ControllerSpec.safety_filter(inner, lambda x: np.zeros(1))
    with pytest.raises(ConfigurationError, match="needs a callable nominal, got None"):
        ControllerSpec.safety_filter(ControllerSpec.qp(), None)


def test_bounded_input_norm_bound():
    rng = np.random.default_rng(37)
    gamma = 2.3
    spec = ControllerSpec.bounded_input(
        S02, gamma=gamma, policy=TunableTermPolicy.eta_constant(0.5)
    )
    checked = 0
    for _ in range(3000):
        m = int(rng.integers(1, 4))
        d = rng.normal(size=m)
        c = float(rng.normal(scale=2.0))
        con = AffineConstraint(c, d)
        if gamma * con.d_norm + c < 0:
            with pytest.raises(IncompatibleInputError):
                evaluate_controller(spec, con)
            continue
        try:
            out = evaluate_controller(spec, con)
        except KappaRangeError:
            continue  # eta-derived term can leave the bounded range
        assert np.linalg.norm(out.u) <= gamma + 1e-12
        checked += 1
    assert checked > 500


def test_bounded_input_default_policy_always_valid():
    # norm-bound-aware default eta is feasible whenever compatible
    rng = np.random.default_rng(38)
    gamma = 1.7
    spec = ControllerSpec.bounded_input(S02, gamma=gamma)
    for _ in range(2000):
        m = int(rng.integers(1, 4))
        d = rng.normal(size=m)
        c = float(rng.normal(scale=2.0))
        con = AffineConstraint(c, d)
        if gamma * con.d_norm + c < 0 or con.d_norm_sq <= 1e-12 and c <= 0:
            continue
        out = evaluate_controller(spec, con)
        assert np.linalg.norm(out.u) <= gamma + 1e-12


def test_lin_sontag_eta_map_matches_default():
    gamma = 1.7
    eta_fn = lin_sontag_eta(gamma, S02)
    with_policy = ControllerSpec.bounded_input(
        S02, gamma=gamma, policy=TunableTermPolicy.eta_function(eta_fn)
    )
    default = ControllerSpec.bounded_input(S02, gamma=gamma)
    con = AffineConstraint(-0.4, [0.9, 0.1])
    np.testing.assert_allclose(
        evaluate_controller(with_policy, con).u,
        evaluate_controller(default, con).u,
        rtol=1e-14,
    )


def test_bounded_input_exact_compatibility_admits_kappa_zero():
    # gamma ||d|| + c = 0: the range closes to kappa = 0, which the default
    # policy hits exactly here, and u is the min-norm input of norm gamma
    spec = ControllerSpec.bounded_input(S02, gamma=1.0)
    out = evaluate_controller(spec, AffineConstraint(-1.0, [1.0]))
    assert out.kappa == 0.0
    np.testing.assert_array_equal(out.u, [1.0])
    gam = gamma_sontag(AffineConstraint(-1.0, [1.0]), S02)
    check_kappa_range(0.0, -1.0, 1.0, gam, relu=True, gamma_bound=1.0)
    # only exactly 0: a kappa that rounds off it is still out of the closed range
    for kappa in (1e-16, -1e-16):
        with pytest.raises(KappaRangeError):
            check_kappa_range(kappa, -1.0, 1.0, gam, relu=True, gamma_bound=1.0)
    # kappa = 0 stays out of the ReLU range wherever the slack is positive
    with pytest.raises(KappaRangeError):
        check_kappa_range(0.0, -0.5, 1.0, gam, relu=True, gamma_bound=1.0)


def test_bounded_input_incompatible_deficit():
    spec = ControllerSpec.bounded_input(
        S02, gamma=1.0, policy=TunableTermPolicy.eta_constant(0.5)
    )
    with pytest.raises(IncompatibleInputError) as info:
        evaluate_controller(spec, AffineConstraint(-3.0, [1.0]))
    assert info.value.deficit == pytest.approx(2.0)


def test_bounded_input_gamma_validation():
    with pytest.raises(ConfigurationError):
        ControllerSpec.bounded_input(S02, gamma=0.0)


def test_formula_structure_u_along_d():
    rng = np.random.default_rng(39)
    specs = [
        ControllerSpec.qp(),
        ControllerSpec.sontag(S02),
        ControllerSpec.tunable(S02, TunableTermPolicy.eta_constant(0.8)),
    ]
    for _ in range(200):
        d = rng.normal(size=3)
        c = float(rng.normal(scale=2.0))
        if float(d @ d) <= 1e-12:
            continue
        con = AffineConstraint(c, d)
        for spec in specs:
            out = evaluate_controller(spec, con)
            np.testing.assert_allclose(out.u, out.lam * d, atol=1e-15)


def test_qp_scaling_covariance():
    # d -> a d with c fixed: u = lambda_min_norm(c, a^2 ||d||^2) * a * d^T
    rng = np.random.default_rng(40)
    spec = ControllerSpec.qp()
    for _ in range(300):
        d = rng.normal(size=2)
        if float(d @ d) <= 1e-9:
            continue
        c = float(rng.normal(scale=2.0))
        a = float(rng.uniform(0.1, 5.0))
        out = evaluate_controller(spec, AffineConstraint(c, a * d))
        expected = lambda_min_norm(c, a * a * float(d @ d)) * a * d
        np.testing.assert_allclose(out.u, expected, rtol=1e-12, atol=1e-14)
