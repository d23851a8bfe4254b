import math

import numpy as np
import pytest

from cbfctrl import (
    AffineConstraint,
    BarrierFunction,
    ConfigurationError,
    ControlAffineSystem,
    ControllerSpec,
    ExtendedClassK,
    NumericsError,
    ShapingFunction,
    TunableTermPolicy,
    evaluate_constraint,
    evaluate_controller,
    gamma_sontag,
)
from cbfctrl.core import Gamma
from cbfctrl.systems import linear_barrier, single_integrator
from oracles import finite_difference_gradient


def test_constraint_single_integrator_hand_value():
    # xdot = u, h = -x, beta = 1.5 s, at x = -1: c = 0 + 1.5*1, d = -1
    system = single_integrator(1)
    barrier = linear_barrier([1.0], 0.0, beta=1.5)
    con = evaluate_constraint(system, barrier, np.array([-1.0]))
    assert con.c == pytest.approx(1.5, abs=1e-15)
    np.testing.assert_allclose(con.d, [-1.0])


def test_constraint_manipulator_velocity_level():
    # velocity-level joint limit: d = [0, -1], c = 1.5 h
    from cbfctrl.manipulator import velocity_level_scenario

    sc = velocity_level_scenario(eta=0.7, sigma=0.2)
    for q2 in [0.0, 0.3, 1.0]:
        x = np.array([0.4, q2, 1.7])
        con = evaluate_constraint(sc.system, sc.barrier, x)
        h = math.pi / 3.0 - q2
        assert con.c == pytest.approx(1.5 * h, rel=1e-14)
        np.testing.assert_allclose(con.d, [0.0, -1.0])


def test_constraint_zero_gradient():
    system = single_integrator(2)
    barrier = BarrierFunction(
        value=lambda x: 1.0,
        gradient=lambda x: np.zeros(2),
        classk=ExtendedClassK.linear(2.0),
    )
    con = evaluate_constraint(system, barrier, np.array([3.0, -4.0]))
    assert con.c == pytest.approx(2.0)
    np.testing.assert_allclose(con.d, [0.0, 0.0])


def test_constraint_dimension_mismatch():
    system = ControlAffineSystem(
        state_dim=2,
        input_dim=1,
        drift=lambda x: np.zeros(3),  # wrong shape
        input_map=lambda x: np.zeros((2, 1)),
    )
    barrier = linear_barrier([1.0, 0.0], 1.0)
    with pytest.raises(ConfigurationError):
        evaluate_constraint(system, barrier, np.array([0.0, 0.0]))
    with pytest.raises(ConfigurationError):
        evaluate_constraint(single_integrator(2), linear_barrier([1.0, 0.0], 1.0), np.zeros(3))


def test_constraint_non_finite():
    system = ControlAffineSystem(
        state_dim=1,
        input_dim=1,
        drift=lambda x: np.array([math.inf]),
        input_map=lambda x: np.eye(1),
    )
    with pytest.raises(NumericsError, match=r"not finite at x=\[0\.\]"):
        evaluate_constraint(system, linear_barrier([1.0], 1.0), np.zeros(1))


def test_gamma_sontag_values():
    s1 = ShapingFunction.linear(1.0)
    # c = 3, ||d||^2 = 4: sqrt(9 + 4*4) = 5
    assert gamma_sontag(AffineConstraint(3.0, [2.0]), s1) == pytest.approx(5.0)
    # d = 0 collapses to |c|
    assert gamma_sontag(AffineConstraint(-2.0, [0.0]), s1) == pytest.approx(2.0)
    # c = 0, ||d||^2 = 1, sigma = 0.2: independent scalar check
    s02 = ShapingFunction.linear(0.2)
    assert gamma_sontag(AffineConstraint(0.0, [1.0]), s02) == pytest.approx(
        math.sqrt(0.2), rel=1e-15
    )


def test_gamma_keeps_the_direct_form_where_it_is_finite():
    rng = np.random.default_rng(8)
    s = ShapingFunction.linear(0.3)
    for _ in range(200):
        c = float(rng.normal(scale=10.0))
        d2 = float(rng.uniform(0.0, 20.0))
        assert Gamma(c, d2, s) == math.sqrt(c * c + s(d2) * d2)


def test_gamma_overflow_falls_back_to_hypot():
    s = ShapingFunction.linear(0.2)
    for c in (1e200, -1e200):
        assert Gamma(c, 1.0, s) == 1e200
    # ||d||^2 = 1e300 with sigma = 0.2: s(d2)*d2 overflows, the hypot form does not
    assert Gamma(0.0, 1e300, s) == pytest.approx(math.sqrt(0.2) * 1e300, rel=1e-15)


def test_gamma_underflow_falls_back_to_hypot():
    # c*c underflows to 0 at c = 1e-265; the hypot form keeps Gamma = |c| > 0
    s = ShapingFunction.linear(0.2)
    for c in (1e-265, -1e-265):
        assert Gamma(c, 0.0, s) == 1e-265
    assert Gamma(0.0, 0.0, s) == 0.0


def test_gamma_takes_the_hypot_form_where_the_direct_sum_is_subnormal():
    # c*c = 1e-320 is subnormal: its square root would be 9.99994e-161 < |c|
    s = ShapingFunction.linear(0.2)
    for c in (1e-160, -1e-160):
        assert Gamma(c, 0.0, s) == 1e-160
    spec = ControllerSpec.tunable(s, TunableTermPolicy.eta_constant(0.5))
    assert evaluate_controller(spec, AffineConstraint(1e-160, [0.0])).kappa == 1.0


def test_gamma_not_finite_raises():
    with pytest.raises(NumericsError, match="Gamma is not finite"):
        Gamma(1.0, 1e300, ShapingFunction.linear(1e10))


def test_gamma_dominates_abs_c():
    rng = np.random.default_rng(7)
    s = ShapingFunction.linear(0.5)
    for _ in range(500):
        c = float(rng.normal(scale=3.0))
        d = rng.normal(size=rng.integers(1, 4))
        gam = gamma_sontag(AffineConstraint(c, d), s)
        if float(d @ d) > 0:
            assert gam > abs(c)
        else:
            assert gam == pytest.approx(abs(c))


def test_constraint_linear_in_input_map():
    # doubling g doubles d and leaves c unchanged
    rng = np.random.default_rng(3)
    a = rng.normal(size=3)
    g_base = rng.normal(size=(3, 2))

    def make_system(scale):
        return ControlAffineSystem(
            state_dim=3,
            input_dim=2,
            drift=lambda x: np.sin(x),
            input_map=lambda x, s=scale: s * g_base,
        )

    barrier = BarrierFunction(
        value=lambda x: float(1.0 - a @ x),
        gradient=lambda x: -a,
        classk=ExtendedClassK.linear(1.5),
    )
    x = rng.normal(size=3)
    con1 = evaluate_constraint(make_system(1.0), barrier, x)
    con2 = evaluate_constraint(make_system(2.0), barrier, x)
    assert con2.c == pytest.approx(con1.c, rel=1e-14)
    np.testing.assert_allclose(con2.d, 2.0 * con1.d, rtol=1e-14)


def test_classk_linear_homogeneity():
    beta = ExtendedClassK.linear(1.7)
    assert beta(0.0) == 0.0
    rng = np.random.default_rng(0)
    for _ in range(100):
        s = float(rng.normal(scale=2.0))
        a = float(rng.uniform(0.1, 5.0))
        assert beta(a * s) == pytest.approx(a * beta(s), rel=1e-12)


def test_classk_monotone_on_grid():
    for beta in [ExtendedClassK.linear(0.3), ExtendedClassK.custom(lambda s: s**3 + s)]:
        grid = np.sort(np.random.default_rng(1).uniform(-2.0, 2.0, size=200))
        vals = [beta(s) for s in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert beta(0.0) == 0.0


def test_classk_rejects_nonzero_origin():
    with pytest.raises(ConfigurationError):
        ExtendedClassK.custom(lambda s: s + 0.1)
    with pytest.raises(ConfigurationError):
        ExtendedClassK.linear(0.0)


def test_shaping_function_properties():
    s = ShapingFunction.linear(0.2)
    assert s(0.0) == 0.0
    for y in np.random.default_rng(2).uniform(1e-6, 10.0, size=100):
        assert s(float(y)) > 0.0
    with pytest.raises(ConfigurationError):
        ShapingFunction.custom(lambda y: y + 1.0)


def test_barrier_gradient_matches_finite_difference():
    def h(x):
        return float(1.0 - x[0] ** 2 - math.sin(x[1]) + 0.5 * x[0] * x[1])

    def grad(x):
        return np.array([-2.0 * x[0] + 0.5 * x[1], -math.cos(x[1]) + 0.5 * x[0]])

    barrier = BarrierFunction(value=h, gradient=grad, classk=ExtendedClassK.linear(1.0))
    rng = np.random.default_rng(11)
    for _ in range(20):
        x = rng.uniform(-3.0, 3.0, size=2)
        fd = finite_difference_gradient(barrier.value, x)
        np.testing.assert_allclose(barrier.gradient(x), fd, rtol=1e-5, atol=1e-7)


def test_policy_validation():
    with pytest.raises(ConfigurationError):
        TunableTermPolicy.eta_constant(0.0)
    with pytest.raises(ConfigurationError):
        TunableTermPolicy.eta_constant(1.2)
    assert TunableTermPolicy.eta_constant(0.3).eta == 0.3  # accepted; its range is checked per state


def test_affine_constraint_rejects_non_finite():
    with pytest.raises(NumericsError):
        AffineConstraint(math.nan, [1.0])
    with pytest.raises(NumericsError):
        AffineConstraint(1.0, [math.inf])
