"""The safety filter in one pass, and ||d||^2 formed once on the constraint.

evaluate_controller evaluates a filter (a spec with a nominal k_d) by
shifting c by d.k_d and running its formula on the constraint's own d and
||d||^2.  The oracle below is the nested evaluation it replaced (the spec
without its nominal on a new AffineConstraint(c + d.k_d, d), by a recursive
call); over drawn (c, d, k_d) both give the same output bit for bit, or the
same exception.
"""

import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cbfctrl import (
    EPS_D,
    AffineConstraint,
    ConfigurationError,
    ControllerOutput,
    ControllerSpec,
    IncompatibleInputError,
    InfeasibleConstraintError,
    NumericsError,
    ShapingFunction,
    SimConfig,
    TunableTermPolicy,
    evaluate_controller,
    run,
)
from cbfctrl.formulas import _tunable_terms, lambda_min_norm, norm_bound_slack
from cbfctrl.manipulator import torque_level_scenario, velocity_level_scenario
from cbfctrl.systems import linear_barrier, single_integrator


def nested_oracle(spec, con, x=None):
    """evaluate_controller as it evaluated a safety filter in two passes."""
    c = con.c
    d = con.d
    d2 = float(con.d @ con.d)
    if d2 <= EPS_D and c <= 0.0:
        raise InfeasibleConstraintError(
            f"infeasible constraint: c={c} <= 0 with ||d||^2={d2} ~ 0"
            + (f" at x={x}" if x is not None else "")
        )

    if spec.nominal is not None:
        kd = np.asarray(spec.nominal(x), dtype=float)
        c_bar = c + float(d @ kd)
        inner_out = nested_oracle(replace(spec, nominal=None), AffineConstraint(c_bar, d), x)
        return ControllerOutput(
            u=inner_out.u + kd,
            lam=inner_out.lam,
            kappa=inner_out.kappa,
            residual=inner_out.residual,
            c_eff=inner_out.c_eff,
            gamma_eff=inner_out.gamma_eff,
        )

    if spec.kind == "qp":
        lam = lambda_min_norm(c, d2)
        return ControllerOutput(
            u=lam * d, lam=lam, kappa=None, residual=c + lam * d2, c_eff=c, gamma_eff=math.nan
        )

    if spec.kind not in ("sontag", "tunable", "bounded_input"):
        raise ConfigurationError(f"unknown controller kind {spec.kind!r}")
    if spec.kind == "bounded_input":
        slack = norm_bound_slack(c, d2, spec.gamma)
        if slack < 0.0:
            raise IncompatibleInputError(
                f"norm bound gamma={spec.gamma} incompatible with (c={c}, ||d||={math.sqrt(d2)})",
                deficit=-slack,
            )
    gam, kappa, lam = _tunable_terms(spec, c, d2, x)
    return ControllerOutput(
        u=lam * d, lam=lam, kappa=kappa, residual=c + lam * d2 - kappa * gam, c_eff=c, gamma_eff=gam
    )


def inner_specs(sigma, eta, gamma):
    shaping = ShapingFunction.linear(sigma)
    policy = TunableTermPolicy.eta_constant(eta)
    return [
        ControllerSpec.qp(),
        ControllerSpec.sontag(shaping),
        ControllerSpec.tunable(shaping, policy),
        ControllerSpec.tunable(shaping, policy, relu=True),
        ControllerSpec.bounded_input(shaping, gamma, policy),
        ControllerSpec.bounded_input(shaping, gamma),  # the norm-bound-aware eta map
    ]


def outcome(evaluate, spec, con, x):
    """The output of evaluate, or the type and message of what it raised."""
    try:
        return evaluate(spec, con, x)
    except Exception as exc:  # every exception is compared, type and message
        return type(exc), str(exc)


def same(spec, con, x):
    with np.errstate(over="ignore", invalid="ignore"):
        want = outcome(nested_oracle, spec, con, x)
        have = outcome(evaluate_controller, spec, con, x)
    if isinstance(want, tuple):
        assert have == want
        return
    assert isinstance(have, ControllerOutput)
    assert have.u.tobytes() == want.u.tobytes()
    assert (have.kappa is None) == (want.kappa is None)
    for name in ("lam", "kappa", "residual", "c_eff", "gamma_eff"):
        a, b = getattr(have, name), getattr(want, name)
        if a is not None:
            assert np.float64(a).tobytes() == np.float64(b).tobytes(), name


finite = st.floats(-1e6, 1e6, allow_nan=False)
entries = st.one_of(finite, st.just(0.0), st.sampled_from([1e-7, -1e-7, 1e300, -1e300]))
odd = st.sampled_from([math.inf, -math.inf, math.nan])


@st.composite
def filter_points(draw):
    m = draw(st.integers(1, 3))
    d = draw(st.lists(entries, min_size=m, max_size=m))
    kd = draw(st.lists(st.one_of(entries, odd) if draw(st.booleans()) else entries, min_size=m, max_size=m))
    return d, kd


@given(
    st.one_of(finite, st.just(0.0), st.sampled_from([1e-300, -1e-300])),
    filter_points(),
    st.floats(0.01, 5.0),
    st.floats(0.05, 1.0),
    st.floats(0.1, 10.0),
    st.booleans(),
)
@example(1.0, ([1e-7], [-1e8]), 0.2, 0.7, 1.0, True)  # feasible c, infeasible shifted c
@example(1.0, ([0.0], [math.inf]), 0.2, 0.7, 1.0, False)  # 0 * inf: a NaN shift
@example(1.0, ([1e300, 1e300], [1e300, 0.0]), 0.2, 0.7, 1.0, True)  # the shift overflows
@example(-1.0, ([1e-7], [1.0]), 0.2, 0.7, 1.0, True)  # infeasible before the nominal runs
@example(-5.0, ([1.0, 0.0], [1.0, 2.0]), 0.2, 0.3, 1.0, True)  # kappa out of range
def test_one_pass_filter_matches_nested_oracle(c, point, sigma, eta, gamma, with_x):
    d, kd = point
    try:
        with np.errstate(over="ignore"):
            con = AffineConstraint(c, d)
    except NumericsError:
        return  # a d whose entries are finite always constructs, see below
    x = np.array([0.25, -1.5]) if with_x else None
    kd = np.array(kd)
    for inner in inner_specs(sigma, eta, gamma):
        same(ControllerSpec.safety_filter(inner, lambda x, kd=kd: kd), con, x)
        same(inner, con, x)


@given(st.floats(allow_nan=False, allow_infinity=False), st.lists(finite, min_size=1, max_size=4))
def test_constraint_keeps_its_squared_norm(c, d):
    con = AffineConstraint(c, d)
    arr = np.asarray(d, dtype=float)
    assert con.d_norm_sq == float(arr @ arr)
    assert con.d_norm == math.sqrt(con.d_norm_sq)
    # d_norm_sq is derived: no argument, no part in comparisons or the repr
    assert [f.name for f in fields(AffineConstraint) if f.init or f.compare or f.repr] == ["c", "d"]


@pytest.mark.parametrize(
    "c, d",
    [(math.nan, [1.0]), (math.inf, [1.0]), (1.0, [math.nan]), (1.0, [1.0, -math.inf]), (1.0, [1e300, math.nan])],
)
def test_non_finite_constraint_raises(c, d):
    with pytest.raises(NumericsError) as err, np.errstate(over="ignore"):
        AffineConstraint(c, d)
    assert str(err.value) == f"constraint pair is not finite: c={float(c)}, d={np.asarray(d, dtype=float)}"


def test_finite_direction_whose_square_overflows_constructs():
    with np.errstate(over="ignore"):
        con = AffineConstraint(1.0, [1e200])
    assert con.d_norm_sq == math.inf
    assert con.d.dtype == np.float64 and con.d.shape == (1,)
    # a float64 vector is kept as it is, anything else is converted
    d = np.array([0.5, -2.0])
    assert AffineConstraint(0.0, d).d is d
    assert AffineConstraint(0.0, 3).d.tolist() == [3.0]
    assert AffineConstraint(0.0, np.array([1, 2])).d.dtype == np.float64


def _integrator_filter():
    inner = ControllerSpec.tunable(ShapingFunction.linear(0.2), TunableTermPolicy.eta_constant(0.7))
    spec = ControllerSpec.safety_filter(inner, lambda x: np.array([2.0]))
    return single_integrator(1), spec, linear_barrier([1.0], 1.0), np.array([0.0])


def _velocity_filter():
    sc = velocity_level_scenario()
    return sc.system, sc.spec, sc.barrier, sc.x0


def _torque_filter():
    sc = torque_level_scenario()
    return sc.system, sc.spec, sc.barrier, sc.x0


@pytest.mark.parametrize(
    "plant, per_evaluation", [(_integrator_filter, 1), (_velocity_filter, 0), (_torque_filter, 0)]
)
def test_scalar_loop_builds_one_constraint_and_one_output_per_evaluation(plant, per_evaluation, monkeypatch):
    # the numpy loop (the integrator declares no plant evaluation) builds one
    # of each per evaluation; the float loop of a declared plant builds none
    system, spec, barrier, x0 = plant()
    counts = {"evaluations": 0, "constraints": 0, "outputs": 0}
    post_init, output_init = AffineConstraint.__post_init__, ControllerOutput.__init__

    def counted_post_init(self):
        counts["constraints"] += 1
        post_init(self)

    def counted_output_init(self, *args, **kwargs):
        counts["outputs"] += 1
        output_init(self, *args, **kwargs)

    def counted_evaluate(spec, con, x=None, kd=None):
        counts["evaluations"] += 1
        return evaluate_controller(spec, con, x, kd)

    monkeypatch.setattr(AffineConstraint, "__post_init__", counted_post_init)
    monkeypatch.setattr(ControllerOutput, "__init__", counted_output_init)
    monkeypatch.setattr("cbfctrl.simulate.evaluate_controller", counted_evaluate)
    traj = run(system, spec, barrier, x0, SimConfig(dt=1e-3, horizon=1e-3))
    assert traj.ok and len(traj) == 2
    # the recorded state of steps 0 and 1, and RK4 stages 2-4 of step 0
    n = 5 * per_evaluation
    assert counts == {"evaluations": n, "constraints": n, "outputs": n}
