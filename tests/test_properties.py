"""The paper's identities as properties over random (c, d, sigma, eta).

Every formula kind reduces to one multiplier lambda = (-c + kappa*Gamma)/||d||^2
with Gamma = sqrt(c^2 + s(||d||^2) ||d||^2); these tests check what that
implies, at points hypothesis draws rather than at hand-picked ones.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from cbfctrl import (
    AffineConstraint,
    CBFControlError,
    ConfigurationError,
    ControllerSpec,
    KappaRangeError,
    ShapingFunction,
    TunableTermPolicy,
    evaluate_controller,
    gamma_sontag,
    margin_of,
)
from cbfctrl import cli
from cbfctrl.formulas import FormulaBatch, controller_spec, lambda_and_slope, lambda_min_norm, vectorisable

cs = st.floats(-50.0, 50.0, allow_nan=False)
ds = st.lists(st.floats(-10.0, 10.0, allow_nan=False), min_size=1, max_size=3)
sigmas = st.floats(0.01, 5.0)
etas = st.floats(0.5, 1.0)
gammas = st.floats(0.1, 10.0)


def constraint(c, d):
    con = AffineConstraint(c, d)
    assume(con.d_norm_sq > 1e-6)
    return con


def close(a, b, scale):
    return abs(a - b) <= 1e-9 * max(1.0, scale)


@given(cs, ds, sigmas, etas)
def test_tightened_constraint_equality(c, d, sigma, eta):
    # c + d.u = kappa * Gamma for the sontag (kappa = 1) and tunable kinds
    con = constraint(c, d)
    shaping = ShapingFunction.linear(sigma)
    gam = gamma_sontag(con, shaping)
    for spec in (
        ControllerSpec.sontag(shaping),
        ControllerSpec.tunable(shaping, TunableTermPolicy.eta_constant(eta)),
    ):
        out = evaluate_controller(spec, con)
        assert out.gamma_eff == gam
        assert close(c + float(con.d @ out.u), out.kappa * gam, gam)
        assert close(out.residual, 0.0, gam)


@given(cs, ds, sigmas, etas)
def test_multiplier_ordering(c, d, sigma, eta):
    # min-norm <= tunable <= sontag for eta in [0.5, 1]
    con = constraint(c, d)
    shaping = ShapingFunction.linear(sigma)
    tunable = ControllerSpec.tunable(shaping, TunableTermPolicy.eta_constant(eta))
    lam_qp = lambda_min_norm(c, con.d_norm_sq)
    lam_tun = evaluate_controller(tunable, con).lam
    lam_stg = evaluate_controller(ControllerSpec.sontag(shaping), con).lam
    assert lam_qp <= lam_tun * (1.0 + 1e-12)
    assert lam_tun <= lam_stg * (1.0 + 1e-12)


@given(cs, ds, sigmas, etas)
def test_margin_nonpositive(c, d, sigma, eta):
    # M = -1 + c / (c - kappa*Gamma) <= 0 wherever it is defined
    con = constraint(c, d)
    shaping = ShapingFunction.linear(sigma)
    for spec in (
        ControllerSpec.sontag(shaping),
        ControllerSpec.tunable(shaping, TunableTermPolicy.eta_constant(eta)),
    ):
        m = margin_of(evaluate_controller(spec, con))
        assert math.isnan(m) or m <= 0.0


@given(cs, ds, sigmas, gammas)
def test_bounded_input_respects_norm_bound(c, d, sigma, gamma):
    # under compatibility the default policy always evaluates, within the bound
    con = constraint(c, d)
    slack = gamma * con.d_norm + c
    assume(slack >= 1e-9 * max(1.0, abs(c)))
    spec = ControllerSpec.bounded_input(ShapingFunction.linear(sigma), gamma=gamma)
    out = evaluate_controller(spec, con)
    assert float(np.linalg.norm(out.u)) <= gamma * (1.0 + 1e-12)


@given(cs, ds, sigmas, etas)
def test_bounded_input_constant_eta_never_exceeds_bound(c, d, sigma, eta):
    # a constant eta may leave the range, but an accepted kappa keeps ||u|| <= gamma
    con = constraint(c, d)
    gamma = 2.3
    assume(gamma * con.d_norm + c >= 0.0)
    spec = ControllerSpec.bounded_input(
        ShapingFunction.linear(sigma), gamma=gamma, policy=TunableTermPolicy.eta_constant(eta)
    )
    try:
        out = evaluate_controller(spec, con)
    except KappaRangeError:
        return
    assert float(np.linalg.norm(out.u)) <= gamma * (1.0 + 1e-12)


@given(
    st.one_of(st.floats(-50.0, -0.1), st.floats(0.1, 50.0)),
    st.floats(0.1, 10.0),
    sigmas,
    etas,
    st.sampled_from(["qp", "sontag", "tunable", "relu"]),
)
def test_slope_matches_central_difference(c, d, sigma, eta, kind):
    # d(lambda)/dc against a central difference, away from the min-norm kink at c = 0
    shaping = ShapingFunction.linear(sigma)
    spec = {
        "qp": ControllerSpec.qp(),
        "sontag": ControllerSpec.sontag(shaping),
        "tunable": ControllerSpec.tunable(shaping, TunableTermPolicy.eta_constant(eta)),
        "relu": ControllerSpec.tunable(shaping, TunableTermPolicy.eta_constant(eta), relu=True),
    }[kind]
    d2 = d * d
    h = 1e-6 * (1.0 + abs(c))
    lam, slope = lambda_and_slope(spec, c, d2)
    fd = (lambda_and_slope(spec, c + h, d2)[0] - lambda_and_slope(spec, c - h, d2)[0]) / (2.0 * h)
    assert lam == evaluate_controller(spec, AffineConstraint(c, [d])).lam
    assert abs(slope - fd) <= 1e-5 * (1.0 + abs(slope))


def batch_specs(sigma, eta, gamma):
    shaping = ShapingFunction.linear(sigma)
    policy = TunableTermPolicy.eta_constant(eta)
    return [
        ControllerSpec.qp(),
        ControllerSpec.sontag(shaping),
        ControllerSpec.tunable(shaping, policy),
        ControllerSpec.tunable(shaping, policy, relu=True),
        ControllerSpec.bounded_input(shaping, gamma, policy),
    ]


def assert_kernel_matches_scalar(specs, cs_, d):
    # each spec alone over the stack cs_: every point where evaluate_controller
    # raises is flagged, and every unflagged point's lambda, kappa and Gamma
    # are the scalar ones, bit for bit
    d2 = AffineConstraint(0.0, d).d_norm_sq
    for spec in specs:
        with np.errstate(all="ignore"):
            lam, kappa, gam, flagged = FormulaBatch(spec)(np.array(cs_), d2)
        for i, c in enumerate(cs_):
            if spec.kind == "qp":
                assert math.isnan(kappa[i])  # qp has no tunable term
            try:
                out = evaluate_controller(spec, AffineConstraint(c, d))
            except CBFControlError:
                assert flagged[i]
                continue
            if flagged[i]:
                continue
            assert lam[i] == out.lam
            if spec.kind != "qp":
                assert (kappa[i], gam[i]) == (out.kappa, out.gamma_eff)


@given(
    st.lists(st.floats(-50.0, 50.0, allow_nan=False), min_size=5, max_size=5),
    st.one_of(ds, st.just([0.0]), st.just([1e-7])),
    sigmas,
    st.floats(0.05, 1.0),
    gammas,
)
@example([0.0, 2.225073858507203e-309, 0.0, 0.0, 0.0], [0.0], 1.0, 1.0, 1.0)  # the direct Gamma underflows to 0
@example([1e-265] * 5, [0.0], 0.2, 0.7, 1.0)
@example([1e-160] * 5, [0.0], 0.2, 0.5, 1.0)  # the direct Gamma's sum is subnormal
@example([1e-170] * 5, [1e-78], 0.2, 0.7, 1.0)  # the same, with kappa and the multiplier in range
def test_batch_kernel_matches_scalar(cs_, d, sigma, eta, gamma):
    assert_kernel_matches_scalar(batch_specs(sigma, eta, gamma), cs_, d)


@given(
    st.lists(st.floats(-50.0, 50.0, allow_nan=False), min_size=3, max_size=3),
    st.one_of(ds, st.just([0.0]), st.just([1e-7])),
    sigmas,
    st.floats(0.05, 1.0),
    gammas,
)
@example([1e-265, 1e-265, 1.0], [0.0], 0.2, 0.7, 1.0)  # the direct Gamma underflows to 0
def test_bounded_batch_kernel_matches_scalar(cs_, d, sigma, eta, gamma):
    # bounded-input specs, whose kappa upper bound is slack / Gamma alone
    shaping = ShapingFunction.linear(sigma)
    specs = [
        ControllerSpec.bounded_input(shaping, gamma, TunableTermPolicy.eta_constant(eta)),
        ControllerSpec.bounded_input(shaping, 2.0 * gamma, TunableTermPolicy.eta_constant(eta)),
        ControllerSpec.bounded_input(shaping, gamma, TunableTermPolicy.eta_constant(1.0)),
    ]
    assert_kernel_matches_scalar(specs, cs_, d)


def test_shaping_slopes_too_small_for_the_kernel_do_not_batch():
    # below sigma ~ 2.2e-284, s(d2) d2 can be subnormal at d2 > EPS_D, where
    # the kernel does not test for core.Gamma's hypot form
    assert vectorisable(controller_spec("sontag", sigma=1e-280))
    assert not vectorisable(controller_spec("sontag", sigma=1e-290))
    assert not vectorisable(controller_spec("tunable", sigma=1e-290, eta=0.7))
    with pytest.raises(ConfigurationError, match="^kind 'sontag' with this shaping or policy does not batch$"):
        FormulaBatch(controller_spec("sontag", sigma=1e-290))


def checked_point(spec, c, d):
    """(kappa, ok) of cli's per-state check body at the constraint (c, d)."""
    con = AffineConstraint(c, d)
    _, _, kappa, ok = cli._check_state(SimpleNamespace(spec=spec), lambda x: (None, None, None, con, None), None)
    return kappa, ok


def range_specs(sigma, eta, gamma, relu):
    shaping = ShapingFunction.linear(sigma)
    policy = TunableTermPolicy.eta_constant(eta)
    return [
        ControllerSpec.qp(),
        ControllerSpec.sontag(shaping),
        ControllerSpec.tunable(shaping, policy, relu),
        ControllerSpec.bounded_input(shaping, gamma, policy),
    ]


@given(
    st.lists(st.one_of(st.floats(-50.0, 50.0), st.sampled_from([0.0, 1e-170, -1e-170, 1e160, -1e160, -1e300])),
             min_size=4, max_size=4),
    # ||d||^2 well above EPS_D, just below and above it, 0, subnormal-squared and overflowing
    st.one_of(ds, st.sampled_from([[0.0], [1e-7], [9.99e-7], [1.001e-6], [1e-78], [1e160]])),
    st.floats(0.01, 5.0),
    st.floats(0.05, 1.0),
    gammas,
    st.booleans(),
)
# the bounded-input tie kappa == upper == 0: Gamma == -c, kappa = 0.5 (-1) + 0.5, slack = 2^30 - 2^30
@example([-2.0**30] * 4, [1.0], 1.0, 0.5, 2.0**30, True)
# the smooth tie kappa Gamma == c: Gamma == c and kappa == 1
@example([2.0**30] * 4, [1.0], 1.0, 0.3, 1.0, False)
def test_range_verdict_matches_the_per_state_check(cs_, d, sigma, eta, gamma, relu):
    # wherever the kernel decides a point, its verdict and kappa are the
    # per-state check's (resolve_kappa's DomainError and check_kappa_range);
    # where Gamma leaves its direct form the point is undecided
    specs = range_specs(sigma, eta, gamma, relu)
    with np.errstate(over="ignore"):
        d2 = AffineConstraint(0.0, d).d_norm_sq
    c = np.array(cs_)
    # each kind alone over the stack cs_
    for spec in specs:
        kernel = FormulaBatch(spec)
        with np.errstate(all="ignore"):
            _, kappa, gam, _ = kernel(c, d2)
            kappa, ok, decided = kernel.range_verdict(c, d2, kappa, gam)
        for i, ci in enumerate(cs_):
            if 1e-100 < abs(ci) < 1e100 and d2 < 1e100:
                assert decided[i]
            if not decided[i]:
                continue
            assert abs(ci) < 1e155 and d2 < 1e155  # no Gamma outside its direct form is decided
            want_kappa, want_ok = checked_point(spec, ci, d)
            assert ok[i] == want_ok, (spec.kind, ci, d2)
            assert kappa[i] == want_kappa or (math.isnan(kappa[i]) and math.isnan(want_kappa))
