import math

import numpy as np
import pytest

from cbfctrl import (
    AffineConstraint,
    ConfigurationError,
    ControllerSpec,
    DegenerateMarginError,
    DisturbanceSpec,
    IncompatibleInputError,
    KappaRangeError,
    ShapingFunction,
    TunableTermPolicy,
    check_compatibility,
    disturbed_residual,
    evaluate_controller,
    gamma_sontag,
    safety_margin_at,
)
from cbfctrl.formulas import check_kappa_range, lambda_min_norm
from oracles import probe_derivative_jump

S1 = ShapingFunction.linear(1.0)
S02 = ShapingFunction.linear(0.2)


# --- safety margin -------------------------------------------------------------

def test_margin_zero_c():
    assert safety_margin_at(AffineConstraint(0.0, [1.0]), 0.8, S02) == pytest.approx(-1.0)


def test_margin_hand_value():
    # c = 3, ||d||^2 = 4, sigma = 1: Gamma = 5, kappa = 0.8: -1 + 3/(3-4) = -4
    assert safety_margin_at(AffineConstraint(3.0, [2.0]), 0.8, S1) == pytest.approx(-4.0)


def test_margin_asymptote_minus_half():
    m = safety_margin_at(AffineConstraint(-1e6, [1.0]), 1.0, S02)
    assert abs(m + 0.5) <= 1e-3


def test_margin_degenerate_denominator():
    # d = 0, c > 0, kappa = 1: c - kappa*|c| = 0
    with pytest.raises(DegenerateMarginError):
        safety_margin_at(AffineConstraint(1.0, [0.0]), 1.0, S02)


def test_margin_below_minus_half_for_sontag_term():
    rng = np.random.default_rng(50)
    for _ in range(2000):
        c = float(rng.normal(scale=3.0))
        d = rng.normal(size=int(rng.integers(1, 4))) * rng.uniform(0.1, 2.0)
        if float(d @ d) <= 1e-9:
            continue
        assert safety_margin_at(AffineConstraint(c, d), 1.0, S02) < -0.5


def test_margin_nonpositive_and_monotone_in_kappa():
    # dM/dkappa = c*Gamma/(c - kappa*Gamma)^2 carries the sign of c: the
    # margin estimate moves down with kappa exactly on the c < 0 states
    # that dominate the supremum, which is what makes larger kappa more
    # robust (Sontag's term reaches -1/2 there, the min-norm limit 0).
    rng = np.random.default_rng(51)
    for _ in range(500):
        c = float(rng.normal(scale=2.0))
        d = rng.normal(size=2)
        if float(d @ d) <= 1e-6:
            continue
        con = AffineConstraint(c, d)
        gamma = gamma_sontag(con, S02)
        lo = max(c / gamma, 0.0)
        if lo + 1e-3 >= 1.0:
            continue  # smooth range too thin to grid
        kappas = np.linspace(lo + 1e-3, 1.0, 6)
        margins = [safety_margin_at(con, float(k), S02) for k in kappas]
        assert all(m <= 1e-12 for m in margins)
        diffs = [b - a for a, b in zip(margins, margins[1:])]
        if c > 0:
            assert all(step >= -1e-12 for step in diffs)
        else:
            assert all(step <= 1e-12 for step in diffs)


# --- compatibility with a norm bound -------------------------------------------

def sphere_max_oracle(c, d, gamma, n_samples=2000, rng=None):
    """max over sampled ||u|| = gamma of c + d.u (m = 1 uses the exact endpoints)."""
    d = np.asarray(d, dtype=float)
    m = d.size
    if m == 1:
        return c + gamma * abs(d[0])
    rng = rng or np.random.default_rng(0)
    dirs = rng.standard_normal((n_samples, m))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return c + gamma * float(np.max(dirs @ d))


def test_compatibility_hand_values():
    assert check_compatibility(AffineConstraint(-2.0, [1.0]), 2.3).compatible
    res = check_compatibility(AffineConstraint(-3.0, [1.0]), 2.3)
    assert not res.compatible
    assert res.deficit == pytest.approx(0.7)
    assert check_compatibility(AffineConstraint(0.1, [0.0]), 5.0).compatible
    for gamma in (0.0, -1.0, math.nan):
        with pytest.raises(ConfigurationError, match="gamma must be positive"):
            check_compatibility(AffineConstraint(0.1, [1.0]), gamma)


def test_compatibility_sign_agrees_with_sphere_oracle():
    rng = np.random.default_rng(52)
    for _ in range(1000):
        m = int(rng.integers(1, 4))
        d = rng.normal(size=m)
        c = float(rng.normal(scale=2.0))
        gamma = float(rng.uniform(0.2, 3.0))
        con = AffineConstraint(c, d)
        slack = gamma * con.d_norm + c
        if abs(slack) < 0.05 * (gamma * con.d_norm + abs(c) + 0.1):
            continue  # sampled oracle cannot resolve near-ties
        oracle_max = sphere_max_oracle(c, d, gamma, rng=rng)
        assert check_compatibility(con, gamma).compatible == (oracle_max >= 0.0)


def bi_upper(con, gamma, shaping):
    """Right end of the bounded-input kappa range at a compatible con: the
    bound that check_kappa_range names where it rejects kappa = inf."""
    assert check_compatibility(con, gamma)
    with pytest.raises(KappaRangeError, match="upper bound") as info:
        check_kappa_range(math.inf, con.c, con.d_norm_sq, gamma_sontag(con, shaping), True, gamma)
    return float(str(info.value).rsplit("<= ", 1)[1])


def test_kappa_bi_upper_values():
    # (c = -2, ||d|| = 1, gamma = 2.3, sigma = 0.2): 0.3 / sqrt(4.2)
    upper = bi_upper(AffineConstraint(-2.0, [1.0]), 2.3, S02)
    assert upper == pytest.approx(0.3 / math.sqrt(4.2), rel=1e-12)
    assert upper == pytest.approx(0.14638501094227998, rel=1e-10)
    assert bi_upper(AffineConstraint(0.0, [1.0]), 1.0, S1) == pytest.approx(1.0)
    # compatibility boundary: range collapses to the empty set
    assert bi_upper(AffineConstraint(-2.3, [1.0]), 2.3, S02) == pytest.approx(0.0)
    with pytest.raises(IncompatibleInputError) as info:
        evaluate_controller(ControllerSpec.bounded_input(S02, 2.3), AffineConstraint(-3.0, [1.0]))
    assert info.value.deficit == pytest.approx(0.7)


# --- derivative-jump probe ------------------------------------------------------

def test_probe_min_norm_jump_is_one():
    jump = probe_derivative_jump(lambda_min_norm, d_fixed=1.0, step=1e-5)
    assert jump == pytest.approx(1.0, abs=1e-3)


def test_probe_smooth_multipliers_have_no_jump():
    for spec in (ControllerSpec.sontag(S02), ControllerSpec.tunable(S02, TunableTermPolicy.eta_constant(0.5))):
        lam = lambda c, d2: evaluate_controller(spec, AffineConstraint(c, [math.sqrt(d2)])).lam
        assert probe_derivative_jump(lam, d_fixed=1.0, step=1e-5) <= 1e-4


# --- disturbance residuals ------------------------------------------------------

def test_disturbed_residual_zero_disturbance_equals_tightening():
    spec = ControllerSpec.tunable(S02, TunableTermPolicy.eta_constant(0.7))
    con = AffineConstraint(-1.0, [2.0, 0.5])
    expected = evaluate_controller(spec, con).kappa * gamma_sontag(con, S02)
    assert disturbed_residual(spec, con, None, None) == pytest.approx(expected, abs=1e-12)


def test_disturbed_residual_sontag_vs_min_norm():
    # w chosen so d.w = -0.5 Gamma: sontag-level residual stays positive,
    # the min-norm one goes negative by the same amount
    con = AffineConstraint(-1.0, [1.0, 0.0])
    gamma = gamma_sontag(con, S1)
    w = np.array([-0.5 * gamma, 0.0])
    dist = DisturbanceSpec.constant(w)
    tun = ControllerSpec.tunable(S1, TunableTermPolicy.eta_constant(1.0))
    qp = ControllerSpec.qp()
    r_tun = disturbed_residual(tun, con, None, dist)
    r_qp = disturbed_residual(qp, con, None, dist)
    assert r_tun == pytest.approx(0.5 * gamma, rel=1e-12)
    assert r_qp == pytest.approx(-0.5 * gamma, rel=1e-12)
    assert r_tun > 0.0 > r_qp


def test_disturbed_residual_orthogonal_w_unchanged():
    con = AffineConstraint(-1.0, [1.0, 0.0])
    spec = ControllerSpec.tunable(S02, TunableTermPolicy.eta_constant(0.8))
    base = disturbed_residual(spec, con, None, None)
    dist = DisturbanceSpec.constant([0.0, 7.3])
    assert disturbed_residual(spec, con, None, dist) == pytest.approx(base, rel=1e-12)


def test_disturbed_residual_monotone_in_kappa():
    con = AffineConstraint(-0.5, [1.0, 1.0])
    dist = DisturbanceSpec.constant([0.1, -0.3])
    vals = []
    for eta in [0.5, 0.6, 0.7, 0.8, 0.9, 1.0]:
        spec = ControllerSpec.tunable(S02, TunableTermPolicy.eta_constant(eta))
        vals.append(disturbed_residual(spec, con, None, dist))
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_bounded_random_disturbance_rejects_a_negative_magnitude():
    with pytest.raises(ConfigurationError, match="magnitude must be nonnegative, got -0.5"):
        DisturbanceSpec.bounded_random(-0.5, seed=1)
    np.testing.assert_array_equal(DisturbanceSpec.bounded_random(0, seed=1).at(0.3, 2), [0.0, 0.0])


def test_sinusoidal_disturbance():
    dist = DisturbanceSpec.sinusoidal([2.0, 0.0], freq=3.0)
    np.testing.assert_allclose(dist.at(0.0, 2), [0.0, 0.0])
    np.testing.assert_allclose(dist.at(0.5, 2), [2.0 * math.sin(1.5), 0.0])


def test_bounded_random_disturbance_reproducible_and_bounded():
    d1 = DisturbanceSpec.bounded_random(0.3, seed=42)
    d2 = DisturbanceSpec.bounded_random(0.3, seed=42)
    d3 = DisturbanceSpec.bounded_random(0.3, seed=43)
    times = [0.0, 0.1, 0.2, 1.7]
    for t in times:
        np.testing.assert_array_equal(d1.at(t, 3), d2.at(t, 3))
        assert np.linalg.norm(d1.at(t, 3)) <= 0.3 + 1e-15
    assert any(
        not np.array_equal(d1.at(t, 3), d3.at(t, 3)) for t in times
    )
