import math
from dataclasses import replace

import numpy as np
import pytest

from cbfctrl import (
    BarrierFunction,
    BlowUpError,
    CBFControlError,
    ConfigurationError,
    ControlAffineSystem,
    ControllerSpec,
    DisturbanceSpec,
    ExtendedClassK,
    NumericsError,
    PlantEvaluation,
    ShapingFunction,
    SimConfig,
    TunableTermPolicy,
    evaluate_constraint,
    evaluate_controller,
    run,
    step,
)
from cbfctrl.formulas import controller_spec
from cbfctrl.manipulator import run_formulas, velocity_level_scenario
from cbfctrl.simulate import _run_floats, stacks
from cbfctrl.systems import linear_barrier, single_integrator

S02 = ShapingFunction.linear(0.2)


def test_step_zero_dynamics():
    system = single_integrator(2)
    x = np.array([0.3, -1.2])
    out = step(system, lambda y: np.zeros(2), x, dt=0.1)
    np.testing.assert_array_equal(out, x)


def test_step_exponential_decay():
    # xdot = -x via u = -x on the single integrator; exact solution e^{-dt}
    system = single_integrator(1)
    x = step(system, lambda y: -y, np.array([1.0]), dt=0.1, integrator="rk4")
    assert abs(x[0] - math.exp(-0.1)) <= 1e-7


def test_step_harmonic_oscillator_period():
    # x1dot = x2, x2dot = -x1: closed orbit of period 2 pi
    system = ControlAffineSystem(
        state_dim=2,
        input_dim=1,
        drift=lambda x: np.array([x[1], -x[0]]),
        input_map=lambda x: np.array([[0.0], [0.0]]),
    )
    n = 6283
    dt = 2.0 * math.pi / n
    x = np.array([1.0, 0.0])
    for _ in range(n):
        x = step(system, lambda y: np.zeros(1), x, dt)
    assert np.linalg.norm(x - [1.0, 0.0]) <= 1e-8


def test_step_euler_first_order():
    system = single_integrator(1)
    x_e = step(system, lambda y: -y, np.array([1.0]), dt=0.1, integrator="euler")
    assert x_e[0] == pytest.approx(0.9)
    assert abs(x_e[0] - math.exp(-0.1)) > 1e-4  # visibly cruder than rk4


def euler_reference(u_map, x0, dt, n):
    x = np.array(x0, dtype=float)
    for _ in range(n):
        x = x + dt * u_map(x)
    return x


def test_run_single_integrator_stays_safe():
    # min-norm filter against a constant push toward the boundary x = 1
    system = single_integrator(1)
    barrier = linear_barrier([1.0], 1.0, beta=1.5)
    push = np.array([2.0])
    spec = ControllerSpec.safety_filter(ControllerSpec.qp(), lambda x: push)
    cfg = SimConfig(dt=1e-3, horizon=2.0)
    traj = run(system, spec, barrier, np.array([0.0]), cfg)
    assert traj.ok
    assert traj.min_h() >= -1e-6
    assert np.max(traj.states) <= 1.0 + 1e-9

    # forward-invariance oracle: fine-grid euler of the same closed loop
    def closed_loop(x):
        h = 1.0 - x[0]
        c_bar = 1.5 * h - push[0]  # d = -1
        lam = max(0.0, -c_bar)
        return push + lam * np.array([-1.0])

    x_ref = euler_reference(closed_loop, [0.0], 1e-5, 200000)
    assert 1.0 - x_ref[0] >= -1e-6
    assert abs(x_ref[0] - traj.states[-1, 0]) <= 1e-3


def test_run_plain_qp_without_push_is_stationary():
    system = single_integrator(1)
    barrier = linear_barrier([1.0], 1.0, beta=1.5)
    traj = run(system, ControllerSpec.qp(), barrier, np.array([0.0]), SimConfig(dt=1e-3, horizon=1.0))
    np.testing.assert_allclose(traj.states, 0.0, atol=1e-15)
    np.testing.assert_allclose(traj.h_values, 1.0, atol=1e-15)


def test_run_sontag_level_keeps_larger_h_than_min_norm():
    system = single_integrator(1)
    barrier = linear_barrier([1.0], 1.0, beta=1.5)
    push = lambda x: np.array([2.0])
    cfg = SimConfig(dt=1e-3, horizon=3.0)
    qp = run(
        system,
        ControllerSpec.safety_filter(ControllerSpec.qp(), push),
        barrier,
        np.array([0.0]),
        cfg,
    )
    tun = run(
        system,
        ControllerSpec.safety_filter(
            ControllerSpec.tunable(S02, TunableTermPolicy.eta_constant(1.0)), push
        ),
        barrier,
        np.array([0.0]),
        cfg,
    )
    assert np.all(tun.h_values >= qp.h_values - 1e-6)


def test_run_zero_horizon():
    system = single_integrator(1)
    barrier = linear_barrier([1.0], 1.0)
    traj = run(system, ControllerSpec.qp(), barrier, np.array([0.2]), SimConfig(dt=1e-3, horizon=0.0))
    assert len(traj) == 1
    assert traj.times[0] == 0.0


def test_run_record_every_spacing_and_length():
    system = single_integrator(1)
    barrier = linear_barrier([1.0], 1.0)
    cfg = SimConfig(dt=1e-3, horizon=1.0, record_every=7)
    traj = run(system, ControllerSpec.qp(), barrier, np.array([0.0]), cfg)
    assert len(traj) == 1000 // 7 + 1
    np.testing.assert_allclose(np.diff(traj.times), 7e-3, rtol=1e-12)


def test_run_rejects_unsafe_start():
    system = single_integrator(1)
    barrier = linear_barrier([1.0], 1.0)
    with pytest.raises(ConfigurationError):
        run(system, ControllerSpec.qp(), barrier, np.array([2.0]), SimConfig(horizon=1.0))
    cfg = SimConfig(dt=1e-3, horizon=0.01, allow_unsafe_start=True)
    traj = run(system, ControllerSpec.qp(), barrier, np.array([2.0]), cfg)
    assert len(traj) == 11


def test_run_truncates_on_infeasibility():
    # x2 drifts up with no control authority over it; with h = 1 - x2 the
    # constraint offset c = 1.5 (1 - x2) - 1 crosses zero at x2 = 1/3
    system = ControlAffineSystem(
        state_dim=2,
        input_dim=1,
        drift=lambda x: np.array([0.0, 1.0]),
        input_map=lambda x: np.array([[1.0], [0.0]]),
    )
    barrier = linear_barrier([0.0, 1.0], 1.0, beta=1.5)
    cfg = SimConfig(dt=1e-3, horizon=2.0)
    traj = run(system, ControllerSpec.qp(), barrier, np.array([0.0, 0.0]), cfg)
    assert not traj.ok
    assert "Infeasible" in traj.failure
    assert traj.failure_step is not None
    assert traj.failure_step * cfg.dt == pytest.approx(1.0 / 3.0, abs=2e-3)
    assert len(traj) == traj.failure_step + 1


def test_run_failing_at_step_zero_records_no_row_and_min_h_is_nan():
    spec = ControllerSpec.safety_filter(ControllerSpec.qp(), lambda x: np.array([math.nan]))
    traj = run(single_integrator(1), spec, linear_barrier([1.0], 1.0), np.array([0.0]), SimConfig(horizon=0.01))
    assert (len(traj), traj.failure_step) == (0, 0)
    assert traj.failure.startswith("NumericsError at step 0")
    assert math.isnan(traj.min_h())


def test_run_truncates_on_blow_up():
    # xdot = x^2 from x = 2 escapes at t = 0.5
    system = ControlAffineSystem(
        state_dim=1,
        input_dim=1,
        drift=lambda x: x * x,
        input_map=lambda x: np.zeros((1, 1)),
    )
    barrier = linear_barrier([-1.0], 1.0)  # h = 1 + x, stays safe
    cfg = SimConfig(dt=1e-3, horizon=1.0)
    with np.errstate(all="ignore"):
        traj = run(system, ControllerSpec.qp(), barrier, np.array([2.0]), cfg)
    assert not traj.ok
    # the escape surfaces either as a non-finite step or as a non-finite
    # constraint evaluation just before it; both carry the step index
    assert "blow-up" in traj.failure or "not finite" in traj.failure
    assert 0.4 <= traj.failure_step * cfg.dt <= 0.6


def test_run_determinism_with_random_disturbance():
    system = single_integrator(2)
    barrier = linear_barrier([1.0, 0.0], 1.0, beta=1.5)
    spec = ControllerSpec.safety_filter(
        ControllerSpec.tunable(S02, TunableTermPolicy.eta_constant(0.7)),
        lambda x: np.array([0.5, -0.2]),
    )
    cfg = SimConfig(dt=1e-3, horizon=1.0)
    dist = DisturbanceSpec.bounded_random(0.2, seed=11)
    t1 = run(system, spec, barrier, np.zeros(2), cfg, dist)
    t2 = run(system, spec, barrier, np.zeros(2), cfg, dist)
    np.testing.assert_array_equal(t1.states, t2.states)
    np.testing.assert_array_equal(t1.inputs, t2.inputs)
    np.testing.assert_array_equal(t1.residuals, t2.residuals)


def test_run_zoh_differs_from_continuous():
    system = single_integrator(1)
    barrier = linear_barrier([1.0], 1.0, beta=1.5)
    spec = ControllerSpec.safety_filter(ControllerSpec.qp(), lambda x: np.array([2.0]))
    cont = run(system, spec, barrier, np.array([0.0]), SimConfig(dt=1e-2, horizon=1.0))
    zoh = run(system, spec, barrier, np.array([0.0]), SimConfig(dt=1e-2, horizon=1.0, zoh=True))
    assert cont.ok and zoh.ok
    assert np.max(np.abs(cont.states - zoh.states)) > 1e-7


def test_run_records_margins_and_kappas():
    system = single_integrator(1)
    barrier = linear_barrier([1.0], 1.0, beta=1.5)
    cfg = SimConfig(dt=1e-2, horizon=0.1)
    spec = ControllerSpec.tunable(S02, TunableTermPolicy.eta_constant(0.8))
    traj = run(system, spec, barrier, np.array([0.0]), cfg)
    assert np.all(np.isfinite(traj.kappas))
    assert np.all(traj.margins <= 0.0)
    qp_traj = run(system, ControllerSpec.qp(), barrier, np.array([0.0]), cfg)
    assert np.all(np.isnan(qp_traj.kappas))
    assert np.all(np.isnan(qp_traj.margins))


def test_sim_config_validation():
    with pytest.raises(ConfigurationError):
        SimConfig(dt=0.0)
    with pytest.raises(ConfigurationError):
        SimConfig(dt=2.0, horizon=1.0)
    with pytest.raises(ConfigurationError):
        SimConfig(record_every=0)
    with pytest.raises(ConfigurationError):
        SimConfig(integrator="rk5")
    for bad in (
        {"dt": "abc"}, {"dt": True}, {"horizon": None}, {"horizon": math.inf}, {"horizon": math.nan},
        {"record_every": 1.5}, {"record_every": True}, {"integrator": 4},
        {"zoh": "yes"}, {"zoh": 1}, {"allow_unsafe_start": None},
    ):
        with pytest.raises(ConfigurationError, match=f"^{next(iter(bad))} must be "):
            SimConfig(**bad)
    SimConfig(dt=np.float64(1e-3), horizon=1, record_every=np.int64(2))  # numpy and int values are numbers
    for bad in ({"horizon": 1e308}, {"dt": 1e-320}):  # the step count overflows to inf
        with pytest.raises(ConfigurationError, match="^horizon / dt must be a finite step count"):
            SimConfig(**bad)
    assert (SimConfig(dt=1e-3, horizon=0.1).n_steps, SimConfig(horizon=0.0).n_steps) == (100, 0)
    with pytest.raises(ConfigurationError):
        step(single_integrator(1), lambda y: np.zeros(1), np.zeros(1), 0.1, "rk5")


@pytest.mark.parametrize("value", [[0.3], [0.3, 0.3, 0.3], [[0.3, 0.3]]])
def test_run_rejects_a_disturbance_of_the_wrong_shape(value):
    # the velocity level has 2 inputs: a 1-vector would broadcast, a 3-vector
    # would fail inside numpy, so both are config errors before the first step
    sc = velocity_level_scenario(eta=0.7, sigma=0.2)
    dist = DisturbanceSpec.constant(value)
    cfg = SimConfig(dt=1e-3, horizon=0.01)
    with pytest.raises(ConfigurationError, match=r"^disturbance has shape .*, expected \(2,\)$"):
        run(sc.system, sc.spec, sc.barrier, sc.x0, cfg, dist)
    with pytest.raises(ConfigurationError, match=r"^disturbance has shape .*, expected \(2,\)$"):
        run_formulas(sc, [controller_spec("qp"), controller_spec("sontag", sigma=0.2)], cfg, dist)
    ok = DisturbanceSpec.constant([0.3, 0.3])
    assert run(sc.system, sc.spec, sc.barrier, sc.x0, cfg, ok).ok


# --- one evaluation per state -------------------------------------------------

RECORDED = (
    "times", "states", "inputs", "h_values", "residuals", "kappas", "margins",
    "correction_norms",
)


def reference_run(system, spec, barrier, x0, cfg, disturbance=None):
    """The closed loop written without reuse: RK4 stage 1 evaluates the
    controller again at the state whose evaluation was just recorded."""
    n_steps = int(round(cfg.horizon / cfg.dt)) if cfg.horizon > 0.0 else 0
    rows = {name: [] for name in RECORDED}
    failure = failure_step = None

    def evaluate(y):
        con = evaluate_constraint(system, barrier, y)
        return con, evaluate_controller(spec, con, y)

    def margin(out):
        if out.kappa is None or not math.isfinite(out.gamma_eff):
            return math.nan
        den = out.c_eff - out.kappa * out.gamma_eff
        return math.nan if abs(den) <= 1e-12 else -1.0 + out.c_eff / den

    x = np.array(x0, dtype=float)
    k = 0
    try:
        while True:
            w = disturbance.at(k * cfg.dt, system.input_dim) if disturbance is not None else None
            con, out = evaluate(x)
            if k % cfg.record_every == 0:
                u_applied = out.u if w is None else out.u + w
                rows["times"].append(k * cfg.dt)
                rows["states"].append(x.copy())
                rows["inputs"].append(np.array(out.u, dtype=float))
                rows["h_values"].append(float(barrier.value(x)))
                rows["residuals"].append(con.c + float(con.d @ u_applied))
                rows["kappas"].append(out.kappa if out.kappa is not None else math.nan)
                rows["margins"].append(margin(out))
                rows["correction_norms"].append(out.lam * con.d_norm)
            if k >= n_steps:
                break
            if cfg.zoh:
                u_held = out.u if w is None else out.u + w
                controller = lambda y, u=u_held: u
            elif w is None:
                controller = lambda y: evaluate(y)[1].u
            else:
                controller = lambda y, w=w: evaluate(y)[1].u + w
            try:
                x = step(system, controller, x, cfg.dt, cfg.integrator)
            except NumericsError as exc:
                raise BlowUpError(str(exc), step_index=k) from exc
            k += 1
    except BlowUpError as exc:
        failure = f"blow-up at step {exc.step_index}: {exc}"
        failure_step = exc.step_index
    except CBFControlError as exc:
        failure = f"{type(exc).__name__} at step {k}: {exc}"
        failure_step = k
    return {name: np.asarray(v) for name, v in rows.items()}, failure, failure_step


def assert_matches_reference(system, spec, barrier, x0, cfg, disturbance=None):
    traj = run(system, spec, barrier, x0, cfg, disturbance)
    rows, failure, failure_step = reference_run(system, spec, barrier, x0, cfg, disturbance)
    for name in RECORDED:
        np.testing.assert_array_equal(getattr(traj, name), rows[name], err_msg=name)
    assert traj.failure == failure
    assert traj.failure_step == failure_step
    return traj


@pytest.mark.parametrize("record_every", [1, 3])
@pytest.mark.parametrize("disturbed", [False, True])
@pytest.mark.parametrize("zoh", [False, True])
def test_run_matches_reference_loop(zoh, disturbed, record_every):
    sc = velocity_level_scenario(eta=0.7, sigma=0.2)
    cfg = SimConfig(dt=1e-3, horizon=0.3, zoh=zoh, record_every=record_every)
    dist = DisturbanceSpec.bounded_random(0.5, seed=5) if disturbed else None
    assert assert_matches_reference(sc.system, sc.spec, sc.barrier, sc.x0, cfg, dist).ok


def test_run_matches_reference_loop_euler_and_failures():
    sc = velocity_level_scenario(eta=0.7, sigma=0.2)
    cfg = SimConfig(dt=1e-3, horizon=0.3, integrator="euler")
    assert assert_matches_reference(sc.system, sc.spec, sc.barrier, sc.x0, cfg).ok
    # a range violation mid-run
    bi = velocity_level_scenario(eta=0.7, sigma=0.2, kind="bounded_input", gamma=1.0)
    cfg = SimConfig(dt=1e-3, horizon=0.2)
    assert assert_matches_reference(bi.system, bi.spec, bi.barrier, bi.x0, cfg).failure_step == 86
    # a blow-up: xdot = x^2 from x = 2 escapes at t = 0.5
    system = ControlAffineSystem(
        state_dim=1,
        input_dim=1,
        drift=lambda x: x * x,
        input_map=lambda x: np.zeros((1, 1)),
    )
    with np.errstate(all="ignore"):
        traj = assert_matches_reference(
            system, ControllerSpec.qp(), linear_barrier([-1.0], 1.0), np.array([2.0]),
            SimConfig(dt=1e-3, horizon=1.0),
        )
    assert not traj.ok


@pytest.mark.parametrize(
    "integrator, zoh, per_step", [("rk4", False, 4), ("euler", False, 1), ("rk4", True, 1)]
)
def test_run_evaluates_each_state_once(integrator, zoh, per_step):
    calls = []

    def nominal(x):
        calls.append(x.copy())
        return np.array([2.0])

    spec = ControllerSpec.safety_filter(ControllerSpec.qp(), nominal)
    cfg = SimConfig(dt=1e-2, horizon=0.5, integrator=integrator, zoh=zoh)
    traj = run(single_integrator(1), spec, linear_barrier([1.0], 1.0), np.array([0.0]), cfg)
    assert traj.ok and len(traj) == 51
    # per step, plus the final recorded state
    assert len(calls) == per_step * 50 + 1


# --- one spec per run ------------------------------------------------------------

VELOCITY = velocity_level_scenario(sigma=0.2)
FAILING_GAMMAS = (1.0, 1.5, 2.0)  # the benchmark's bounded-input runs fail at 86, 272, 563


def test_run_takes_one_spec():
    with pytest.raises(ConfigurationError, match="^run takes one ControllerSpec, got list$"):
        run(VELOCITY.system, [VELOCITY.spec], VELOCITY.barrier, VELOCITY.x0, SimConfig(dt=1e-3, horizon=0.01))


def velocity_specs(formulas):
    return [ControllerSpec.safety_filter(f, VELOCITY.spec.nominal) for f in formulas]


def velocity_runs(formulas, cfg, disturbance=None):
    """The run of the velocity scenario's filter around each formula."""
    return [run(VELOCITY.system, s, VELOCITY.barrier, VELOCITY.x0, cfg, disturbance) for s in velocity_specs(formulas)]


KINDS = [
    controller_spec("qp"),
    controller_spec("sontag", sigma=0.2),
    controller_spec("tunable", sigma=0.2, eta=0.5),
    controller_spec("tunable", sigma=0.2, eta=0.7),
    controller_spec("tunable", sigma=0.5, eta=0.6, relu=True),
] + [controller_spec("bounded_input", sigma=0.2, eta=0.7, gamma=g) for g in FAILING_GAMMAS]


def test_stacks_admits_vectorisable_specs_on_the_declared_plant():
    # the gate of the check and margin grids' stacked evaluation
    assert all(stacks(VELOCITY.system, VELOCITY.barrier, s) for s in velocity_specs(KINDS))
    assert stacks(VELOCITY.system, VELOCITY.barrier, ControllerSpec.qp())  # a bare spec runs around no nominal
    others = [
        ControllerSpec.tunable(ShapingFunction.custom(lambda y: 0.2 * y), TunableTermPolicy.eta_constant(0.7)),
        ControllerSpec.tunable(S02, TunableTermPolicy.kappa_direct(lambda x: 0.8)),
        ControllerSpec.bounded_input(S02, 1.0),  # the eta_function default policy
    ]
    assert not any(stacks(VELOCITY.system, VELOCITY.barrier, s) for s in velocity_specs(others))
    around_another = ControllerSpec.safety_filter(controller_spec("qp"), lambda x: VELOCITY.spec.nominal(x))
    assert not stacks(VELOCITY.system, VELOCITY.barrier, around_another)
    assert not stacks(VELOCITY.system, replace(VELOCITY.barrier), VELOCITY.spec)  # a copy breaks the identity
    assert not stacks(single_integrator(1), linear_barrier([1.0], 1.0), ControllerSpec.qp())


LOOP_CASES = {
    # (system, barrier, spec, x0, runs the float loop)
    "declared": (VELOCITY.system, VELOCITY.barrier, velocity_specs(KINDS[3:4])[0], VELOCITY.x0, True),
    "kappa_direct": (
        VELOCITY.system, VELOCITY.barrier,
        velocity_specs([ControllerSpec.tunable(S02, TunableTermPolicy.kappa_direct(lambda x: 0.8))])[0],
        VELOCITY.x0, False,
    ),
    "another_nominal": (
        VELOCITY.system, VELOCITY.barrier,
        ControllerSpec.safety_filter(controller_spec("qp"), lambda x: VELOCITY.spec.nominal(x)),
        VELOCITY.x0, False,
    ),
    "copied_barrier": (VELOCITY.system, replace(VELOCITY.barrier), VELOCITY.spec, VELOCITY.x0, False),
    "undeclared_plant": (
        single_integrator(1), linear_barrier([1.0], 1.0, beta=1.5),
        ControllerSpec.safety_filter(ControllerSpec.sontag(S02), lambda x: np.array([2.0])),
        np.array([0.0]), False,
    ),
}


@pytest.mark.parametrize("case", list(LOOP_CASES))
def test_run_takes_the_float_loop_only_where_the_plant_declares_it(monkeypatch, case):
    # the float loop needs the plant's evaluation declared for this barrier
    # and nominal, and a policy other than kappa_direct; either loop is the
    # reference loop in every recorded array
    system, barrier, spec, x0, floats = LOOP_CASES[case]
    calls = []

    def counted(*args):
        calls.append(args)
        return _run_floats(*args)

    monkeypatch.setattr("cbfctrl.simulate._run_floats", counted)
    traj = assert_matches_reference(system, spec, barrier, x0, SimConfig(dt=1e-3, horizon=0.2))
    assert traj.ok and len(calls) == int(floats)


@pytest.mark.parametrize(
    "sim",
    [{}, {"zoh": True}, {"integrator": "euler"}, {"record_every": 3}],
    ids=["rk4", "zoh", "euler", "record_every"],
)
@pytest.mark.parametrize("disturbed", [False, True])
def test_bounded_input_runs_fail_where_the_others_do_not(sim, disturbed):
    # every bounded-input run fails within 0.6 s, the first one within 0.3 s
    cfg = SimConfig(dt=1e-3, horizon=0.3 if sim else 0.6, **sim)
    dist = DisturbanceSpec.bounded_random(0.5, seed=5) if disturbed else None
    trajs = velocity_runs(KINDS, cfg, dist)
    steps = [t.failure_step for t in trajs]
    assert steps[:5] == [None] * 5 and steps[5] is not None
    if not sim:
        assert all(s is not None for s in steps[5:])
    if not sim and not disturbed:
        assert steps[5:] == [86, 272, 563]
        # continuous feedback fails inside the step, so row k is kept
        assert [len(t) for t in trajs[5:]] == [87, 273, 564]
    if sim.get("zoh"):
        # held input: the failure is the evaluation at x_k, with no row k
        assert len(trajs[5]) == steps[5]


def test_runs_failing_at_step_zero_and_run_formulas_equivalence():
    formulas = [
        controller_spec("tunable", sigma=0.2, eta=0.3),  # KappaRangeError at x0
        controller_spec("bounded_input", sigma=0.2, eta=0.7, gamma=0.1),  # incompatible at x0
        controller_spec("tunable", sigma=0.2, eta=0.9),
    ]
    cfg = SimConfig(dt=1e-3, horizon=0.05)
    trajs = run_formulas(VELOCITY, formulas, cfg)
    assert [t.failure_step for t in trajs] == [0, 0, None]
    assert trajs[0].states.shape == (0, 3) and trajs[1].inputs.shape == (0, 2)
    assert "KappaRangeError at step 0" in trajs[0].failure
    assert "IncompatibleInputError at step 0" in trajs[1].failure
    # run_formulas runs the scenario's filter around each formula
    for traj, f in zip(trajs, formulas):
        alone = velocity_level_scenario(
            sigma=0.2, kind=f.kind, eta=f.policy.eta, gamma=f.gamma, relu=f.relu
        )
        ref = run(alone.system, alone.spec, alone.barrier, alone.x0, cfg)
        np.testing.assert_array_equal(traj.states, ref.states)
        assert traj.failure == ref.failure


def declaring(system, barrier, nominal=None):
    """system declaring the evaluation of barrier and nominal."""

    def floats(y):
        x = np.array(y)
        f, g, grad = (np.asarray(a(x), dtype=float).tolist() for a in (system.drift, system.input_map, barrier.gradient))
        kd = None if nominal is None else np.asarray(nominal(x), dtype=float).tolist()
        return f, g, float(barrier.value(x)), grad, kd

    return replace(system, evaluation=PlantEvaluation(floats, barrier, nominal))


def declared_line(drift, beta=1.5, slope=1.0, offset=1.0, nominal=None):
    """xdot = drift(x) + u on the line, h = offset + slope x, with its
    evaluation declared for that barrier and nominal."""
    system = ControlAffineSystem(state_dim=1, input_dim=1, drift=drift, input_map=lambda x: np.ones((1, 1)))
    barrier = BarrierFunction(
        value=lambda x: offset + slope * x[..., 0],
        gradient=lambda x: np.full(1, slope),
        classk=ExtendedClassK.linear(beta),
    )
    return declaring(system, barrier, nominal), barrier


def test_blow_ups_on_declared_plants():
    specs = [ControllerSpec.qp(), ControllerSpec.sontag(S02), ControllerSpec.tunable(S02, TunableTermPolicy.eta_constant(0.6))]
    # xdot = x^2 + u, pushed outward (h = 1 + x grows): escapes near t = 0.5,
    # as a non-finite constraint at x_k (qp) or inside the step (the others)
    system, barrier = declared_line(lambda x: x * x)
    cfg = SimConfig(dt=1e-3, horizon=1.0)
    with np.errstate(all="ignore"):
        trajs = [run(system, spec, barrier, np.array([2.0]), cfg) for spec in specs]
    assert trajs[0].failure.startswith("NumericsError at step 502: constraint evaluation not finite")
    assert [t.failure_step for t in trajs[1:]] == [501, 501]
    assert all(t.failure.startswith("blow-up at step 501: ") for t in trajs[1:])
    # a finite field whose RK4 sum overflows: only the new state is non-finite
    huge = np.array([1e308, 0.0])
    system = ControlAffineSystem(
        state_dim=2, input_dim=1, drift=lambda x: huge, input_map=lambda x: np.array([[0.0], [1.0]])
    )
    barrier = BarrierFunction(
        value=lambda x: 1.0 - x[..., 1],
        gradient=lambda x: np.array([0.0, -1.0]),
        classk=ExtendedClassK.linear(1.5),
    )
    system = declaring(system, barrier)
    with np.errstate(all="ignore"):
        trajs = [run(system, spec, barrier, np.zeros(2), cfg) for spec in specs]
    assert all(t.failure.startswith("blow-up at step 0: state became non-finite") for t in trajs)
    assert all(len(t) == 1 for t in trajs)


def test_filter_whose_unshifted_constraint_is_infeasible_fails_at_step_zero():
    # h = 1e-7 x: ||d||^2 = 1e-14 <= EPS_D, c = -1.5e-9 <= 0 < c + d.k_d; the
    # filter raises on the unshifted c before it shifts by the nominal
    push = lambda x: np.ones_like(x)
    system, barrier = declared_line(lambda x: np.zeros_like(x), slope=1e-7, offset=0.0, nominal=push)
    specs = [ControllerSpec.safety_filter(f, push) for f in (ControllerSpec.sontag(S02), ControllerSpec.qp())]
    cfg = SimConfig(dt=1e-3, horizon=0.01, allow_unsafe_start=True)
    trajs = [run(system, spec, barrier, np.array([-0.01]), cfg) for spec in specs]
    assert all(t.failure.startswith("InfeasibleConstraintError at step 0") and len(t) == 0 for t in trajs)


def test_custom_shaping_equal_to_the_linear_one_gives_the_same_run():
    custom = ShapingFunction.custom(lambda y: 0.2 * y)
    formulas = [controller_spec("tunable", sigma=0.2, eta=0.7), ControllerSpec.tunable(custom, TunableTermPolicy.eta_constant(0.7))]
    linear, shaped = velocity_runs(formulas, SimConfig(dt=1e-3, horizon=0.3))
    np.testing.assert_array_equal(linear.states, shaped.states)


def test_run_at_exact_norm_bound_compatibility():
    # c = beta h = -1 and d = 1 at x0 = -2: gamma ||d|| + c = 0, and the eta
    # of lin_sontag_eta puts kappa at exactly 0, which the range admits
    system, barrier = declared_line(lambda x: np.zeros_like(x), beta=1.0)
    eta = 1.0 / (math.sqrt(1.2) + 1.0)
    spec = ControllerSpec.bounded_input(S02, 1.0, TunableTermPolicy.eta_constant(eta))
    cfg = SimConfig(dt=1e-3, horizon=0.01, allow_unsafe_start=True)
    traj = run(system, spec, barrier, np.array([-2.0]), cfg)
    assert traj.ok
    assert traj.kappas[0] == 0.0 and traj.inputs[0, 0] == 1.0
