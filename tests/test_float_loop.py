"""The float loop against the numpy loop it replaces on declared plants.

simulate.run takes a scalar run on a plant that declares its evaluation
(core.PlantEvaluation) through the float loop; a copy of the barrier breaks
the declaration's identity, so the same plant then runs on the numpy loop
over its separate maps, the reference.  On the velocity level every product
is exact, so both give the same run bit for bit; on the torque level they
differ by numpy's fused dot products (see manipulator), within TORQUE_TOL.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cbfctrl import CBFControlError, ControllerSpec, DisturbanceSpec, SimConfig, TunableTermPolicy, run
from cbfctrl.manipulator import Q2_LIMIT, torque_level_scenario, velocity_level_scenario
from test_simulate import S02, declared_line

RECORDED = ("times", "states", "inputs", "h_values", "residuals", "kappas", "margins", "correction_norms")
TORQUE_TOL = 1e-11  # relative to max(1, |entry|), on a torque run with a smooth k0


def both_loops(sc, cfg, disturbance=None, x0=None):
    """(float loop run, numpy loop run) of the scenario's spec from x0 (its own by default)."""
    x0 = sc.x0 if x0 is None else x0
    assert sc.system.evaluation.barrier is sc.barrier
    floats = run(sc.system, sc.spec, sc.barrier, x0, cfg, disturbance)
    numpy = run(sc.system, sc.spec, replace(sc.barrier), x0, cfg, disturbance)
    return floats, numpy


def velocity_specs():
    kinds = {
        "qp": {},
        "sontag": {},
        "tunable": {"relu": st.just(False)},
        "relu": {"relu": st.just(True)},
        "bounded_input": {"gamma": st.floats(0.5, 5.0)},
    }
    return st.sampled_from(sorted(kinds)).flatmap(
        lambda kind: st.fixed_dictionaries(
            {
                "kind": st.just("tunable" if kind == "relu" else kind),
                "eta": st.floats(0.3, 1.0),
                "sigma": st.floats(0.05, 2.0),
                **kinds[kind],
            }
        )
    )


disturbances = st.one_of(
    st.none(),
    st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=2).map(DisturbanceSpec.constant),
    st.builds(DisturbanceSpec.bounded_random, st.floats(0.0, 1.0), st.integers(0, 2**16)),
)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    velocity_specs(),
    st.floats(-1.0, 2.0),
    st.floats(Q2_LIMIT - 0.3, Q2_LIMIT),
    st.floats(0.0, 6.0),
    st.sampled_from(["rk4", "euler"]),
    st.booleans(),
    st.integers(1, 4),
    disturbances,
)
def test_velocity_float_loop_equals_the_numpy_loop(kw, q1, q2, clock, integrator, zoh, record_every, disturbance):
    sc = velocity_level_scenario(**kw)
    cfg = SimConfig(dt=1e-3, horizon=0.15, integrator=integrator, zoh=zoh, record_every=record_every)
    floats, numpy = both_loops(sc, cfg, disturbance, np.array([q1, q2, clock]))
    for name in RECORDED:
        a, b = getattr(floats, name), getattr(numpy, name)
        assert a.shape == b.shape and a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name
    assert (floats.failure, floats.failure_step) == (numpy.failure, numpy.failure_step)


def test_velocity_float_loop_keeps_the_bounded_input_failures():
    # the benchmark's failing members, each alone on the float loop
    for gamma, step in ((1.0, 86), (1.5, 272), (2.0, 563)):
        sc = velocity_level_scenario(kind="bounded_input", gamma=gamma, eta=0.7)
        floats, numpy = both_loops(sc, SimConfig(dt=1e-3, horizon=0.6))
        assert floats.failure_step == step and floats.failure == numpy.failure
        assert floats.failure.startswith(f"KappaRangeError at step {step}: ")
        assert floats.states.tobytes() == numpy.states.tobytes()


def assert_within(got, want, tol):
    for name in RECORDED:
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape, name
        assert (np.isnan(a) == np.isnan(b)).all(), name
        with np.errstate(invalid="ignore"):
            close = np.abs(a - b) <= tol * np.maximum(1.0, np.abs(b))
        assert (close | np.isnan(b)).all(), (name, np.nanmax(np.abs(a - b)))
    assert (got.failure, got.failure_step) == (want.failure, want.failure_step)


TORQUE_DISTURBANCES = {
    "none": None,
    "constant": DisturbanceSpec.constant([0.4, -0.3]),
    "bounded_random": DisturbanceSpec.bounded_random(0.5, seed=3),
}


@pytest.mark.parametrize("disturbance", list(TORQUE_DISTURBANCES))
@pytest.mark.parametrize("zoh", [False, True], ids=["continuous", "zoh"])
@pytest.mark.parametrize("kind", ["sontag", "tunable", "qp"])
def test_torque_float_loop_is_within_tolerance_of_the_numpy_loop(kind, zoh, disturbance):
    # With a smooth k0 every entry stays within TORQUE_TOL over the run.  The
    # min-norm k0 has a kink in its Jacobian, and a run with it is as
    # sensitive as a one-ULP change of x0 (README, "Known deviations"): the
    # rounding of the two loops parts it there, 16 to 26 steps in, so it is
    # compared over its first 10 steps.
    sc = torque_level_scenario(kind=kind, eta=0.7)
    horizon = 0.01 if kind == "qp" else 0.3
    floats, numpy = both_loops(sc, SimConfig(dt=1e-3, horizon=horizon, zoh=zoh), TORQUE_DISTURBANCES[disturbance])
    assert floats.ok and len(floats) == round(horizon / 1e-3) + 1
    assert_within(floats, numpy, TORQUE_TOL)


class StopsAt(DisturbanceSpec):
    """A constant disturbance that raises from t = 0.1 on."""

    def at(self, t, input_dim):
        if t >= 0.1:
            raise CBFControlError(f"no disturbance at t={t}")
        return super().at(t, input_dim)


def test_torque_float_loop_fails_as_the_numpy_loop():
    # on the manifold v = k0, where the min-norm k0 is active, d = 0 and c = 0:
    # infeasible at x0, with the state printed as the numpy loop prints it
    sc = torque_level_scenario(kind="qp")
    k1, k2, *_ = sc.velocity.k0.floats(1.0, 1.0, 0.0)
    floats, numpy = both_loops(sc, SimConfig(dt=1e-3, horizon=0.05), x0=np.array([1.0, 1.0, k1, k2, 0.0]))
    assert floats.failure.startswith("InfeasibleConstraintError at step 0: infeasible constraint: c=0.0 <= 0")
    assert floats.failure.endswith(f" at x={np.array([1.0, 1.0, k1, k2, 0.0])}")
    assert_within(floats, numpy, 0.0)
    # a disturbance that raises mid-run stops both at the same step, after the same rows
    sc = torque_level_scenario(kind="tunable", eta=0.7)
    floats, numpy = both_loops(sc, SimConfig(dt=1e-3, horizon=0.3), StopsAt.constant([0.4, -0.3]))
    assert floats.failure == "CBFControlError at step 100: no disturbance at t=0.1" and len(floats) == 100
    assert_within(floats, numpy, TORQUE_TOL)


@pytest.mark.parametrize("zoh", [False, True], ids=["continuous", "zoh"])
def test_float_loop_blow_ups_equal_the_numpy_loop(zoh):
    # xdot = x^2 + u on the line, pushed outward (h = 1 + x grows): escapes
    # near t = 0.5, as a non-finite constraint at x_k or inside the step
    system, barrier = declared_line(lambda x: x * x)
    specs = [ControllerSpec.qp(), ControllerSpec.sontag(S02), ControllerSpec.tunable(S02, TunableTermPolicy.eta_constant(0.6))]
    cfg = SimConfig(dt=1e-3, horizon=1.0, zoh=zoh)
    with np.errstate(all="ignore"):
        for spec in specs:
            floats = run(system, spec, barrier, np.array([2.0]), cfg)
            numpy = run(system, spec, replace(barrier), np.array([2.0]), cfg)
            assert floats.failure is not None
            assert_within(floats, numpy, 0.0)
            assert floats.states.tobytes() == numpy.states.tobytes()
