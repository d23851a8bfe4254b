"""Acceptance suite: one test per criterion, printed as pass/fail lines.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the lines; the
test names alone carry the verdicts under plain ``pytest -v``.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from cbfctrl import (
    AffineConstraint,
    ControllerSpec,
    ShapingFunction,
    TunableTermPolicy,
    evaluate_controller,
    safety_margin_at,
)
from cbfctrl.cli import main as cli_main
from cbfctrl.core import ControlAffineSystem
from cbfctrl.formulas import controller_spec, lambda_min_norm
from cbfctrl.manipulator import (
    Q2_LIMIT,
    ManipulatorParams,
    run_formulas,
    torque_level_scenario,
    velocity_level_scenario,
)
from cbfctrl.simulate import SimConfig, run, step
from oracles import dynamics, probe_derivative_jump

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
ETAS = [0.5, 0.6, 0.7, 0.8, 0.9]
GAMMA_BOUND = 2.3
SIGMA = 0.2


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def velocity_runs():
    """10 s velocity-level runs for qp, the eta grid, and the sontag term, one after another."""
    cfg = SimConfig(dt=1e-3, horizon=10.0)
    formulas = {"qp": controller_spec("qp")}
    formulas.update({eta: controller_spec("tunable", sigma=SIGMA, eta=eta) for eta in ETAS})
    formulas["sontag"] = controller_spec("sontag", sigma=SIGMA)
    start = time.perf_counter()
    trajs = run_formulas(velocity_level_scenario(sigma=SIGMA), list(formulas.values()), cfg)
    elapsed = time.perf_counter() - start
    return dict(zip(formulas, trajs)), elapsed


def test_c01_tightened_constraint_equality():
    rng = np.random.default_rng(101)
    shapings = [ShapingFunction.linear(0.2), ShapingFunction.linear(1.0)]
    # one tunable spec per shaping, whose policy reads the eta of the current sample
    eta_now = [0.0]
    policy = TunableTermPolicy.eta_function(lambda c, d2: eta_now[0])
    specs = [ControllerSpec.tunable(s, policy) for s in shapings]
    n = 100_000
    worst = 0.0
    start = time.perf_counter()
    for i in range(n):
        m = int(rng.integers(1, 4))
        d_vec = rng.normal(size=m) * rng.uniform(0.3, 3.0)
        d2 = float(d_vec @ d_vec)
        if d2 <= 1e-6:
            continue
        c = float(rng.normal(scale=2.0))
        eta = float(rng.uniform(0.5, 1.0))
        s = shapings[i % 2]
        eta_now[0] = eta
        out = evaluate_controller(specs[i % 2], AffineConstraint(c, d_vec))
        gamma = math.sqrt(c * c + s(d2) * d2)
        # c + d.u with u = lam d^T contracts to c + lam ||d||^2
        residual = c + out.lam * d2 - out.kappa * gamma
        worst = max(worst, abs(residual))
    elapsed = time.perf_counter() - start
    _report(
        1,
        worst <= 1e-9 and elapsed < 5.0,
        f"max |c + d.u - kappa*Gamma| = {worst:.3e} over {n} samples in {elapsed:.2f}s",
    )


def test_c02_min_norm_matches_projection_oracle():
    rng = np.random.default_rng(102)
    spec = ControllerSpec.qp()
    n = 100_000
    worst = 0.0
    for _ in range(n):
        m = int(rng.integers(1, 4))
        d = rng.normal(size=m) * rng.uniform(0.1, 3.0)
        c = float(rng.normal(scale=2.0))
        if float(d @ d) <= 1e-12:
            continue
        out = evaluate_controller(spec, AffineConstraint(c, d))
        oracle = np.zeros(m) if c >= 0.0 else (-c / float(d @ d)) * d
        worst = max(worst, float(np.linalg.norm(out.u - oracle)))
    _report(2, worst <= 1e-9, f"max ||u - oracle|| = {worst:.3e} over {n} samples")


def test_c03_identity_ladder():
    rng = np.random.default_rng(103)
    s = ShapingFunction.linear(SIGMA)
    stg = ControllerSpec.sontag(s)
    tun_one = ControllerSpec.tunable(s, TunableTermPolicy.eta_constant(1.0))
    tun_half = ControllerSpec.tunable(s, TunableTermPolicy.eta_constant(0.5))
    worst_one = 0.0
    worst_half = 0.0
    for _ in range(10_000):
        m = int(rng.integers(1, 4))
        d = rng.normal(size=m)
        c = float(rng.normal(scale=2.0))
        if float(d @ d) <= 1e-6:
            continue
        con = AffineConstraint(c, d)
        u_stg = evaluate_controller(stg, con).u
        worst_one = max(
            worst_one, float(np.linalg.norm(evaluate_controller(tun_one, con).u - u_stg))
        )
        worst_half = max(
            worst_half,
            float(np.linalg.norm(evaluate_controller(tun_half, con).u - 0.5 * u_stg)),
        )
    _report(
        3,
        worst_one <= 1e-12 and worst_half <= 1e-12,
        f"eta=1 vs sontag {worst_one:.2e}; eta=0.5 vs half sontag {worst_half:.2e}",
    )


def test_c04_min_norm_approximation_in_sigma():
    rng = np.random.default_rng(104)
    samples = []
    for _ in range(1000):
        m = int(rng.integers(1, 4))
        direction = rng.normal(size=m)
        direction /= np.linalg.norm(direction)
        d = direction * rng.uniform(0.5, 2.0)
        d2 = float(d @ d)
        c = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.25, 3.0) * d2)
        samples.append((c, d))
    sigmas = [10.0 ** (-k) for k in range(1, 7)]
    qp = ControllerSpec.qp()
    u_qp = [evaluate_controller(qp, AffineConstraint(c, d)).u for c, d in samples]
    max_qp_norm = max(float(np.linalg.norm(u)) for u in u_qp)
    errs = []
    for sigma in sigmas:
        s = ShapingFunction.linear(sigma)
        spec = ControllerSpec.tunable(s, TunableTermPolicy.eta_constant(0.5))
        err = 0.0
        for (c, d), uq in zip(samples, u_qp):
            u = evaluate_controller(spec, AffineConstraint(c, d)).u
            err = max(err, float(np.linalg.norm(u - uq)))
        errs.append(err)
    monotone = all(b < a for a, b in zip(errs, errs[1:]))
    ratios = [b / a for a, b in zip(errs, errs[1:])]
    ratios_ok = all(0.05 <= r <= 0.2 for r in ratios)
    final_ok = errs[-1] <= 1e-5 * (1.0 + max_qp_norm)
    _report(
        4,
        monotone and ratios_ok and final_ok,
        f"errors {['%.2e' % e for e in errs]}, ratios {['%.3f' % r for r in ratios]}",
    )


def test_c05_sontag_margin_bound():
    rng = np.random.default_rng(105)
    shapings = [ShapingFunction.linear(0.2), ShapingFunction.linear(1.0)]
    worst = -math.inf
    n = 100_000
    for i in range(n):
        c = float(rng.normal(scale=3.0))
        m = int(rng.integers(1, 4))
        d = rng.normal(size=m) * rng.uniform(0.1, 2.0)
        if float(d @ d) <= 1e-4:
            continue  # below this the margin denominator degenerates by design
        worst = max(worst, safety_margin_at(AffineConstraint(c, d), 1.0, shapings[i % 2]))
    asym = safety_margin_at(AffineConstraint(-1e6, [1.0]), 1.0, ShapingFunction.linear(0.2))
    _report(
        5,
        worst < -0.5 and abs(asym + 0.5) <= 1e-3,
        f"max M = {worst:.6f} over {n} samples; M(c=-1e6) + 1/2 = {asym + 0.5:.2e}",
    )


def test_c06_derivative_jump_probe():
    s = ShapingFunction.linear(SIGMA)
    jump_pmn = probe_derivative_jump(lambda_min_norm, d_fixed=1.0, step=1e-5)
    smooth = [ControllerSpec.sontag(s)] + [ControllerSpec.tunable(s, TunableTermPolicy.eta_constant(eta)) for eta in ETAS]
    # each multiplier at ||d||^2 = d2 = 1, on d = [1.0]
    jumps_smooth = [
        probe_derivative_jump(lambda c, d2: evaluate_controller(spec, AffineConstraint(c, [math.sqrt(d2)])).lam, 1.0, 1e-5)
        for spec in smooth
    ]
    _report(
        6,
        abs(jump_pmn - 1.0) <= 1e-3 and all(j <= 1e-4 for j in jumps_smooth),
        f"min-norm jump {jump_pmn:.6f}; smooth jumps max {max(jumps_smooth):.2e}",
    )


def test_c07_velocity_level_safety_and_ordering(velocity_runs):
    runs, elapsed = velocity_runs
    min_h = {}
    for key in ["qp"] + ETAS:
        traj = runs[key]
        assert traj.ok, f"run {key} failed: {traj.failure}"
        min_h[key] = float(np.min(Q2_LIMIT - traj.states[:, 1]))
    safety_ok = all(v >= -1e-4 for v in min_h.values())
    ordering_ok = all(
        min_h[b] >= min_h[a] for a, b in zip(ETAS, ETAS[1:])
    )
    _report(
        7,
        safety_ok and ordering_ok and elapsed < 30.0,
        f"min h per run {{qp: {min_h['qp']:.4f}, "
        + ", ".join(f"{e}: {min_h[e]:.4f}" for e in ETAS)
        + f"}}, {elapsed:.1f}s for the 7 runs one after another",
    )


def test_c08_norm_bound_split_and_bi_runs(velocity_runs):
    runs, _ = velocity_runs
    peaks = {key: float(np.max(runs[key].correction_norms)) for key in ETAS + ["sontag"]}
    unbounded_ok = (
        all(peaks[e] <= GAMMA_BOUND for e in [0.5, 0.6, 0.7])
        and all(peaks[e] > GAMMA_BOUND for e in [0.8, 0.9])
        and peaks["sontag"] > GAMMA_BOUND
    )

    check_pass = []
    for eta in ETAS:
        rc = cli_main(
            [
                "check",
                "--config",
                str(CONFIG_DIR / "twolink_velocity.json"),
                "--set",
                "controller.kind=bounded_input",
                "--set",
                f"controller.eta={eta}",
                "--out",
                "/tmp",
            ]
        )
        if rc == 0:
            check_pass.append(eta)
    split_ok = check_pass == [0.5, 0.6, 0.7]

    cfg = SimConfig(dt=1e-3, horizon=10.0)
    bi_ok = True
    bi_peaks = {}
    trajs = run_formulas(
        velocity_level_scenario(sigma=SIGMA),
        [controller_spec("bounded_input", sigma=SIGMA, eta=eta, gamma=GAMMA_BOUND) for eta in check_pass],
        cfg,
    )
    for eta, traj in zip(check_pass, trajs):
        bi_peaks[eta] = float(np.max(traj.correction_norms))
        bi_ok = bi_ok and traj.ok and bi_peaks[eta] <= GAMMA_BOUND + 1e-9
    _report(
        8,
        unbounded_ok and split_ok and bi_ok,
        f"peaks {{{', '.join(f'{k}: {v:.3f}' for k, v in peaks.items())}}}, "
        f"check passes {check_pass}, bounded peaks {bi_peaks}",
    )


def test_c09_backstepping_smooth_vs_min_norm():
    cfg = SimConfig(dt=1e-3, horizon=10.0)
    errs = {}
    min_h_smooth = None
    for kind in ["tunable", "qp"]:
        sc = torque_level_scenario(eta=0.7, kind=kind)
        traj = run(sc.system, sc.spec, sc.barrier, sc.x0, cfg)
        assert traj.ok, f"torque-level run ({kind}) failed: {traj.failure}"
        q = traj.states[:, :2]
        tau = traj.states[:, 4]
        if kind == "tunable":
            min_h_smooth = float(np.min(Q2_LIMIT - q[:, 1]))
        ref = np.stack([2.0 * np.sin(tau) + 1.0, 2.0 * np.sin(tau)], axis=1)
        errs[kind] = float(np.linalg.norm(q[-1] - ref[-1]))
    ratio = errs["qp"] / errs["tunable"]
    _report(
        9,
        min_h_smooth >= -1e-4 and ratio >= 10.0,
        f"smooth-k0 min h = {min_h_smooth:.4f}; terminal tracking errors "
        f"qp {errs['qp']:.4f} vs eta=0.7 {errs['tunable']:.4f} (ratio {ratio:.2f}, need >= 10)",
    )


def test_c10_rk4_convergence_order():
    params = ManipulatorParams()
    system = ControlAffineSystem(
        state_dim=4,
        input_dim=2,
        drift=lambda x: dynamics(params, x[:2], x[2:], np.zeros(2)),
        input_map=lambda x: np.vstack([np.zeros((2, 2)), np.eye(2)]),
    )
    zero = lambda x: np.zeros(2)
    x0 = np.array([1.0, 0.0, 2.0, 2.0])

    def integrate(dt, horizon):
        x = x0.copy()
        for _ in range(round(horizon / dt)):
            x = step(system, zero, x, dt)
        return x

    horizon = 0.1
    # An independent high-order reference, not the integrator under test.
    ref = solve_ivp(
        lambda t, x: system.drift(x), (0.0, horizon), x0, method="DOP853", rtol=1e-13, atol=1e-14
    ).y[:, -1]
    errs = [float(np.linalg.norm(integrate(dt, horizon) - ref)) for dt in (4e-3, 2e-3, 1e-3)]
    factors = [a / b for a, b in zip(errs, errs[1:])]
    _report(
        10,
        all(f >= 8.0 for f in factors),
        f"errors {['%.2e' % e for e in errs]}, halving factors {['%.1f' % f for f in factors]}",
    )


def test_c11_cli_determinism(tmp_path):
    config = {
        "schema": 1,
        "seed": 3,
        "system": {"name": "single_integrator", "dim": 1},
        "barrier": {"kind": "linear", "normal": [1.0], "offset": 1.0, "beta": 1.5},
        "controller": {"kind": "tunable", "eta": 0.7, "sigma": 0.2},
        "nominal": {"kind": "constant", "value": [1.5]},
        "x0": [0.0],
        "disturbance": {"kind": "bounded_random", "magnitude": 0.2, "seed": 3},
        "sim": {"dt": 0.001, "horizon": 2.0, "integrator": "rk4", "record_every": 1},
    }
    path = tmp_path / "det.json"
    path.write_text(json.dumps(config))
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        rc = cli_main(
            ["simulate", "--config", str(path), "--out", str(out), "--seed", "9"]
        )
        assert rc == 0
        outs.append((out / "trajectory.csv").read_bytes())
    _report(
        11,
        outs[0] == outs[1],
        f"two runs, {len(outs[0])} bytes each, byte-identical = {outs[0] == outs[1]}",
    )
