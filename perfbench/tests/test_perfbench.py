"""Tests of the benchmark itself: correctness checks, span arithmetic, repeatable counts.

Run from the root of the checkout:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _write(path: Path, rows: list[list[str]]) -> Path:
    path.write_text("\n".join(",".join(r) for r in rows) + "\n")
    return path


def _trajectory(n=200):
    t = np.arange(n) * 1e-3
    return [["t", "x0", "kappa"]] + [
        [f"{a:.17g}", f"{np.sin(a):.17g}", "nan"] for a in t
    ]


def test_identical_csv_matches(tmp_path):
    ref = workloads.describe_file(_write(tmp_path / "a.csv", _trajectory()))
    got = workloads.describe_file(_write(tmp_path / "b.csv", _trajectory()), ref["stride"])
    assert workloads.compare_file(ref, got, "a.csv") == ([], True)


@pytest.mark.parametrize("row", [0, 7, 199])  # a sampled row, an unsampled one, the last
def test_csv_with_one_perturbed_value_is_rejected(tmp_path, row):
    ref = workloads.describe_file(_write(tmp_path / "a.csv", _trajectory()))
    rows = _trajectory()
    rows[row + 1][1] = f"{float(rows[row + 1][1]) + 1e-6:.17g}"
    got = workloads.describe_file(_write(tmp_path / "b.csv", rows), ref["stride"])
    errors, identical = workloads.compare_file(ref, got, "a.csv")
    assert errors and not identical


def test_value_within_tolerance_is_accepted_but_not_identical(tmp_path):
    ref = workloads.describe_file(_write(tmp_path / "a.csv", _trajectory()))
    rows = _trajectory()
    rows[5][1] = f"{float(rows[5][1]) * (1 + 1e-13):.17g}"
    got = workloads.describe_file(_write(tmp_path / "b.csv", rows), ref["stride"])
    assert workloads.compare_file(ref, got, "a.csv") == ([], False)


def _summary(steps):
    rows = [["gamma", "min_h", "status"]]
    for value, step in zip(("1.0", "1.5", "2.0", "2.3"), steps):
        rows.append([value, "0.5", "ok" if step is None else f"failed step {step}"])
    return rows


def test_sweep_with_one_shifted_failure_step_is_rejected(tmp_path):
    ref_dir, got_dir = tmp_path / "ref", tmp_path / "got"
    ref_dir.mkdir()
    got_dir.mkdir()
    ref = {"exit": 2, "files": {
        "summary.csv": workloads.describe_file(_write(ref_dir / "summary.csv", _summary([86, 272, 563, None])))
    }}
    shifted = _write(got_dir / "summary.csv", _summary([86, 273, 563, None]))
    got = {"exit": 2, "files": {"summary.csv": workloads.describe_file(shifted, 1)}}
    errors = workloads.compare_command(ref, got, workloads.RoundResult())
    assert any("summary.csv" in e for e in errors)
    assert workloads._sweep_steps(got, 1000) == 86 + 273 + 563 + 1000


def test_wrong_exit_code_is_rejected():
    ref = {"exit": 0, "files": {}}
    got = {"exit": 2, "files": {}}
    assert workloads.compare_command(ref, got, workloads.RoundResult())


def test_invariants_reject_a_wrong_input():
    d = np.array([0.0, -1.0])
    con = SimpleNamespace(c=0.3, d=d, d_norm=1.0)
    kd = np.array([0.5, 0.2])
    c_eff = con.c + float(d @ kd)
    gamma_eff = float(np.sqrt(c_eff**2 + 0.2))
    kappa = 0.7 + 0.3 * c_eff / gamma_eff
    lam = kappa * gamma_eff - c_eff
    good = SimpleNamespace(u=lam * d + kd, lam=lam, kappa=kappa, c_eff=c_eff, gamma_eff=gamma_eff)
    assert workloads._expected_outcome_check("tunable", con, good, 2.3) is None
    bad = SimpleNamespace(**{**vars(good), "u": good.u + np.array([0.0, 1e-6])})
    assert "c + d.u" in workloads._expected_outcome_check("tunable", con, bad, 2.3)
    big = SimpleNamespace(**{**vars(good), "lam": 5.0, "u": 5.0 * d + kd})
    assert "correction norm" in workloads._expected_outcome_check("bounded_input", con, big, 2.3)


def test_pointwise_reference_states_are_checked_for_any_seed(tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    reference = run.json.loads(run.REFERENCE.read_text())
    evaluations = reference["pointwise_filter"]["evaluations"]
    i = next(j for j, e in enumerate(evaluations) if isinstance(e, list))
    evaluations[i] = [evaluations[i][0] * (1 + 1e-6)] + evaluations[i][1:]
    result = workloads.PointwiseFilter(5, tmp_path, reference).round(0)
    assert list(result.failures) == [("ref", i)]
    assert result.latency_us[0] <= result.latency_us[1]


def test_self_times_on_nested_and_overlapping_spans():
    # root [0, 100] has children [10, 40] and [30, 60] (overlapping) and
    # [90, 120] (running past its parent); [10, 40] has child [15, 20].
    start = [0, 10, 30, 90, 15, 200]
    end = [100, 40, 60, 120, 20, 210]
    parent = [-1, 0, 0, 0, 1, -1]
    own = spans.self_times(start, end, parent)
    assert own.tolist() == [100 - 50 - 10, 30 - 5, 30, 30, 5, 10]


def test_tracer_records_parents_and_errors():
    tracer = spans.Tracer()

    def inner(x):
        if x < 0:
            raise ValueError(x)
        return x

    def outer(x):
        return tracer.call("inner", inner, (x,), {})

    tracer.next_run()
    tracer.call("outer", outer, (1,), {})
    with pytest.raises(ValueError):
        tracer.call("outer", outer, (-1,), {})
    a = tracer.arrays()
    names = [tracer.names[i] for i in a["name_id"]]
    assert names == ["outer", "inner", "outer", "inner"]
    assert a["parent"].tolist() == [-1, 0, -1, 2]
    assert a["raised"].tolist() == [False, False, True, True]
    assert a["run_id"].tolist() == [1, 1, 1, 1]
    assert (a["end"] >= a["start"]).all() and (a["cpu_end"] >= a["cpu_start"]).all()


COUNT_UNITS = {"count", "calls/step", "calls/eval"}


def test_per_layer_counts_repeat_exactly(tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    reference = run.json.loads(run.REFERENCE.read_text())

    declared = run.json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]

    def counts():
        workload = workloads.SweepVelocity(0, tmp_path / "work", reference)
        tally = run.Tally()
        _, metrics = run.run_traced(workload, 0.0, tally)
        assert tally.failed == 0, tally.messages
        assert {k: unit for k, (_, unit, _) in metrics.items()} == {m["name"]: m["unit"] for m in declared}
        return {k: v for k, (v, unit, _) in metrics.items() if unit in COUNT_UNITS}

    first, second = counts(), counts()
    assert first == second
    assert first["simulate.evals_per_step"] == pytest.approx(5.0, abs=1e-3)
    assert first["cli.write_trajectory_csv.rows"] == sum(
        f["rows"] for c in reference["sweep_velocity"]["commands"].values()
        for name, f in c["files"].items() if name != "summary.csv"
    )


def test_end_to_end_metrics_match_the_declared_ones():
    declared = run.json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert run.END_TO_END_UNITS == {m["name"]: m["unit"] for m in declared}


def test_exits_nonzero_without_a_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "torque_track", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert done.returncode != 0
    assert done.stdout == ""
