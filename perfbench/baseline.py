"""Run the benchmark over several seeds and record medians and quartiles.

Run from the root of a checkout:

    python3 perfbench/baseline.py

Each run is a separate ``run.py`` process of ``run_seconds`` (from
``BENCHMARK.json``), started after the previous one has ended.  For every
workload it makes 10 untraced runs (seeds 1 to 10) and one traced run
(seed 1), and writes to ``perfbench/baseline.json``, per end-to-end metric,
the median, the quartiles and the quartile spread as a share of the
median, as the benchmark's acceptance check computes them; per-layer
values come from the traced run.  It stops with an error if any run fails.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
RUNS = 10


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} trace {trace} exited {done.returncode}:\n"
                           + done.stdout[-2000:] + done.stderr[-2000:])
    result = json.loads(lines[-1])
    result["provenance"] = json.loads(next(l for l in lines if l.startswith("provenance "))[11:])
    return result


def main() -> int:
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
    summary = {"runs": RUNS, "seconds": seconds, "workloads": {}}
    for workload in workloads.WORKLOADS:
        runs = [run_once(workload, seed, seconds, 0) for seed in range(1, RUNS + 1)]
        traced = run_once(workload, 1, seconds, 1)
        end_to_end = {}
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            end_to_end[name] = {
                "unit": first["unit"], "median": median, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / median, "values": values,
            }
            print(f"{workload:18s} {name:18s} median {median:12.6g} {first['unit']:5s} "
                  f"spread {(q3 - q1) / median:.4f}", flush=True)
        summary["provenance"] = {k: v for k, v in runs[0]["provenance"].items()
                                 if k in ("commit", "python", "numpy", "nproc", "cpu")}
        summary["workloads"][workload] = {
            "end_to_end": end_to_end,
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    (HERE / "baseline.json").write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
