"""cbfctrl benchmark: one workload, measured untraced (--trace 0) or traced (--trace 1).

Run from the root of a cbfctrl checkout:

    python3 perfbench/run.py --workload sweep_velocity --seed 1 --seconds 35 --trace 0

The program is imported from ``src/`` of the working directory.  Rounds of
the workload run back to back, single-threaded apart from the sweep
command's own pool, while the next round fits in --seconds.  Every output
is checked against ``perfbench/reference.json``.  The report goes to standard output:
one line per metric with unit and sample count, a provenance line, and as
the last line a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 when every output matched, 1 when one did
not, and 2 when the checkout holds no program to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
OUT_DIR = ".perfbench_out"
SETUP_REPEATS = 5

# Runs in a fresh interpreter: what a user pays before the first command.
SETUP_CODE = """
import json, sys, time
t0 = time.perf_counter()
from cbfctrl import cli
for path, sets in json.loads(sys.argv[1]):
    cli.build_scenario(cli.load_config(path, sets))
print(time.perf_counter() - t0)
"""

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "throughput_per_s": "1/s",
    "latency_us_p50": "us",
    "peak_rss_mb": "MB",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def provenance(root: Path, args, configs: list[dict]) -> dict:
    commit = "unknown"
    head = root / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = root / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else ref
        commit = ref
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "configs": configs,
    }


def measure_setup(root: Path, workload) -> list[float]:
    """Set-up times from fresh interpreters; the first run only warms caches."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    configs = json.dumps(workload.configs)
    samples = []
    for _ in range(SETUP_REPEATS + 1):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, configs],
            cwd=root, env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples[1:]


class Tally:
    """Operations attempted and failed, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.identical = None  # byte-identical files in the first round

    def add(self, result) -> None:
        self.attempted += result.attempted
        self.failed += len(result.failures)
        self.messages += [f"{k}: {v}" for k, v in list(result.failures.items())[:5]]
        if self.identical is None:
            self.identical = result.identical


def end_to_end(rounds, setup, peak_rss_mb) -> dict:
    """The end-to-end metrics as {name: (value, sample count)}."""
    latencies = [r.latency_us[0] for r in rounds if r.latency_us]
    if latencies:
        # Pointwise: time of one filter evaluation, median over rounds of each round's median.
        latency, n_latency = statistics.median(latencies), len(latencies)
    else:
        # Closed-loop runs: time of one integration step, round by round.
        latency = statistics.median(r.work_s / r.work * 1e6 for r in rounds)
        n_latency = len(rounds)
    return {
        "setup_s": (statistics.median(setup), len(setup)),
        "wall_s": (statistics.median(r.wall_s for r in rounds), len(rounds)),
        "throughput_per_s": (
            sum(r.work for r in rounds) / sum(r.work_s for r in rounds),
            sum(r.work for r in rounds),
        ),
        "latency_us_p50": (latency, n_latency),
        "peak_rss_mb": (peak_rss_mb, 1),
    }


def _checked(result, tally: Tally):
    """Tally a checked round and drop its described outputs, so that the
    process's memory does not grow with the number of rounds."""
    tally.add(result)
    result.outputs = None
    return result


def _time_left(t_end: float, t_round: float) -> bool:
    """Whether another round as long as the last one ends before t_end."""
    now = time.perf_counter()
    return now + (now - t_round) <= t_end


def run_untraced(workload, seconds: float, tally: Tally) -> list:
    rounds = []
    t_end = time.perf_counter() + seconds
    index = 0
    while True:
        t_round = time.perf_counter()
        rounds.append(_checked(workload.round(index), tally))
        index += 1
        if not _time_left(t_end, t_round):
            return rounds


def run_traced(workload, seconds: float, tally: Tally):
    """Pairs of an untraced and a traced round on the same inputs."""
    import layers
    import spans

    tracer = spans.Tracer()
    plain, traced, first_runs = [], [], None
    t_end = time.perf_counter() + seconds
    index = 0
    while not traced or _time_left(t_end, t_round):
        t_round = time.perf_counter()
        plain.append(_checked(workload.round(index), tally))
        run_before = tracer.current_run
        with spans.installed(tracer):
            workload.on_operation = tracer.next_run
            try:
                result = workload.round(index)
            finally:
                workload.on_operation = None
        traced.append(_checked(result, tally))
        if first_runs is None:
            first_runs = (run_before, tracer.current_run)
        index += 1
    return tracer, layers.per_layer(tracer, first_runs, plain, traced, tally.identical)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "cbfctrl" / "__init__.py").is_file() or not (root / "configs").is_dir():
        print(f"error: {root} holds no cbfctrl checkout (src/cbfctrl, configs/)", file=sys.stderr)
        return 2
    if not REFERENCE.is_file():
        print(f"error: reference outputs {REFERENCE} are missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    reference = json.loads(REFERENCE.read_text())
    work_dir = root / OUT_DIR / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    tally = Tally()
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, work_dir, reference)
        prov = provenance(root, args, workload.resolved_configs())
        if args.trace:
            tracer, metrics = run_traced(workload, args.seconds, tally)
            tracer.save(root / OUT_DIR / f"trace_{args.workload}.npz")
            units = {name: unit for name, (_, unit, _) in metrics.items()}
            values = {name: (value, n) for name, (value, _, n) in metrics.items()}
        else:
            setup = measure_setup(root, workload)
            rounds = run_untraced(workload, args.seconds, tally)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            units = END_TO_END_UNITS
            values = end_to_end(rounds, setup, peak_rss_mb)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    for name, (value, n) in values.items():
        print(f"  {name:<52s} {value:>14.6g} {units[name]:<6s} (n={n})")
    ratio = tally.failed / tally.attempted
    print(f"  {'fail_ratio':<52s} {ratio:>14.6g} {'share':<6s} (n={tally.attempted})")
    for message in tally.messages[:10]:
        print(f"  mismatch: {message}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    correct = tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, (value, _) in values.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
