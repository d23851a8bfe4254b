"""Record the reference outputs the benchmark checks against.

Run from the root of a checkout of the commit whose outputs are the
reference (the first one was recorded on the commit that added the
benchmark; later commits must reproduce it, not re-record it):

    python3 perfbench/make_reference.py

It runs round 0 of every workload with seed 0 and writes
``perfbench/reference.json``: exit codes, output hashes, row counts,
down-sampled CSV rows, `check` verdicts, and the pointwise outcomes of the
states drawn with seed 0.  Command outputs do not depend on the seed; every
round of every seed re-evaluates those states and compares them, and holds
its own seeded states to the invariants in ``workloads``.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _format(obj, indent: int = 0) -> str:
    """JSON with one line per dict entry or row, so that diffs stay readable."""
    pad = " " * (indent + 1)
    if isinstance(obj, dict) and obj:
        items = [f"{pad}{json.dumps(k)}: {_format(v, indent + 1)}" for k, v in sorted(obj.items())]
        return "{\n" + ",\n".join(items) + "\n" + " " * indent + "}"
    if isinstance(obj, list) and obj and all(isinstance(v, (list, str)) for v in obj):
        return "[\n" + ",\n".join(pad + json.dumps(v) for v in obj) + "\n" + " " * indent + "]"
    return json.dumps(obj)


def main() -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    import workloads

    work_dir = root / ".perfbench_out" / "reference"
    reference = {"rel_tol": workloads.REL_TOL, "abs_tol": workloads.ABS_TOL}
    try:
        for name, cls in workloads.WORKLOADS.items():
            result = cls(0, work_dir, None).round(0)
            entry = {"commands": {k: v for k, v in result.outputs.items() if k != "evaluations"}}
            if "evaluations" in result.outputs:
                entry["evaluations"] = result.outputs["evaluations"]
            if result.failures:
                print(f"{name}: invariants fail at the reference commit: {result.failures}", file=sys.stderr)
                return 1
            reference[name] = entry
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    (HERE / "reference.json").write_text(_format(reference) + "\n")
    print(f"wrote {HERE / 'reference.json'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
