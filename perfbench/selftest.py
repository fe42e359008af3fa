"""Check that the exact counters of the traced run repeat exactly.

    python3 perfbench/selftest.py [workload ...]

Runs each workload (default: both) twice with ``--trace 1`` at the
default seed and a one-second run length, and exits 1 if a run is not
correct or if any exact counter differs between the two runs.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXACT = (
    "engine.path_steps", "engine.iterations", "engine.lane_utilization",
    "engine.reject_ratio", "rng.noise_used_ratio", "rng.noise_block_mb",
    "collisions.update_rows", "collisions.rows_near_wall_ratio",
    "collisions.occupancy_mb", "collisions.detect_samples",
    "sympoly.elementary_calls", "config.parse_calls", "trace.spans",
)


def traced_run(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "42", "--seconds", "1", "--trace", "1"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: run.py exited {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(workload: str) -> list[str]:
    first, second = traced_run(workload), traced_run(workload)
    problems = [f"run {i + 1} failed {r['failed']} of {r['attempted']} operations"
                for i, r in enumerate((first, second)) if not r["correct"]]
    for key in EXACT:
        a, b = (r["metrics"][key]["value"] for r in (first, second))
        if a != b:
            problems.append(f"{key} is {a} in one run and {b} in the other")
    return problems


def main(workloads) -> int:
    failed = False
    for workload in workloads:
        problems = check(workload)
        for p in problems:
            print(f"{workload}: {p}")
        print(f"{workload}: {'FAILED' if problems else 'ok'}")
        failed |= bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or
                  ("ensemble_a3", "diagnostics")))
