"""Print the pinned outputs of every workload at the default seed.

    python3 perfbench/make_pins.py > perfbench/pins.json

Re-pin only with a change to weylgas that is meant to change its outputs,
and say in that change why the outputs moved.
"""

import json
import shutil
import sys

import run  # pins the BLAS and OpenMP threads as a benchmark run does

# pinned operations per workload: more than a run at --seconds 55 makes
COUNTS = {"ensemble_a3": 48}


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import weylgas as wg
    import workloads as wl

    seed = wl.DEFAULT_SEED
    pins, problems = {}, []
    run.OUT_ROOT.mkdir(exist_ok=True)
    try:
        for name, n in COUNTS.items():
            results = [wl.run_op(wg, name, seed, i, run.OUT_ROOT) for i in range(n)]
            problems += [p for r in results for p in r.problems]
            pins[name] = {"seed": seed, "digests": [r.digest for r in results]}
        res = wl.run_op(wg, "diagnostics", seed, 0, run.OUT_ROOT)
        problems += res.problems
        pins["diagnostics"] = {"passed": res.passed, "events": res.events,
                               "digest": res.digest}
    finally:
        shutil.rmtree(run.OUT_ROOT, ignore_errors=True)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    print(json.dumps(pins, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
