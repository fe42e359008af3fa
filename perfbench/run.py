"""Benchmark of weylgas: run one workload and print its metrics.

    python3 perfbench/run.py --workload ensemble_a3 --seed 42 --seconds 55 --trace 0

Run from the root of a checkout; weylgas is imported from ``src/`` there.
A run makes one untimed warm-up operation, then operations for ``--seconds``
seconds.  With ``--trace 0`` it times them with no wrappers installed,
times the set-up of nine fresh interpreters started between them, and
prints the end-to-end metrics.
With ``--trace 1`` it alternates an untraced and a traced operation on the
same config and prints the per-layer metrics of the traced ones, with the
tracing overhead.  Human-readable lines come first; the last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  See perfbench/README.md.
"""

import os

# Pin BLAS and OpenMP pools before numpy loads; set-up probes inherit the
# environment.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402
import workloads as wl  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".perfbench_runs"
SETUP_PROBES = 9


def declared_metrics(kind: str) -> dict:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


class Run:
    """Operations of one benchmark run, with their failures."""

    def __init__(self, wg, name, seed):
        self.wg, self.name, self.seed = wg, name, seed
        self.pins = wl.load_pins()
        self.attempted = 0
        self.failures: list[str] = []
        self.reference = None  # digest of the warm-up, which uses config 0

    def attempt(self, index, tracer=None):
        """One operation; returns its OpResult, or None if it failed."""
        self.attempted += 1
        try:
            if tracer is None:
                res = wl.run_op(self.wg, self.name, self.seed, index, OUT_ROOT)
            else:
                with tracer:
                    res = wl.run_op(self.wg, self.name, self.seed, index, OUT_ROOT)
        except Exception:  # a failed operation is counted; the run goes on
            self.failures.append(f"operation {index}: {traceback.format_exc()}")
            return None
        problems = list(res.problems)
        problems += wl.pin_problems(self.pins, self.name, self.seed, index, res)
        if index == 0 and self.reference not in (None, res.digest):
            problems.append("output digest differs from an earlier run of "
                            "the same config")
        if tracer is not None:
            problems += self._count_problems(tracer, res)
        if problems:
            self.failures.append(f"operation {index}: " + "; ".join(problems))
            return None
        if index == 0 and self.reference is None:
            self.reference = res.digest
        return res

    def _count_problems(self, tracer, res) -> list[str]:
        """Check the counted path-steps against the outputs that report them."""
        counts = tracer.counts
        problems = [f"{counts[k]} {k.split('.')[1]} paths"
                    for k in ("engine.stuck", "engine.exploded") if counts[k]]
        counted = counts["engine.path_steps"]
        if counted == 0:
            problems.append("no path-steps were counted")
        elif counted != res.path_steps:
            problems.append(f"{counted} path-steps counted, outputs report "
                            f"{res.path_steps}")
        return problems


def measure_untraced(run, seconds):
    """Wall times and path-steps of the operations that passed their checks,
    and the set-up times of fresh interpreters started between operations.

    The probes are spread over the run, one due every ``seconds /
    SETUP_PROBES``, so that like the operations they sample the whole run
    and not one moment of it.
    """
    doc = json.dumps(wl.config_doc(run.name, run.seed, 0))
    walls, steps, setups = [], [], []
    probes = 0
    start = time.perf_counter()
    index = 0
    while True:
        t0 = time.perf_counter()
        res = run.attempt(index)
        last = time.perf_counter() - t0
        if res is not None:
            walls.append(res.wall_s)
            steps.append(res.path_steps)
        index += 1
        while (probes < SETUP_PROBES
               and time.perf_counter() - start >= probes * seconds / SETUP_PROBES):
            probes += 1
            setups += setup_probe(run, doc)
        if time.perf_counter() - start + last > seconds:
            break
    for _ in range(probes, SETUP_PROBES):
        setups += setup_probe(run, doc)
    return walls, steps, setups


def measure_traced(run, seconds):
    untraced, traced, layers = [], [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        plain = run.attempt(0)
        tracer = spans.Tracer()
        res = run.attempt(0, tracer)
        last = time.perf_counter() - t0
        if plain is not None and res is not None:
            metrics = spans.layer_metrics(tracer)
            metrics["runner.artifact_mb"] = res.artifact_bytes / 1e6
            untraced.append(plain.wall_s)
            traced.append(res.wall_s)
            layers.append(metrics)
        if time.perf_counter() - start + last > seconds:
            return untraced, traced, layers


def setup_probe(run, doc: str) -> list[float]:
    """Set-up time of one fresh interpreter, or no time if the probe failed."""
    run.attempted += 1
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), str(SRC), doc],
        capture_output=True, text=True, timeout=30)
    if proc.returncode != 0:
        run.failures.append(f"set-up probe: {proc.stderr.strip()}")
        return []
    return [json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]]


def environment(wg) -> str:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return (f"env: python={platform.python_version()} numpy={numpy.__version__} "
            f"scipy={scipy.__version__} weylgas={wg.__version__} "
            f"cpu={cpu!r} nproc={len(os.sched_getaffinity(0))} "
            f"threads={os.environ['OMP_NUM_THREADS']}")


def median(values):
    return statistics.median(values) if values else 0.0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "weylgas" / "__init__.py").is_file():
        print(f"weylgas sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import weylgas as wg

    if not Path(wg.__file__).resolve().is_relative_to(SRC):
        print(f"weylgas was imported from {wg.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    if args.workload not in wl.NAMES:
        print(f"unknown workload {args.workload!r}; choose from {wl.NAMES}",
              file=sys.stderr)
        return 2
    seed = wl.DEFAULT_SEED if args.seed is None else args.seed
    run = Run(wg, args.workload, seed)

    print(environment(wg))
    OUT_ROOT.mkdir(exist_ok=True)
    try:
        run.attempt(0)  # untimed warm-up; later runs of config 0 must match it
        if args.trace:
            metrics, lines = traced_report(run, args.seconds)
        else:
            metrics, lines = untraced_report(run, args.seconds)
    finally:
        shutil.rmtree(OUT_ROOT, ignore_errors=True)

    print(f"workload {args.workload} seed {seed} trace {args.trace}: "
          f"{run.attempted} operations attempted, {len(run.failures)} failed")
    for line in lines:
        print(line)
    print(f"failed_ratio = {len(run.failures)}/{run.attempted}"
          f" = {len(run.failures) / run.attempted:.4g}")
    for failure in run.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": metrics,
    }))
    return 0


def untraced_report(run, seconds):
    walls, steps, setups = measure_untraced(run, seconds)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    busy = sum(walls)
    values = {
        "wall_s": (busy / len(walls) if walls else 0.0,
                   f"mean of {len(walls)} operations"),
        "path_steps_per_s": (sum(steps) / busy if busy else 0.0,
                             f"{sum(steps)} path-steps in {busy:.4g} s"),
        "peak_rss_mb": (peak_kb / 1024.0, "peak over the run"),
        "setup_s": (median(setups), f"median of {len(setups)} interpreters"),
    }
    units = declared_metrics("end_to_end")
    metrics = {k: {"value": values[k][0], "unit": u} for k, u in units.items()}
    lines = [f"{k:<18} {values[k][0]:>14.6g} {u:<4} ({values[k][1]})"
             for k, u in units.items()]
    if walls:
        lines.append(f"operation wall time (s): median {median(walls):.4g}, "
                     f"max {max(walls):.4g}; all: "
                     + " ".join(f"{w:.4g}" for w in walls))
    return metrics, lines


def traced_report(run, seconds):
    untraced, traced, layers = measure_traced(run, seconds)
    values = {
        "trace.untraced_wall_s": median(untraced),
        "trace.traced_wall_s": median(traced),
        "trace.overhead_ratio": median([t / u - 1.0 for t, u in zip(traced, untraced)]),
    }
    units = declared_metrics("per_layer")
    for k in units.keys() - values.keys():
        values[k] = median([m[k] for m in layers])
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    lines = [f"{k:<34} {m['value']:>14.6g} {m['unit']}" for k, m in metrics.items()]
    lines.append(f"(medians over {len(layers)} traced operations)")
    return metrics, lines


if __name__ == "__main__":
    sys.exit(main())
