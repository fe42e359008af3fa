"""Workload definitions, operations and output checks of the weylgas benchmark.

An operation is one call of the public API that a user would make: one
``run_simulate``, or the ``diagnostics`` bundle (three ``run_verify``
scopes, one recorded B4 path, and collision detection on it).
Every operation returns an ``OpResult`` holding its wall time, the number of
path-steps it integrated, a digest of its outputs, and any check that failed.

The configs are pure functions of the benchmark seed and the operation's
index in the run, so the same seed gives the same sequence of inputs.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

NAMES = ("ensemble_a3", "diagnostics")
DEFAULT_SEED = 42  # the held-out seed for later claims is 7919
VERIFY_SCOPES = ("algebra", "drift", "oracle")
DETECT_EPS = 1e-2

PINS_PATH = Path(__file__).with_name("pins.json")


def op_seed(bench_seed: int, index: int) -> int:
    """Master seed of the index-th operation of a run."""
    return bench_seed * 1000 + index


def _dyson_a3(seed: int, k: float, spacing: float, T: float, P: int) -> dict:
    return {
        "family": "A", "N": 3, "preset": "dyson", "k": k, "T": T,
        "ensemble": P, "seed": seed,
        "x0": {"mode": "equispaced", "spacing": spacing},
        "policy": {"dt_max": 1e-4},
        "eps_grid": [1e-2, 1e-3, 1e-4],
        "workers": 1,
    }


# The B4 path of the diagnostics workload does not depend on the benchmark
# seed: per seed, its detection cost ranges from 0 s (no sample below eps)
# to 3.7 s (10k samples, 70 events), which a run cannot average out.
# Trajectory seed 3 is the sample-rich path (9,036 samples, 44 events at
# eps 1e-2) on which the per-sample detector cost shows.
DIAG_PATH_SEED = 3


def config_doc(name: str, bench_seed: int, index: int) -> dict:
    """The run config of one operation of a workload."""
    seed = op_seed(bench_seed, index)
    if name == "ensemble_a3":
        return _dyson_a3(seed, k=0.25, spacing=0.5, T=0.1, P=100)
    if name == "diagnostics":
        return {
            "family": "B", "N": 4, "preset": "bessel_b", "k1": 0.3, "k2": 0.5,
            "T": 0.25, "ensemble": 1, "seed": DIAG_PATH_SEED,
            "x0": {"mode": "explicit", "values": [0.2, 0.5, 0.9, 1.4]},
            "policy": {"dt_max": 1e-4},
        }
    raise ValueError(f"unknown workload {name!r}; expected one of {NAMES}")


@dataclass
class OpResult:
    """What one operation took, produced, and failed to satisfy."""

    wall_s: float
    path_steps: int  # from public outputs
    digest: str
    artifact_bytes: int = 0
    problems: list = field(default_factory=list)
    events: int = 0  # diagnostics only
    passed: dict = field(default_factory=dict)  # diagnostics only


def _sha(obj) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _simulate(wg, doc: dict, out: Path) -> OpResult:
    t0 = time.perf_counter()
    cfg = wg.parse_config(doc)
    wg.run_simulate(cfg, out_dir=out, workers=cfg.workers)
    wall = time.perf_counter() - t0
    data = (out / "summary.json").read_bytes()
    paths = json.loads(data)["paths"]
    problems = [f"{paths[k]} {k} paths" for k in ("stuck", "exploded") if paths[k]]
    steps = paths["accepted_steps"] + paths["rejected_steps"]
    return OpResult(wall, steps, hashlib.sha256(data).hexdigest(),
                    _dir_bytes(out), problems)


def _diagnostics(wg, doc: dict) -> OpResult:
    t0 = time.perf_counter()
    reports = {s: wg.run_verify(s) for s in VERIFY_SCOPES}
    cfg = wg.parse_config(doc)
    R = cfg.root_system()
    model = cfg.model()
    x0 = cfg.x0_array(R)
    rec = wg.simulate_trajectory(model, R, x0, cfg.T, cfg.policy, cfg.seed)
    events = wg.detect_collision_events(rec, R, eps=DETECT_EPS)
    wall = time.perf_counter() - t0

    problems = [f"run_verify({s}) failed: {r['sections'][s]['failures'][:3]}"
                for s, r in reports.items() if not r["passed"]]
    if rec.stuck or rec.lifetime_flag:
        problems.append("diagnostics path stuck or exploded")
    outputs = {
        "passed": {s: r["passed"] for s, r in reports.items()},
        "path": hashlib.sha256(rec.times.tobytes() + rec.states.tobytes()).hexdigest(),
        "events": [[e.t_in, e.t_out, e.t_min, e.order, sorted(e.tau_markers.items())]
                   for e in events],
    }
    steps = len(rec.times) - 1 + rec.rejected_steps
    return OpResult(wall, steps, _sha(outputs), 0, problems,
                    events=len(events), passed=outputs["passed"])


def run_op(wg, name: str, bench_seed: int, index: int, out_root: Path) -> OpResult:
    """Execute one operation and clean up its run directory."""
    doc = config_doc(name, bench_seed, index)
    if name == "diagnostics":
        return _diagnostics(wg, doc)
    out = out_root / f"{name}_{index}"
    shutil.rmtree(out, ignore_errors=True)
    try:
        return _simulate(wg, doc, out)
    finally:
        shutil.rmtree(out, ignore_errors=True)


def load_pins() -> dict:
    return json.loads(PINS_PATH.read_text())


def pin_problems(pins: dict, name: str, bench_seed: int, index: int,
                 res: OpResult) -> list[str]:
    """Compare an operation's outputs with the values pinned in pins.json.

    Ensemble outputs are pinned for the first operations of a run at the
    default seed; the diagnostics outputs do not depend on the seed
    and are pinned for every run.
    """
    pin = pins[name]
    if name == "diagnostics":
        problems = []
        if res.passed != pin["passed"]:
            problems.append(f"verify verdicts {res.passed}, pinned {pin['passed']}")
        if res.events != pin["events"]:
            problems.append(f"{res.events} events detected, pinned {pin['events']}")
        if res.digest != pin["digest"]:
            problems.append("diagnostics output digest differs from the pin")
        return problems
    digests = pin["digests"]
    if bench_seed != DEFAULT_SEED or index >= len(digests):
        return []
    if res.digest != digests[index]:
        return [f"summary.json sha256 {res.digest[:16]}.. differs from the pin "
                f"{digests[index][:16]}.. (seed {bench_seed}, operation {index})"]
    return []
