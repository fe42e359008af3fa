"""Span tracing of weylgas from outside the package.

``Tracer.install`` replaces the public functions of each weylgas module (and
the three private runner steps the per-layer metrics name) with wrappers
that record a span (id, parent id, name, start, end) around every call and
update exact counters from the calls' arguments and return values.  Each
wrapper is bound under every name the package imports the function by, so
calls between modules are traced too.  ``uninstall`` puts the originals back.

Spans stay in memory until the run ends.  Every workload runs in one process
(``workers`` is 1), so no span is recorded in a pool worker.
"""

from __future__ import annotations

import functools
import itertools
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# (module, attribute, span name); the module is the span's layer
TARGETS = (
    ("runner", "run_simulate", "runner.run_simulate"),
    ("runner", "run_verify", "runner.run_verify"),
    ("runner", "_execute", "runner.execute"),
    ("runner", "_run_chunk", "runner.run_chunk"),
    ("runner", "_summarize", "runner.summarize"),
    ("runner", "write_json", "runner.write_json"),
    ("engine", "simulate_ensemble", "engine.simulate_ensemble"),
    ("engine", "simulate_trajectory", "engine.simulate_trajectory"),
    ("engine", "mc_drift_estimate", "engine.mc_drift_estimate"),
    ("engine", "e_poly_drift", "engine.e_poly_drift"),
    ("engine", "log_e_drift_components", "engine.log_e_drift_components"),
    ("rng", "trajectory_generator", "rng.trajectory_generator"),
    ("collisions", "EnsembleCollector.update", "collisions.update"),
    ("collisions", "EnsembleCollector.finalize", "collisions.finalize"),
    ("collisions", "detect_collision_events", "collisions.detect"),
    ("collisions", "fit_box_dimension", "collisions.fit_box_dimension"),
    ("sympoly", "elementary", "sympoly.elementary"),
    ("sympoly", "residual_e_form2", "sympoly.residual_e_form2"),
    ("sympoly", "residual_reflection_identities", "sympoly.residual_reflection"),
    ("models", "dimension_bound_predictor", "models.predictor"),
    ("models", "make_preset", "models.make_preset"),
    ("config", "parse_config", "config.parse_config"),
    ("besq", "besq_exact_transition", "besq.transition"),
    ("besq", "besq_hit_probability", "besq.hit_probability"),
)
LAYERS = ("engine", "rng", "collisions", "sympoly", "models", "runner",
          "config", "besq")
NOISE_BLOCK = 2048  # rows per noise block in weylgas.engine


class _TimedGenerator:
    """A numpy Generator whose ``standard_normal`` draws are spans."""

    def __init__(self, gen, tracer):
        self._gen = gen
        self.standard_normal = tracer._wrap("rng.standard_normal",
                                            gen.standard_normal)

    def __getattr__(self, attr):
        return getattr(self._gen, attr)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.peaks: dict = {}
        self._stack: list = []
        self._ids = itertools.count()
        self._undo: list = []

    # ----- recording -----

    def _wrap(self, name, fn, after=None, label=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = next(tracer._ids)
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(sid)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer._stack.pop()
                full = name + label(args, kwargs) if label else name
                tracer.spans.append((sid, parent, full, t0, t1))
            if after:
                after(args, kwargs, out)
            return out

        return wrapper

    def _peak(self, key, value):
        self.peaks[key] = max(self.peaks.get(key, 0.0), value)

    def _after_ensemble(self, args, kwargs, res):
        n = res.accepted_steps + res.rejected_steps
        P, N = res.final_states.shape
        c = self.counts
        c["engine.calls"] += 1
        c["engine.path_steps"] += int(n.sum())
        c["engine.rejected"] += int(res.rejected_steps.sum())
        c["engine.iterations"] += int(n.max()) if P else 0
        c["engine.lane_slots"] += P * (int(n.max()) if P else 0)
        c["engine.stuck"] += int(res.stuck_flags.sum())
        c["engine.exploded"] += int(res.lifetime_flags.sum())
        # each path draws one block up front and one more per NOISE_BLOCK
        # proposals; each proposal consumes one row of N normals
        blocks = np.maximum(1, -(-n // NOISE_BLOCK))
        c["rng.normals_drawn"] += int(blocks.sum()) * NOISE_BLOCK * N
        c["rng.normals_used"] += int(n.sum()) * N
        self._peak("rng.noise_block_mb", P * NOISE_BLOCK * N * 8 / 1e6)
        collector = kwargs.get("collector")
        if collector is not None:
            boxes = sum(int(np.ceil(collector.T / s)) for s in collector.scales)
            self._peak("collisions.occupancy_mb", collector.P * boxes / 1e6)

    def _after_update(self, args, kwargs, out):
        collector, t_new, proj_new, path_idx = args[:4]
        wmin = (proj_new / collector.weights).min(axis=1)
        self.counts["collisions.update_rows"] += len(path_idx)
        self.counts["collisions.near_wall_rows"] += int(
            (wmin < max(collector.eps_list)).sum())

    def _after_detect(self, args, kwargs, out):
        self.counts["collisions.detect_samples"] += len(args[0].times)

    # ----- installing -----

    def install(self):
        import weylgas

        modules = [m for k, m in sys.modules.items()
                   if k == "weylgas" or k.startswith("weylgas.")]
        after = {
            "engine.simulate_ensemble": self._after_ensemble,
            "collisions.update": self._after_update,
            "collisions.detect": self._after_detect,
        }
        label = {"runner.run_verify":
                 lambda a, k: "." + (a[0] if a else k.get("scope", "all"))}
        for mod_name, attr, name in TARGETS:
            owner = getattr(weylgas, mod_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._set(cls, meth, self._wrap(name, orig, after.get(name)))
                continue
            orig = getattr(owner, attr)
            wrapped = self._wrap(name, orig, after.get(name), label.get(name))
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._set(m, key, wrapped)
        gen = weylgas.engine.trajectory_generator
        self._set(weylgas.engine, "trajectory_generator",
                  functools.wraps(gen)(
                      lambda *a, **k: _TimedGenerator(gen(*a, **k), self)))

    def _set(self, owner, key, value):
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self):
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()


def _union_length(intervals) -> float:
    total, end = 0.0, -np.inf
    for a, b in sorted(intervals):
        if b > end:
            total += b - max(a, end)
            end = b
    return total


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced operation.

    A span's self time is its duration minus the union of its child spans'
    intervals; a layer's self time sums that over the layer's spans.
    """
    spans, counts, peaks = tracer.spans, tracer.counts, tracer.peaks
    dur = defaultdict(float)
    calls = Counter()
    kids = defaultdict(list)
    for sid, parent, name, t0, t1 in spans:
        dur[name] += t1 - t0
        calls[name] += 1
        kids[parent].append((t0, t1))
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for sid, parent, name, t0, t1 in spans:
        inner = [(max(a, t0), min(b, t1)) for a, b in kids[sid]]
        layer_self[name.split(".")[0]] += (t1 - t0) - _union_length(inner)

    steps = counts["engine.path_steps"]
    m = {
        "engine.path_steps": steps,
        "engine.iterations": counts["engine.iterations"],
        "engine.lane_utilization": steps / max(1, counts["engine.lane_slots"]),
        "engine.reject_ratio": counts["engine.rejected"] / max(1, steps),
        "engine.mc_drift_s": dur["engine.mc_drift_estimate"],
        "rng.noise_s": dur["rng.standard_normal"],
        "rng.key_s": dur["rng.trajectory_generator"],
        "rng.noise_used_ratio":
            counts["rng.normals_used"] / max(1, counts["rng.normals_drawn"]),
        "rng.noise_block_mb": peaks.get("rng.noise_block_mb", 0.0),
        "collisions.update_s": dur["collisions.update"],
        "collisions.update_rows": counts["collisions.update_rows"],
        "collisions.rows_near_wall_ratio":
            counts["collisions.near_wall_rows"] / max(1, counts["collisions.update_rows"]),
        "collisions.occupancy_mb": peaks.get("collisions.occupancy_mb", 0.0),
        "collisions.detect_s": dur["collisions.detect"],
        "collisions.detect_samples": counts["collisions.detect_samples"],
        "sympoly.elementary_calls": calls["sympoly.elementary"],
        "sympoly.elementary_s": dur["sympoly.elementary"],
        "models.predictor_s": dur["models.predictor"],
        "runner.execute_s": dur["runner.execute"],
        "runner.chunk_busy_s": dur["runner.run_chunk"],
        "runner.summarize_s": dur["runner.summarize"],
        "runner.write_s": dur["runner.write_json"],
        "runner.verify_algebra_s": dur["runner.run_verify.algebra"],
        "runner.verify_drift_s": dur["runner.run_verify.drift"],
        "runner.verify_oracle_s": dur["runner.run_verify.oracle"],
        "config.parse_s": dur["config.parse_config"],
        "config.parse_calls": calls["config.parse_config"],
        "besq.transition_s": dur["besq.transition"],
        "trace.spans": len(spans),
    }
    m.update({f"{layer}.self_s": t for layer, t in layer_self.items()})

    return m
