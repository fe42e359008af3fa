"""Run orchestration: ensembles, sweeps, verification, and artifacts.

A run directory contains manifest.json (config echo + environment; enough
to re-execute the run), events.json, dimension.json, summary.json, and
optionally thinned trajectory CSVs.  summary.json is serialized
canonically (sorted keys) and is byte-identical across reruns and worker
counts.  events.json is compact JSON with flat t_in/t_out/offsets arrays.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import platform
import time
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from .besq import BesqSpec, besq_exact_transition, besq_hit_probability
from .collisions import (EnsembleCollector, box_counts, fit_box_dimension,
                         path_event_rates)
from .config import ConfigError, RunConfig, parse_config
from .engine import (e_poly_drift, log_e_drift_components, mc_drift_estimate,
                     simulate_ensemble)
from .models import dimension_bound_predictor, make_preset
from .roots import build_root_system, reflect
from .sympoly import (elementary_rows, residual_e_form2,
                      residual_reflection_identities)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_VERIFY = 4


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)  # Python bools are written as 1/0
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.ndarray):  # one tolist() call; bools as 1/0
        return (obj.astype(np.int64) if obj.dtype == bool else obj).tolist()
    return obj


def write_json(path, obj, compact=False):
    """Canonical JSON: sorted keys, fixed separators, trailing newline.
    ``compact`` drops the indent and the spaces, so json's C encoder runs."""
    layout = {"separators": (",", ":")} if compact else {"indent": 1}
    text = json.dumps(_jsonable(obj), sort_keys=True, **layout)
    Path(path).write_text(text + "\n")


def _flat_intervals(per_path: list) -> dict:
    """Per-path interval lists as flat t_in/t_out arrays plus P+1 offsets."""
    flat = np.array([iv for ivs in per_path for iv in ivs], dtype=float).reshape(-1, 2)
    offsets = np.cumsum([0] + [len(ivs) for ivs in per_path])
    return {"t_in": flat[:, 0], "t_out": flat[:, 1], "offsets": offsets}


def config_digest(doc: dict) -> str:
    return hashlib.sha256(
        json.dumps(_jsonable(doc), sort_keys=True).encode()
    ).hexdigest()[:16]


def _run_chunk(cfg: RunConfig, start: int, count: int, seed_extra: tuple,
               record: bool = False) -> dict:
    """Integrate trajectories [start, start+count) and collect statistics.

    Top-level so it can run in a worker process.  The parsed config pickles;
    the model is built here because coefficient callables do not pickle.
    """
    R = cfg.root_system()
    model = cfg.model()
    x0 = cfg.x0_array(R)
    scales = cfg.scale_list()
    collector = EnsembleCollector(
        R, cfg.weights, count, cfg.T, cfg.eps_grid,
        cfg.resolved_dim_eps(), scales,
    )
    res = simulate_ensemble(
        model, R, x0, cfg.T, cfg.policy, cfg.seed, count,
        base_index=start, seed_extra=tuple(seed_extra),
        collector=collector, record=record,
    )
    collector.finalize()
    return {
        "lifetime_flags": res.lifetime_flags,
        "stuck_flags": res.stuck_flags,
        "rejected_steps": res.rejected_steps,
        "accepted_steps": res.accepted_steps,
        "order1": collector.events_order1,
        "order2": collector.events_order2,
        "argmin": collector.argmin_counts,
        "intervals": collector.intervals,
        "dropped": collector.dropped_intervals,
        "box_counts": collector.pooled_counts(),
        "records": res.records or [],  # None when not recorded
    }


def _chunk_bounds(total: int, workers: int) -> list[tuple[int, int]]:
    sizes = [total // workers + (1 if i < total % workers else 0)
             for i in range(workers)]
    bounds, start = [], 0
    for s in sizes:
        if s:
            bounds.append((start, s))
        start += s
    return bounds


def _merge(parts: list):
    """Chunk results in index order as one: arrays and lists concatenate,
    numbers add, dicts merge key by key."""
    head = parts[0]
    if isinstance(head, dict):
        return {k: _merge([p[k] for p in parts]) for k in head}
    if isinstance(head, np.ndarray):
        return np.concatenate(parts)
    if isinstance(head, list):
        return [x for p in parts for x in p]
    return sum(parts)


def _execute(cfg: RunConfig, seed_extra: tuple = (), workers: int = 1,
             record: bool = False) -> dict:
    """Run the full ensemble, merging worker chunks in index order."""
    bounds = _chunk_bounds(cfg.ensemble, max(1, workers))
    if len(bounds) == 1:
        chunks = [_run_chunk(cfg, *bounds[0], seed_extra, record)]
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=len(bounds)) as pool:
            futures = [pool.submit(_run_chunk, cfg, s, c, seed_extra, record)
                       for s, c in bounds]
            chunks = [f.result() for f in futures]
    return _merge(chunks)


def _summarize(cfg: RunConfig, merged: dict) -> dict:
    R = cfg.root_system()
    model = cfg.model()
    estimate = fit_box_dimension(merged["box_counts"])
    bounds = dimension_bound_predictor(model, R)
    P = cfg.ensemble
    event_rates = {f"{eps:g}": path_event_rates(merged["order1"][eps],
                                                merged["order2"][eps])
                   for eps in cfg.eps_grid}
    return {
        "schema_version": 1,
        "config_digest": config_digest(cfg.raw),
        "family": cfg.family,
        "N": cfg.N,
        "preset": cfg.preset,
        "params": cfg.params,
        "T": cfg.T,
        "ensemble": P,
        "seed": cfg.seed,
        "dimension": {
            "value": estimate.value,
            "slope": estimate.slope,
            "stderr": estimate.stderr,
            "scale_window": list(estimate.scale_window),
            "flag": estimate.flag,
            "dim_eps": cfg.resolved_dim_eps(),
            "dim_eps_rule": "0.1 * sqrt(dt_max) unless set explicitly",
        },
        "event_rates": event_rates,
        "predictor": {
            "lower": bounds.lower,
            "upper": bounds.upper,
            "closed_form": bounds.closed_form,
            "note": bounds.note,
        },
        "paths": {
            "exploded": int(merged["lifetime_flags"].sum()),
            "stuck": int(merged["stuck_flags"].sum()),
            "accepted_steps": int(merged["accepted_steps"].sum()),
            "rejected_steps": int(merged["rejected_steps"].sum()),
        },
    }


def _write_trajectories(out: Path, records, R, stride: int):
    tdir = out / "trajectories"
    tdir.mkdir(exist_ok=True)
    pm = R.positive_matrix
    for rec in records:
        with open(tdir / f"traj_{rec.traj_index:06d}.csv", "w", newline="") as fh:
            wtr = csv.writer(fh)
            wtr.writerow(["t"] + [f"x_{i+1}" for i in range(R.N)] + ["dt", "min_gap"])
            dts = np.concatenate([[0.0], rec.step_sizes])
            for i in range(0, len(rec.times), stride):
                gap = float(np.min(pm @ rec.states[i]))
                wtr.writerow([f"{rec.times[i]:.12g}"]
                             + [f"{v:.12g}" for v in rec.states[i]]
                             + [f"{dts[i]:.12g}", f"{gap:.12g}"])


def run_simulate(cfg: RunConfig, out_dir=None, workers=None) -> dict:
    """Run an ensemble and persist the run directory; returns the manifest."""
    workers = workers or cfg.workers
    out = Path(out_dir) if out_dir else default_run_dir(cfg)
    out.mkdir(parents=True, exist_ok=True)

    t0 = time.monotonic()
    merged = _execute(cfg, workers=workers, record=cfg.record_trajectories)
    wall = time.monotonic() - t0

    summary = _summarize(cfg, merged)
    write_json(out / "summary.json", summary)
    write_json(out / "events.json", {
        "eps_grid": list(cfg.eps_grid),
        "dim_eps": cfg.resolved_dim_eps(),
        "per_eps": {
            f"{eps:g}": {
                "order1_counts": merged["order1"][eps],
                "order2_counts": merged["order2"][eps],
                "argmin_counts": merged["argmin"][eps],
                "dropped_intervals": merged["dropped"][eps],
                **_flat_intervals(merged["intervals"][eps]),
            }
            for eps in cfg.eps_grid
        },
    }, compact=True)
    write_json(out / "dimension.json", {
        "dim_eps": cfg.resolved_dim_eps(),
        "scales": cfg.scale_list(),
        "pooled_counts": {f"{s:g}": n for s, n in merged["box_counts"].items()},
        "estimate": summary["dimension"],
        "note": ("box-counting proxy for the Hausdorff dimension; "
                 "threshold defaults to 0.1 * sqrt(dt_max)"),
    })
    if cfg.record_trajectories:
        _write_trajectories(out, merged["records"], cfg.root_system(),
                            cfg.thin_stride)

    import scipy  # only its version is recorded; import weylgas does not load it

    manifest = {
        "config": cfg.raw,
        "version": __version__,
        "seed_scheme": "philox key = sha256(master_seed, trajectory_index)",
        "trajectory_index_range": [0, cfg.ensemble - 1],
        "workers": workers,
        "wall_clock_s": wall,
        "environment": {"python": platform.python_version(), "numpy": np.__version__,
                        "scipy": scipy.__version__, "platform": platform.platform(),
                        "cpu_count": os.cpu_count()},
        "step_stats": summary["paths"],
        "summary": summary,
        # what this run writes, not whatever else the directory holds
        "artifacts": ["dimension.json", "events.json", "manifest.json", "summary.json"]
                     + (["trajectories/"] if cfg.record_trajectories else []),
    }
    write_json(out / "manifest.json", manifest)
    return manifest


def default_run_dir(cfg: RunConfig) -> Path:
    root = cfg.output_dir or os.environ.get("WEYLGAS_OUTPUT_ROOT", "runs")
    return Path(root) / f"run_{config_digest(cfg.raw)}"


def reanalyze_dimension(run_dir, eps=None, scales=None) -> dict:
    """Recompute the box-counting estimate from a persisted run directory.

    ``eps`` must be one of the eps values the run recorded events at (the
    raw min-projection series is not persisted); ``scales`` may be any new
    list of scales within the horizon.
    """
    run_dir = Path(run_dir)
    with open(run_dir / "events.json") as fh:
        events = json.load(fh)
    with open(run_dir / "manifest.json") as fh:
        manifest = json.load(fh)
    cfg = parse_config(manifest["config"])

    available = {f"{e:g}" for e in events["eps_grid"]}
    key = f"{eps:g}" if eps is not None else f"{min(events['eps_grid']):g}"
    if key not in available:
        raise ValueError(
            f"eps {key} was not recorded; available: {sorted(available)}")
    scales = sorted(float(s) for s in (scales or cfg.scale_list()))
    if not all(s > 0 for s in scales):
        raise ValueError(f"box scales must be positive; got {scales}")
    per = events["per_eps"][key]
    dropped = per.get("dropped_intervals", 0)
    if dropped:
        warnings.warn(f"{dropped} intervals at eps {key} were dropped at the "
                      "per-path limit; the box counts miss them", RuntimeWarning)

    if "intervals" in per:  # the earlier nested layout: one list per path
        per = _flat_intervals(per["intervals"])
    path = np.repeat(np.arange(len(per["offsets"]) - 1), np.diff(per["offsets"]))
    total = box_counts(np.column_stack([per["t_in"], per["t_out"]]), scales,
                       cfg.T, path)
    estimate = fit_box_dimension(total)
    result = {
        "eps": float(key),
        "scales": scales,
        "pooled_counts": {f"{s:g}": n for s, n in total.items()},
        "value": estimate.value,
        "slope": estimate.slope,
        "stderr": estimate.stderr,
        "flag": estimate.flag,
    }
    write_json(run_dir / "dimension_reanalysis.json", result)
    return result


def run_sweep(cfg: RunConfig, out_dir=None, workers=None) -> dict:
    """Run the ensemble at every grid point of a one or two parameter sweep."""
    if cfg.sweep is None:
        raise ConfigError(["sweep requires a 'sweep' section in the config"])
    workers = workers or cfg.workers
    out = Path(out_dir) if out_dir else default_run_dir(cfg)
    out.mkdir(parents=True, exist_ok=True)

    p1 = cfg.sweep["parameter"]
    vals1 = cfg.sweep["values"]
    p2 = cfg.sweep.get("parameter2")
    vals2 = cfg.sweep.get("values2", [None])
    points = [(v1, v2) for v1 in vals1 for v2 in vals2]

    rows = []
    for i, (v1, v2) in enumerate(points):
        doc = {k: v for k, v in cfg.raw.items() if k != "sweep"}
        doc[p1] = v1
        if p2 is not None:
            doc[p2] = v2
        point_cfg = parse_config(doc)
        merged = _execute(point_cfg, seed_extra=(i,), workers=workers)
        summary = _summarize(point_cfg, merged)
        finest = f"{min(cfg.eps_grid):g}"
        row = {
            "point": i,
            p1: v1,
            "predicted_lower": summary["predictor"]["lower"],
            "predicted_upper": summary["predictor"]["upper"],
            "estimated_dimension": summary["dimension"]["value"],
            "stderr": summary["dimension"]["stderr"],
            "event_rate_any": summary["event_rates"][finest]["any"],
            "event_rate_order2": summary["event_rates"][finest]["order2"],
        }
        if p2 is not None:
            row[p2] = v2
        rows.append(row)

    fields = ["point", p1] + ([p2] if p2 else []) + [
        "predicted_lower", "predicted_upper", "estimated_dimension",
        "stderr", "event_rate_any", "event_rate_order2",
    ]
    with open(out / "sweep.csv", "w", newline="") as fh:
        wtr = csv.DictWriter(fh, fieldnames=fields)
        wtr.writeheader()
        wtr.writerows(rows)
    table = {"config": cfg.raw, "rows": rows, "version": __version__}
    write_json(out / "sweep.json", table)
    return table


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------


def _verify_algebra(rng: np.random.Generator) -> dict:
    """Exact-identity checks: root closure and polynomial residuals."""
    failures = []
    systems = [("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("D", 3), ("D", 4)]
    for family, N in systems:
        R = build_root_system(family, N)
        full = set(R.roots)
        for y in R.roots:
            for z in R.roots:
                if tuple(reflect(y, z)) not in full:
                    failures.append(f"{family}{N}: closure fails at {y}, {z}")
        sq = [int(v) for v in rng.integers(1, 50, size=R.M)]
        if R.M >= 2:
            for n in range(1, R.M + 1):
                for _ in range(4):
                    i, j = rng.choice(R.M, size=2, replace=False)
                    if residual_e_form2(sq, n, int(i), int(j)) != 0:
                        failures.append(f"{family}{N}: e-identity residual at n={n}")
        x = [int(v) for v in rng.integers(-20, 20, size=N)]
        pm = R.positive_matrix
        for bi, beta in enumerate(R.positive_roots):
            for ai, alpha in enumerate(R.positive_roots):
                if ai == bi or pm[ai] @ pm[bi] == 0:
                    continue
                r1, r2 = residual_reflection_identities(x, alpha, beta, R)
                if r1 != 0 or r2 != 0:
                    failures.append(
                        f"{family}{N}: reflection residual at {alpha}, {beta}")
    return {"passed": not failures, "failures": failures[:20],
            "systems": [f"{f}{n}" for f, n in systems]}


# standard errors at which each sampling check of run_verify fails; a
# correct program exceeds it with probability 6.3e-5 (two-sided normal)
_VERIFY_Z = 4.0


def _verify_drift(rng: np.random.Generator) -> dict:
    """Closed-form drift formulas against the Monte Carlo oracle.

    Ten checks, the e_n drift and the -log e_n drift at each of five
    (preset, n), compare a closed form with a 4,000-draw Monte Carlo mean.
    Each fails beyond ``_VERIFY_Z`` standard errors, so a correct program
    fails this section by chance at most 10 x 6.3e-5 = 6.3e-4 of the time
    (Bonferroni); at 3 standard errors it would be 2.7e-2.
    """
    failures = []
    checks = []
    cases = [
        ("dyson", {"k": 0.6}, "A", 2, np.array([-0.7, 0.7])),
        ("bessel_b", {"k1": 0.8, "k2": 0.6}, "B", 2, np.array([0.6, 1.5])),
    ]
    for preset, params, family, N, x in cases:
        R = build_root_system(family, N)
        model = make_preset(preset, R, **params)
        for n in range(1, R.M + 1):
            def e_n(y):
                return elementary_rows((y @ R.positive_matrix.T) ** 2, n)[..., n]

            drift = e_poly_drift(x, model, R, None, n)
            mc, se = mc_drift_estimate(
                x, model, R, e_n,
                h=1e-6, n_samples=4000, seed=int(rng.integers(2**31)))
            ok = abs(drift - mc) <= _VERIFY_Z * max(se, 1e-12)
            checks.append({"preset": preset, "n": n, "drift": drift,
                           "mc": mc, "stderr": se, "passed": ok})
            if not ok:
                failures.append(f"{preset} n={n}: e-drift {drift:g} vs MC {mc:g}")
            comps = log_e_drift_components(x, model, R, None, n)
            if comps[4] > 0:
                failures.append(f"{preset} n={n}: A5 positive")
            mc2, se2 = mc_drift_estimate(
                x, model, R, lambda y: -np.log(e_n(y)),
                h=1e-6, n_samples=4000, seed=int(rng.integers(2**31)))
            if abs(comps.sum() - mc2) > _VERIFY_Z * max(se2, 1e-12):
                failures.append(
                    f"{preset} n={n}: log-drift {comps.sum():g} vs MC {mc2:g}")
    return {"passed": not failures, "failures": failures, "checks": checks}


def _ks_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov distance sup |F_a - F_b|, the same
    bits as ``scipy.stats.ks_2samp(a, b).statistic`` in its asymptotic
    mode (either sample above 10,000 draws)."""
    a, b = np.sort(a), np.sort(b)
    sup = 0.0
    for pts in (a, b):  # the supremum over each sample's points in turn
        d = np.searchsorted(a, pts, side="right") / a.size
        d -= np.searchsorted(b, pts, side="right") / b.size
        sup = np.maximum(sup, np.abs(d, out=d).max())
    return float(sup)


def _verify_oracle(rng: np.random.Generator) -> dict:
    """BESQ oracle self-checks: moments, additivity, hitting law.

    Four checks compare a sample mean with an exact value: the exact
    transition's mean x0 + delta t and variance 2 delta t^2 + 4 x0 t (its
    standard error from the sample's fourth central moment) and two hitting
    probabilities.  Each fails beyond ``_VERIFY_Z`` standard errors, so a
    correct program fails them by chance at most 4 x 6.3e-5 = 2.5e-4 of
    the time (Bonferroni).  Additivity compares BESQ(d1, x1) + BESQ(d2, x2)
    with BESQ(d1 + d2, x1 + x2) by ``_ks_distance`` (numpy only: no
    ``scipy.stats``), which fails at 0.01 or more.

    The hitting law is checked by the Doob h-transform, an exact identity:
    for 0 < delta < 2 and nu = 1 - delta/2, BESQ(4 - delta) is BESQ(delta)
    conditioned by the harmonic h(x) = x^nu (Revuz & Yor, ch. XI), so
    P(T0 > t) = x0^nu E[X_t^-nu] with X ~ BESQ(4 - delta) from x0, drawn
    exactly.  Nothing is discretized, so the bound needs no bias term.
    (delta, x0, t) = (1, 1, 1) and (1.5, 3, 1) test the series and the
    continued-fraction branch of ``besq._gamma_q``; each is reported in
    ``checks``.  The absorbing-Euler cross-check of the same law lives in
    the test suite.
    """
    failures, checks = [], []
    n = 100_000
    spec, t = BesqSpec(delta=1.7, x0=0.8), 0.5
    draws = besq_exact_transition(spec, t, size=n, seed=rng)
    mean = draws.mean()
    mean_err = abs(mean - (spec.x0 + spec.delta * t))
    if mean_err > _VERIFY_Z * draws.std() / np.sqrt(n):
        failures.append(f"transition mean off by {mean_err:g}")
    draws -= mean
    draws *= draws  # squared deviations
    var = draws.mean()
    var_err = abs(var - (2.0 * spec.delta * t**2 + 4.0 * spec.x0 * t))
    if var_err > _VERIFY_Z * np.sqrt((draws @ draws / n - var**2) / n):
        failures.append(f"transition variance off by {var_err:g}")
    del draws

    s1 = besq_exact_transition(BesqSpec(1.2, 0.3), 0.7, n, rng)
    s1 += besq_exact_transition(BesqSpec(0.9, 0.5), 0.7, n, rng)
    s12 = besq_exact_transition(BesqSpec(2.1, 0.8), 0.7, n, rng)
    ks = _ks_distance(s1, s12)
    if ks >= 0.01:
        failures.append(f"additivity KS {ks:g} >= 0.01")
    del s1, s12

    for delta, x0, t in ((1.0, 1.0, 1.0), (1.5, 3.0, 1.0)):
        nu = 1.0 - delta / 2.0
        p_exact = besq_hit_probability(BesqSpec(delta, x0), t)
        w = besq_exact_transition(BesqSpec(4.0 - delta, x0), t, n, rng)
        w **= -nu
        w *= x0**nu  # unbiased for P(T0 > t)
        p_mc, se = 1.0 - float(w.mean()), float(w.std() / np.sqrt(n))
        ok = abs(p_mc - p_exact) <= _VERIFY_Z * se
        checks.append({"delta": delta, "x0": x0, "t": t, "p_exact": p_exact,
                       "p_mc": p_mc, "stderr": se, "passed": ok})
        if not ok:
            failures.append(f"hitting law at delta={delta:g}: {p_exact:g} vs MC {p_mc:g}")
    return {"passed": not failures, "failures": failures, "checks": checks}


def run_verify(scope: str = "all", seed: int = 20260823) -> dict:
    """Execute the verification suites; report is machine readable.  Its 14
    sampling checks share ``_VERIFY_Z``, so a correct program fails "all" by
    chance at most 14 x 6.3e-5 = 8.9e-4 of the time (Bonferroni)."""
    if scope not in ("algebra", "drift", "oracle", "all"):
        raise ValueError(f"unknown scope {scope!r}")
    rng = np.random.default_rng(seed)
    sections = {}
    if scope in ("algebra", "all"):
        sections["algebra"] = _verify_algebra(rng)
    if scope in ("drift", "all"):
        sections["drift"] = _verify_drift(rng)
    if scope in ("oracle", "all"):
        sections["oracle"] = _verify_oracle(rng)
    passed = all(s["passed"] for s in sections.values())
    return {"scope": scope, "passed": passed, "sections": sections,
            "version": __version__}
