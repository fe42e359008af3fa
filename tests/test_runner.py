import json
import os
import platform
import shutil
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy
from click.testing import CliRunner

import weylgas.besq as besq
import weylgas.collisions as collisions
import weylgas.runner as runner
from weylgas.besq import BesqSpec, besq_exact_transition
from weylgas.cli import main
from weylgas.config import parse_config
from weylgas.runner import (config_digest, reanalyze_dimension, run_simulate,
                            run_sweep, run_verify, write_json)

SMALL_DOC = {
    "family": "A",
    "N": 2,
    "preset": "dyson",
    "k": 0.2,
    "T": 0.5,
    "ensemble": 12,
    "seed": 7,
    "x0": {"mode": "equispaced", "spacing": 0.4},
    "policy": {"dt_max": 1e-3},
    "eps_grid": [1e-1, 1e-2],
    "scales": {"j_min": 2, "n_scales": 5},
}


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    manifest = run_simulate(parse_config(dict(SMALL_DOC)), out_dir=out)
    return out, manifest


def test_run_directory_artifacts(small_run):
    out, manifest = small_run
    for name in ("summary.json", "events.json", "dimension.json", "manifest.json"):
        assert (out / name).is_file()
        assert name in manifest["artifacts"]
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config_digest"] == config_digest(SMALL_DOC)
    assert summary["ensemble"] == 12
    assert set(summary["event_rates"]) == {"0.1", "0.01"}
    assert 0.0 <= summary["dimension"]["value"] <= 1.0
    assert summary["predictor"]["upper"] == pytest.approx(0.3)
    assert summary["paths"]["exploded"] == 0


def _per_path(per):
    """Path p's [t_in, t_out] pairs from the flat layout of events.json."""
    off = per["offsets"]
    return [[list(iv) for iv in zip(per["t_in"][a:b], per["t_out"][a:b])]
            for a, b in zip(off[:-1], off[1:])]


def test_events_json_structure(small_run):
    out, _ = small_run
    text = (out / "events.json").read_text()
    assert "\n" not in text.rstrip("\n") and ", " not in text  # compact
    ev = json.loads(text)
    per = ev["per_eps"]["0.1"]
    assert len(per["order1_counts"]) == 12
    assert "intervals" not in per
    off = per["offsets"]
    assert len(off) == 13 and off[0] == 0 and off == sorted(off)
    assert len(per["t_in"]) == len(per["t_out"]) == off[-1] > 0
    assert per["dropped_intervals"] == 0
    # intervals lie inside the horizon
    for path_ivs in _per_path(per):
        for a, b in path_ivs:
            assert 0.0 <= a <= b <= 0.5 + 1e-9


def test_events_json_holds_the_collector_intervals(small_run):
    """The flat arrays hold exactly the collector's per-path intervals, and
    the other run files keep their indented layout."""
    out, _ = small_run
    cfg = parse_config(dict(SMALL_DOC))
    merged = runner._execute(cfg)
    per_eps = json.loads((out / "events.json").read_text())["per_eps"]
    for eps in cfg.eps_grid:
        assert _per_path(per_eps[f"{eps:g}"]) == [
            [list(iv) for iv in ivs] for ivs in merged["intervals"][eps]]
    for name in ("summary.json", "dimension.json", "manifest.json"):
        assert (out / name).read_text().startswith('{\n "')


def test_reanalyze_reads_nested_events_layout(small_run, tmp_path):
    """A run directory whose events.json has the earlier nested layout (one
    list of [t_in, t_out] pairs per path) reanalyzes to the same result."""
    out, _ = small_run
    old = tmp_path / "nested"
    shutil.copytree(out, old)
    ev = json.loads((out / "events.json").read_text())
    for per in ev["per_eps"].values():
        per["intervals"] = _per_path(per)
        for key in ("t_in", "t_out", "offsets"):
            del per[key]
    (old / "events.json").write_text(json.dumps(ev, sort_keys=True, indent=1) + "\n")
    for eps, scales in ((0.01, [0.25, 0.125, 0.0625]), (0.1, None)):
        assert reanalyze_dimension(old, eps=eps, scales=scales) == \
            reanalyze_dimension(out, eps=eps, scales=scales)
    assert ((old / "dimension_reanalysis.json").read_bytes()
            == (out / "dimension_reanalysis.json").read_bytes())


def test_manifest_records_environment(small_run, tmp_path):
    """manifest.json names the interpreter, libraries and host; summary.json
    bytes do not depend on it."""
    out, manifest = small_run
    env = json.loads((out / "manifest.json").read_text())["environment"]
    assert env == manifest["environment"]
    assert env["python"] == platform.python_version()
    assert env["numpy"] == np.__version__ and env["scipy"] == scipy.__version__
    assert env["platform"] == platform.platform()
    assert env["cpu_count"] == os.cpu_count()
    run_simulate(parse_config(dict(SMALL_DOC)), out_dir=tmp_path / "again")
    assert (tmp_path / "again" / "summary.json").read_bytes() == \
        (out / "summary.json").read_bytes()


def test_manifest_lists_the_files_the_run_writes(small_run, tmp_path):
    """A run into a directory that holds other files (here a reanalysis and
    a note) lists only the files it writes."""
    out = tmp_path / "rerun"
    shutil.copytree(small_run[0], out)
    reanalyze_dimension(out)
    (out / "notes.txt").write_text("kept\n")
    manifest = run_simulate(parse_config(dict(SMALL_DOC)), out_dir=out)
    written = ["dimension.json", "events.json", "manifest.json", "summary.json"]
    assert manifest["artifacts"] == written
    assert json.loads((out / "manifest.json").read_text())["artifacts"] == written


def test_import_loads_no_scipy_special_stats_or_process_pool():
    """``import weylgas`` (and its CLI) leaves scipy.special, scipy.stats and
    the process pool to the functions that use them, and ``parse_config``
    and ``besq_hit_probability`` load neither jsonschema nor scipy.special.
    Checked in a fresh interpreter, because this test process has imported
    them already."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = (f"import sys, weylgas, weylgas.cli; weylgas.parse_config({SMALL_DOC!r}); "
            "weylgas.besq_hit_probability(weylgas.BesqSpec(1.0, 1.0), 1.0); "
            "print(sorted(m for m in ('scipy.special', 'scipy.stats', "
            "'concurrent.futures.process', 'jsonschema') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert proc.stdout.strip() == "[]"


def test_verify_loads_no_scipy_stats():
    """The BESQ oracle's KS distance is numpy only and its hitting law is
    ``math`` only: ``run_verify("all")`` leaves scipy.stats and scipy.special
    unloaded, in a fresh interpreter."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = ("import sys; from weylgas.runner import run_verify; "
            "r = run_verify('all'); print(r['passed'], 'scipy.stats' in sys.modules, "
            "'scipy.special' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300, check=True)
    assert proc.stdout.strip() == "True False False"


def test_worker_count_invariance(small_run, tmp_path):
    """summary.json, events.json and dimension.json are byte-identical for 1
    and 3 workers, and so are the trajectory CSVs of a recorded run."""
    out1, _ = small_run
    out3 = tmp_path / "w3"
    run_simulate(parse_config(dict(SMALL_DOC)), out_dir=out3, workers=3)
    for name in ("summary.json", "events.json", "dimension.json"):
        assert (out1 / name).read_bytes() == (out3 / name).read_bytes()
    doc = dict(SMALL_DOC, ensemble=5, record_trajectories=True, thin_stride=4)
    for workers in (1, 3):
        run_simulate(parse_config(doc), out_dir=tmp_path / f"rec{workers}", workers=workers)
    files = sorted((tmp_path / "rec1" / "trajectories").iterdir())
    assert len(files) == 5
    for f in files:
        assert f.read_bytes() == (tmp_path / "rec3" / "trajectories" / f.name).read_bytes()


def test_rerun_from_manifest(small_run, tmp_path):
    """The config stored in manifest.json reproduces the run."""
    out, _ = small_run
    out2 = tmp_path / "rerun"
    manifest = json.loads((out / "manifest.json").read_text())
    run_simulate(parse_config(manifest["config"]), out_dir=out2, workers=2)
    assert (out / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()


def test_reanalyze_dimension(small_run):
    out, _ = small_run
    res = reanalyze_dimension(out, eps=0.01, scales=[0.25, 0.125, 0.0625])
    assert (out / "dimension_reanalysis.json").is_file()
    assert res["eps"] == 0.01
    assert set(res["pooled_counts"]) == {"0.25", "0.125", "0.0625"}
    with pytest.raises(ValueError, match="not recorded"):
        reanalyze_dimension(out, eps=0.5)


def test_dropped_intervals_reported(small_run, tmp_path, monkeypatch):
    """Intervals beyond the per-path limit are counted in events.json, left
    out of summary.json, and make reanalyze_dimension warn."""
    out1, _ = small_run
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        reanalyze_dimension(out1, eps=0.1)
    monkeypatch.setattr(collisions, "_MAX_INTERVALS", 1)
    out = tmp_path / "capped"
    run_simulate(parse_config(dict(SMALL_DOC)), out_dir=out)
    full = json.loads((out1 / "events.json").read_text())["per_eps"]
    capped = json.loads((out / "events.json").read_text())["per_eps"]
    for key in ("0.1", "0.01"):
        stored = len(full[key]["t_in"])
        kept = len(capped[key]["t_in"])
        assert all(len(ivs) <= 1 for ivs in _per_path(capped[key]))
        assert capped[key]["dropped_intervals"] == stored - kept
    assert capped["0.1"]["dropped_intervals"] > 0
    assert (out / "summary.json").read_bytes() == (out1 / "summary.json").read_bytes()
    with pytest.warns(RuntimeWarning, match="dropped"):
        reanalyze_dimension(out, eps=0.1)


def test_record_trajectories(tmp_path):
    doc = dict(SMALL_DOC, ensemble=3, record_trajectories=True, thin_stride=5)
    out = tmp_path / "rec"
    manifest = run_simulate(parse_config(doc), out_dir=out)
    assert manifest["artifacts"][-1] == "trajectories/"
    files = sorted((out / "trajectories").iterdir())
    assert [f.name for f in files] == [f"traj_{i:06d}.csv" for i in range(3)]
    header = files[0].read_text().splitlines()[0]
    assert header == "t,x_1,x_2,dt,min_gap"


def test_run_sweep(tmp_path):
    doc = dict(SMALL_DOC, ensemble=6,
               sweep={"parameter": "k", "values": [0.2, 0.6]})
    table = run_sweep(parse_config(doc), out_dir=tmp_path)
    assert len(table["rows"]) == 2
    assert table["rows"][0]["k"] == 0.2
    assert table["rows"][1]["predicted_upper"] == pytest.approx(0.0, abs=1e-12)
    csv_lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert csv_lines[0].startswith("point,k,")
    assert len(csv_lines) == 3


def test_write_json_canonical(tmp_path):
    p = tmp_path / "a.json"
    write_json(p, {"b": np.float64(1.5), "a": np.arange(3), "c": np.bool_(True)})
    text = p.read_text()
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"') < text.index('"c"')
    assert json.loads(text) == {"a": [0, 1, 2], "b": 1.5, "c": True}


def test_write_json_pinned_text(tmp_path):
    """Exact bytes for numpy scalars, int/float/bool arrays, Python bools
    (written as 1/0, like bool arrays) and tuples of floats."""
    p = tmp_path / "doc.json"
    write_json(p, {
        "scalars": [np.float64(0.1), np.float32(0.5), np.int64(-7), np.bool_(True)],
        "ints": np.array([[1, 2], [3, 4]], dtype=np.int64),
        "floats": np.array([1.5, 1e-300]),
        "singles": np.array([0.1], dtype=np.float32),
        "flags": np.array([True, False]),
        "closed_form": True,
        3: {"interval": (0.25, 2.0)},
    })
    assert p.read_text() == (
        '{\n "3": {\n  "interval": [\n   0.25,\n   2.0\n  ]\n },\n'
        ' "closed_form": 1,\n "flags": [\n  1,\n  0\n ],\n'
        ' "floats": [\n  1.5,\n  1e-300\n ],\n'
        ' "ints": [\n  [\n   1,\n   2\n  ],\n  [\n   3,\n   4\n  ]\n ],\n'
        ' "scalars": [\n  0.1,\n  0.5,\n  -7,\n  true\n ],\n'
        ' "singles": [\n  0.10000000149011612\n ]\n}\n'
    )


def test_ks_distance_matches_scipy_statistic():
    """The oracle's KS distance has the bits of scipy's statistic: unequal
    sizes, ties, and samples with an atom at 0.  Above 10,000 draws scipy
    takes its asymptotic mode, as in the oracle; below that it rounds the
    statistic to a multiple of 1/lcm(n1, n2), so the small samples are
    compared with method="asymp"."""
    from scipy.stats import ks_2samp
    rng = np.random.default_rng(11)
    atom = besq_exact_transition(BesqSpec(0.0, 0.3), 0.5, 12_345, rng)
    assert (atom == 0).mean() > 0.5
    pairs = [
        (atom, besq_exact_transition(BesqSpec(0.0, 0.35), 0.5, 10_007, rng)),
        (atom, besq_exact_transition(BesqSpec(1.7, 0.8), 0.5, 20_000, rng)),
        (np.round(atom, 1), np.round(rng.gamma(0.5, 0.3, 15_001), 1)),  # ties
        (np.round(rng.normal(size=30_000), 2), np.round(rng.normal(size=11_111), 2)),
        (np.zeros(10_001), np.zeros(10_002)),
    ]
    for a, b in pairs:
        copies = a.copy(), b.copy()
        assert runner._ks_distance(a, b) == ks_2samp(a, b).statistic
        assert runner._ks_distance(b, a) == ks_2samp(b, a).statistic
        assert np.array_equal(a, copies[0]) and np.array_equal(b, copies[1])
    for na, nb in [(7, 11), (300, 451)]:
        a, b = rng.normal(size=na), np.round(rng.normal(size=nb), 1)
        assert runner._ks_distance(a, b) == ks_2samp(a, b, method="asymp").statistic


def test_run_verify_sections():
    report = run_verify("algebra")
    assert report["passed"]
    assert report["sections"]["algebra"]["failures"] == []
    report = run_verify("drift")
    assert report["passed"]
    report = run_verify("oracle")  # default seed
    assert report["passed"], report["sections"]["oracle"]["failures"]
    with pytest.raises(ValueError):
        run_verify("nope")


def test_oracle_memory_is_bounded():
    """The BESQ oracle holds its 100,000-draw samples (0.8 MB each) and no
    full-size temporaries beside them: under 8 MB of numpy and Python
    allocations."""
    tracemalloc.start()
    try:
        report = run_verify("oracle")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report["passed"]
    assert peak <= 8e6, peak


@pytest.mark.parametrize("shift", [0.01, -0.01])
def test_oracle_hitting_law_detects_a_shifted_law(monkeypatch, shift):
    """The exact hitting-law check fails on a hitting probability 0.01 off."""
    exact = runner.besq_hit_probability
    monkeypatch.setattr(runner, "besq_hit_probability",
                        lambda spec, t: exact(spec, t) + shift)
    section = run_verify("oracle")["sections"]["oracle"]
    assert not section["passed"]
    assert all(f.startswith("hitting law") for f in section["failures"])


def test_oracle_hitting_law_covers_both_gamma_q_branches(monkeypatch):
    """One hitting-law spec takes the series of Q(a, z) (z < a + 1), the
    other its continued fraction (z > a + 1)."""
    calls = []
    gamma_q = besq._gamma_q

    def spy(a, z):
        calls.append(z < a + 1.0)
        return gamma_q(a, z)

    monkeypatch.setattr(besq, "_gamma_q", spy)
    assert run_verify("oracle")["passed"]
    assert sorted(calls) == [False, True]


def test_oracle_variance_check_detects_spread(monkeypatch):
    """A transition sampler with the exact mean and 5% more spread about it
    fails the variance check, and only that check."""
    exact = runner.besq_exact_transition

    def spread(spec, t, size=1, seed=None):
        x = exact(spec, t, size, seed)
        if spec == BesqSpec(1.7, 0.8):
            mean = spec.x0 + spec.delta * t
            x = mean + 1.05 * (x - mean)
        return x

    monkeypatch.setattr(runner, "besq_exact_transition", spread)
    section = run_verify("oracle")["sections"]["oracle"]
    assert [f.split(" off")[0] for f in section["failures"]] == ["transition variance"]


@pytest.mark.parametrize("shift", [0.05, -0.05])
def test_oracle_mean_check_detects_a_shift(monkeypatch, shift):
    """A transition sampler with the exact spread about a mean 0.05 off
    (about 10 standard errors) fails the mean check, and only that check."""
    exact = runner.besq_exact_transition

    def shifted(spec, t, size=1, seed=None):
        x = exact(spec, t, size, seed)
        return x + shift if spec == BesqSpec(1.7, 0.8) else x

    monkeypatch.setattr(runner, "besq_exact_transition", shifted)
    section = run_verify("oracle")["sections"]["oracle"]
    assert [f.split(" off")[0] for f in section["failures"]] == ["transition mean"]


@pytest.mark.parametrize("seed", [17, 95])
def test_oracle_mean_check_shares_the_bound(monkeypatch, seed):
    """At these seeds the sample mean lies 3.0 and 3.1 standard errors off:
    the oracle passes at its one bound of 4, and fails the mean check when
    that bound is lowered to 3."""
    assert run_verify("oracle", seed=seed)["passed"]
    monkeypatch.setattr(runner, "_VERIFY_Z", 3.0)
    failures = run_verify("oracle", seed=seed)["sections"]["oracle"]["failures"]
    assert [f.split(" off")[0] for f in failures] == ["transition mean"]


@pytest.mark.parametrize("seed", [9, 13, 17, 69, 110, 117, 173])
def test_drift_passes_where_a_check_lies_between_3_and_4_se(seed):
    """At these seeds one drift check of a correct program lies 3.06 to
    3.36 standard errors off; the section passes at run_verify's one bound
    of 4 (and failed at its earlier bound of 3).  Seed 83, whose bessel_b
    n=3 log-drift check lies 4.32 off, fails at both."""
    section = run_verify("drift", seed=seed)["sections"]["drift"]
    assert section["passed"], section["failures"]


def test_drift_detects_a_scaled_e_drift(monkeypatch):
    """A closed-form e_n drift 10% too large fails the drift section at the
    default seed, in its e-drift checks only."""
    exact = runner.e_poly_drift
    monkeypatch.setattr(runner, "e_poly_drift", lambda *args: 1.1 * exact(*args))
    section = run_verify("drift")["sections"]["drift"]
    assert not section["passed"]
    assert all(": e-drift " in f for f in section["failures"])


@pytest.mark.parametrize("shift", [0.25, -0.25])
def test_drift_detects_a_shifted_log_drift(monkeypatch, shift):
    """A -log e_n drift 0.25 off fails the drift section at the default
    seed, in its log-drift checks only."""
    exact = runner.log_e_drift_components

    def shifted(*args):
        comps = exact(*args).copy()
        comps[0] += shift
        return comps

    monkeypatch.setattr(runner, "log_e_drift_components", shifted)
    section = run_verify("drift")["sections"]["drift"]
    assert not section["passed"]
    assert all(": log-drift " in f for f in section["failures"])


def test_verify_report_oracle_checks(tmp_path):
    """The oracle reports each hitting-law spec, one on each side of
    x0 / 2t = 2 - delta/2, with ``passed`` of the drift rows' JSON type."""
    write_json(tmp_path / "report.json", run_verify("all"))
    sections = json.loads((tmp_path / "report.json").read_text())["sections"]
    checks = sections["oracle"]["checks"]
    assert sorted(c["x0"] / (2 * c["t"]) < 2 - c["delta"] / 2 for c in checks) == [False, True]
    for c in checks:
        assert set(c) == {"delta", "x0", "t", "p_exact", "p_mc", "stderr", "passed"}
        assert abs(c["p_mc"] - c["p_exact"]) <= 4 * c["stderr"] and c["passed"]
    drift_type = {type(c["passed"]) for c in sections["drift"]["checks"]}
    assert {type(c["passed"]) for c in checks} == drift_type


def test_verify_report_drift_checks_share_one_passed_type(tmp_path):
    """Every drift check writes its ``passed`` with the same JSON type,
    whatever the number of roots of its case."""
    write_json(tmp_path / "report.json", run_verify("drift"))
    checks = json.loads((tmp_path / "report.json").read_text())["sections"]["drift"]["checks"]
    assert {c["preset"] for c in checks} == {"dyson", "bessel_b"}
    assert len({type(c["passed"]) for c in checks}) == 1


# ---------------------------------------------------------------------------
# command line interface
# ---------------------------------------------------------------------------


def _write_cfg(tmp_path, doc):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(doc))
    return p


def test_cli_simulate_and_dimension(tmp_path):
    cfg = _write_cfg(tmp_path, dict(SMALL_DOC, ensemble=4))
    runner = CliRunner()
    out = tmp_path / "run"
    res = runner.invoke(main, ["simulate", str(cfg), "--out", str(out)])
    assert res.exit_code == 0, res.output
    assert (out / "summary.json").is_file()

    per = json.loads((out / "events.json").read_text())["per_eps"]["0.01"]
    assert len(per["offsets"]) == 5 and "intervals" not in per

    res = runner.invoke(main, ["dimension", str(out), "--eps", "0.01"])
    assert res.exit_code == 0, res.output
    assert "slope" in res.output


def test_cli_dimension_rejects_bad_scales(small_run):
    """A zero, negative or unparsable box scale is a configuration error
    (exit code 2), not a traceback or a silent result."""
    out, _ = small_run
    for scales in ("0,0.1", "-0.1", "0.1,x"):
        res = CliRunner().invoke(main, ["dimension", str(out), "--scales", scales])
        assert res.exit_code == 2, (scales, res.output)
    with pytest.raises(ValueError, match="positive"):
        reanalyze_dimension(out, scales=[0.1, -0.05])


def test_cli_config_error_exit_code(tmp_path):
    cfg = _write_cfg(tmp_path, {"family": "A"})
    res = CliRunner().invoke(main, ["simulate", str(cfg)])
    assert res.exit_code == 2
    assert "seed" in res.output
    # a zero horizon and a weight list of the wrong length are configuration
    # errors caught before the run directory is made
    for doc, message in [(dict(SMALL_DOC, T=0), "T: 0"),
                         (dict(SMALL_DOC, N=3, weights=[1.0, 2.0]), "M = 3 values")]:
        cfg, out = _write_cfg(tmp_path, doc), tmp_path / "never"
        res = CliRunner().invoke(main, ["simulate", str(cfg), "--out", str(out)])
        assert res.exit_code == 2 and message in res.output, res.output
        assert not out.exists()


def test_cli_sweep(tmp_path):
    cfg = _write_cfg(tmp_path, dict(
        SMALL_DOC, ensemble=4, sweep={"parameter": "k", "values": [0.3]}))
    out = tmp_path / "sw"
    res = CliRunner().invoke(main, ["sweep", str(cfg), "--out", str(out)])
    assert res.exit_code == 0, res.output
    assert (out / "sweep.csv").is_file()


def test_cli_verify_algebra(tmp_path):
    report = tmp_path / "report.json"
    res = CliRunner().invoke(
        main, ["verify", "--scope", "algebra", "--report", str(report)])
    assert res.exit_code == 0, res.output
    assert json.loads(report.read_text())["passed"]


def test_cli_besq():
    res = CliRunner().invoke(
        main, ["besq", "--delta", "1.0", "--x0", "1.0", "--t", "1.0"])
    assert res.exit_code == 0, res.output
    doc = json.loads(res.output)
    assert doc["hit_probability"] == pytest.approx(0.3173105, abs=1e-6)
    assert doc["zero_set_dimension"] == 0.5
    # x0 / 2t underflows to 0: Q(1/2, 0) = 1
    res = CliRunner().invoke(
        main, ["besq", "--delta", "1", "--x0", "1e-320", "--t", "1e10"])
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["hit_probability"] == 1.0


@pytest.mark.parametrize("delta, x0, t", [
    ("3", "1", "-1"), ("3", "1", "0"), ("3", "1", "nan"), ("1", "1", "-1"),
    ("1", "1", "nan"), ("nan", "1", "1"), ("1", "nan", "1"), ("-1", "1", "1"),
    ("3", "1", "inf"), ("1", "1", "inf"), ("inf", "1", "1"), ("1", "inf", "1"),
    ("1e308", "1", "10"),
])
def test_cli_besq_rejects_invalid_input(delta, x0, t):
    """A time that is not positive and finite, at any delta, a delta or x0
    that is negative, infinite or NaN, and a mean x0 + delta * t that
    overflows exit with code 2 and print no result (JSON has no NaN or
    Infinity)."""
    res = CliRunner().invoke(main, ["besq", "--delta", delta, "--x0", x0, "--t", t])
    assert res.exit_code == 2, res.output
    assert "mean" not in res.output
