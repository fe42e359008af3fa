"""End-to-end acceptance suite.

Each test exercises one advertised guarantee of the package, from exact
algebraic identities through scaled-down statistical checks of the
dimension and collision theory to bit-level reproducibility.  Statistical
tests use fixed seeds and tolerances stated inline; they are scaled for a
single desktop core.
"""

import itertools
import json
import time

import numpy as np
import pytest
from scipy import stats

from weylgas.besq import (BesqSpec, besq_exact_transition,
                          besq_hit_probability)
from weylgas.collisions import EnsembleCollector, fit_box_dimension
from weylgas.config import parse_config
from weylgas.engine import (StepPolicy, e_poly_drift, log_e_drift_components,
                            mc_drift_estimate, simulate_ensemble)
from weylgas.models import chamber_grid, make_preset, wishart_param_map
from weylgas.roots import build_root_system, reflect
from weylgas.runner import run_simulate
from weylgas.sympoly import (elementary, elementary_excluding,
                             elementary_rows, residual_e_form2,
                             residual_reflection_identities)

RANK5_SYSTEMS = [("A", n) for n in range(2, 7)] + \
                [("B", n) for n in range(2, 6)] + \
                [("D", n) for n in range(3, 6)]


# ---------------------------------------------------------------------------
# 1. algebraic identity suite
# ---------------------------------------------------------------------------


def test_acceptance_01_algebraic_identities():
    """Both polynomial identities vanish exactly in rational arithmetic on
    1000 random integer inputs per rank <= 5 system, and the floating-point
    residual is <= 1e-9 relative; the whole suite runs in under 2 minutes.
    """
    t0 = time.monotonic()
    rng = np.random.default_rng(101)
    for family, N in RANK5_SYSTEMS:
        R = build_root_system(family, N)
        pm = R.positive_matrix
        pairs = [(ai, bi) for ai, bi in itertools.permutations(range(R.M), 2)
                 if pm[ai] @ pm[bi] != 0]
        if R.M < 2:  # A_1 has a single positive root: nothing to exclude
            continue
        for _ in range(1000):
            sq = [int(v) for v in rng.integers(1, 100, size=R.M)]
            n = int(rng.integers(1, R.M + 1))
            i, j = (int(v) for v in rng.choice(R.M, size=2, replace=False))
            assert residual_e_form2(sq, n, i, j) == 0

            x = [int(v) for v in rng.integers(-30, 30, size=N)]
            ai, bi = pairs[rng.integers(len(pairs))]
            r1, r2 = residual_reflection_identities(
                x, R.positive_roots[ai], R.positive_roots[bi], R)
            assert r1 == 0 and r2 == 0

    # floating-point residuals stay at rounding level relative to the terms
    for _ in range(1000):
        vals = list(rng.uniform(0.05, 20.0, size=8))
        n = int(rng.integers(1, 9))
        i, j = (int(v) for v in rng.choice(8, size=2, replace=False))
        res = residual_e_form2(vals, n, i, j)
        # relative to the size of the products being cancelled
        scale = abs(elementary(vals, n) *
                    elementary_excluding(vals, n - 2, (i, j))) + 1.0
        assert abs(res) <= 1e-9 * scale
    assert time.monotonic() - t0 < 120.0


# ---------------------------------------------------------------------------
# 2. root-system suite
# ---------------------------------------------------------------------------


def test_acceptance_02_root_system_axioms():
    """Closure, reducedness, S1/S2, and the A-family count, exhaustively
    for every supported system of rank <= 5.
    """
    for family, N in RANK5_SYSTEMS:
        R = build_root_system(family, N)
        full = set(R.roots)
        for y in R.roots:
            for z in R.roots:
                assert tuple(reflect(y, z)) in full  # closure
            assert tuple(2 * v for v in y) not in full  # reduced
        # S1: float solve, rounded, checked exactly in integers
        simple, positive = np.array(R.simple_roots).T, np.array(R.positive_roots).T
        coeffs = np.rint(np.linalg.lstsq(simple, positive, rcond=None)[0]).astype(np.int64)
        assert np.array_equal(simple @ coeffs, positive) and np.all(coeffs >= 0)
        for a, b in itertools.combinations(R.simple_roots, 2):  # S2
            assert sum(u * v for u, v in zip(a, b)) <= 0
        if family == "A":
            assert R.M == N * (N - 1) // 2


# ---------------------------------------------------------------------------
# 3. Dyson dimension curve
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("k", [0.1, 0.25, 0.4])
def test_acceptance_03_dyson_dimension_curve(k):
    """Pooled box-counting dimension of the collision-time set is within
    +/- 0.12 of 1/2 - k for three sub-critical couplings (N = 3, T = 5,
    dt_max = 1e-4, 500 paths per point).
    """
    R = build_root_system("A", 3)
    model = make_preset("dyson", R, k=k)
    T, n_paths = 5.0, 500
    scales = [T / 2**j for j in range(3, 12)]
    col = EnsembleCollector(R, None, n_paths, T, eps_list=[1e-3],
                            dim_eps=1e-3, scales=scales)
    simulate_ensemble(model, R, 0.5 * (np.arange(3) - 1.0), T,
                      StepPolicy(dt_max=1e-4), master_seed=300 + int(k * 100),
                      n_paths=n_paths, collector=col)
    col.finalize()
    est = col.pooled_dimension()
    target = 0.5 - k
    assert est.value == pytest.approx(target, abs=0.12), \
        f"k={k}: estimated {est.value:.3f} +/- {est.stderr:.3f}, target {target}"


# ---------------------------------------------------------------------------
# 4. no-collision regimes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("k", [0.5, 1.0])
def test_acceptance_04_no_collision_regimes(k):
    """At and above the critical coupling no trajectory out of 10^3
    approaches the chamber wall below eps = 1e-4 over T = 5.
    """
    R = build_root_system("A", 3)
    model = make_preset("dyson", R, k=k)
    T, n_paths = 5.0, 1000
    col = EnsembleCollector(R, None, n_paths, T, eps_list=[1e-4],
                            dim_eps=1e-4, scales=[T / 8, T / 16])
    simulate_ensemble(model, R, 8.0 * (np.arange(3) - 1.0), T,
                      StepPolicy(dt_max=1e-3), master_seed=400,
                      n_paths=n_paths, collector=col)
    col.finalize()
    assert col.event_rates(1e-4)["any"] <= 0.01


# ---------------------------------------------------------------------------
# 5. simplicity of collisions
# ---------------------------------------------------------------------------


def test_acceptance_05_collisions_are_simple():
    """Order->=2 event rates decrease with eps and are <= 1% at the finest
    threshold while order-1 events remain common (rate >= 50%).
    """
    R = build_root_system("A", 3)
    model = make_preset("dyson", R, k=0.1)
    T, n_paths = 1.0, 200
    eps_grid = [1e-2, 1e-3, 1e-4]
    col = EnsembleCollector(R, None, n_paths, T, eps_list=eps_grid,
                            dim_eps=1e-3, scales=[T / 8, T / 16])
    simulate_ensemble(model, R, 0.5 * (np.arange(3) - 1.0), T,
                      StepPolicy(dt_max=1e-4), master_seed=500,
                      n_paths=n_paths, collector=col)
    col.finalize()
    r2 = [col.event_rates(e)["order2"] for e in eps_grid]
    assert r2[0] >= r2[1] >= r2[2]
    assert r2[-1] <= 0.01
    assert col.event_rates(1e-2)["order1"] >= 0.5


# ---------------------------------------------------------------------------
# 6. Bessel-B two-parameter law
# ---------------------------------------------------------------------------


def _bessel_b_ensemble(k1, k2, master_seed, n_paths=150):
    R = build_root_system("B", 2)
    model = make_preset("bessel_b", R, k1=k1, k2=k2)
    T = 5.0
    scales = [T / 2**j for j in range(3, 12)]
    col = EnsembleCollector(R, None, n_paths, T, eps_list=[1e-3],
                            dim_eps=1e-3, scales=scales)
    simulate_ensemble(model, R, np.array([0.3, 0.8]), T,
                      StepPolicy(dt_max=1e-4), master_seed=master_seed,
                      n_paths=n_paths, collector=col)
    col.finalize()
    return R, col


@pytest.mark.parametrize("k1,k2", [(0.1, 0.4), (0.4, 0.1)])
def test_acceptance_06_bessel_b_dimension(k1, k2):
    """The collision-set dimension depends on the two couplings only
    through 1/2 - min(k1, k2), to within +/- 0.12.
    """
    _, col = _bessel_b_ensemble(k1, k2, master_seed=600 + int(10 * k1))
    est = col.pooled_dimension()
    target = 0.5 - min(k1, k2)
    assert est.value == pytest.approx(target, abs=0.12), \
        f"(k1,k2)=({k1},{k2}): estimated {est.value:.3f}, target {target}"


def test_acceptance_06_bessel_b_wall_dichotomy():
    """With k1 < 1/2 <= k2 only the origin wall is hit: the short root e1
    is the deepest projection at >= 95% of events, and the dimension
    still follows 1/2 - k1.
    """
    R, col = _bessel_b_ensemble(0.1, 0.6, master_seed=660)
    e1 = R.positive_roots.index((1, 0))
    assert col.argmin_fraction(1e-3, e1) >= 0.95
    assert col.pooled_dimension().value == pytest.approx(0.4, abs=0.12)


# ---------------------------------------------------------------------------
# 7. Wishart consistency
# ---------------------------------------------------------------------------


def test_acceptance_07_wishart_consistency():
    """Squaring a Bessel-B ensemble reproduces the Wishart dynamics with
    the mapped parameters: two-sample KS distance of the largest
    coordinate at t = 1 below 0.05 with 10^4 paths each.
    """
    k1, k2, N = 0.75, 0.5, 3
    kappa, a = wishart_param_map(k1, k2, N)
    assert (kappa, a) == (pytest.approx(1.0), pytest.approx(4.5))

    n_paths, T = 10_000, 1.0
    pol = StepPolicy(dt_max=2.5e-4)
    x0 = np.array([0.5, 1.0, 1.5])

    RB = build_root_system("B", N)
    bessel = make_preset("bessel_b", RB, k1=k1, k2=k2)
    res_b = simulate_ensemble(bessel, RB, x0, T, pol, master_seed=700,
                              n_paths=n_paths)

    RA = build_root_system("A", N)
    wishart = make_preset("wishart", RA, kappa=kappa, a=a)
    res_w = simulate_ensemble(wishart, RA, x0**2, T, pol, master_seed=701,
                              n_paths=n_paths)

    top_b = np.max(res_b.final_states**2, axis=1)
    top_w = np.max(res_w.final_states, axis=1)
    d = stats.ks_2samp(top_b, top_w).statistic
    assert d < 0.05, f"KS distance {d:.4f}"


# ---------------------------------------------------------------------------
# 8. BESQ oracle self-validation
# ---------------------------------------------------------------------------


def test_acceptance_08_besq_oracle():
    """Exact-transition additivity, the closed-form hitting probability
    against a fine absorbing Euler scheme, and the zero-set dimension of
    BESQ(1) estimated at 0.5 +/- 0.1 from pooled box counts.
    """
    n = 100_000
    a = besq_exact_transition(BesqSpec(1.3, 0.6), 0.8, size=n, seed=80)
    b = besq_exact_transition(BesqSpec(1.1, 0.9), 0.8, size=n, seed=81)
    c = besq_exact_transition(BesqSpec(2.4, 1.5), 0.8, size=n, seed=82)
    assert stats.ks_2samp(a + b, c).statistic < 0.01

    spec = BesqSpec(delta=1.0, x0=1.0)
    p_exact = besq_hit_probability(spec, 1.0)
    rng = np.random.default_rng(83)
    paths, steps = 40_000, 4000
    dt = 1.0 / steps
    x = np.full(paths, spec.x0)
    hit = np.zeros(paths, dtype=bool)
    for _ in range(steps):
        x = x + spec.delta * dt + 2.0 * np.sqrt(np.maximum(x, 0.0)) * \
            rng.normal(0.0, np.sqrt(dt), size=paths)
        hit |= x <= 0.0
        x = np.maximum(x, 0.0)
    se = np.sqrt(p_exact * (1 - p_exact) / paths)
    assert abs(hit.mean() - p_exact) <= 3.0 * se + 0.02

    # zero set of BESQ(1) = zero set of a Brownian motion; pool box counts
    # over an ensemble because a single path's zeros cluster near the start
    rng = np.random.default_rng(84)
    n_paths, n_steps, T = 64, 2**15, 1.0
    dt = T / n_steps
    eps = np.sqrt(dt)
    w = np.cumsum(rng.normal(0.0, np.sqrt(dt), size=(n_paths, n_steps)), axis=1)
    t_axis = dt * np.arange(1, n_steps + 1)
    scales = [T / 2**j for j in range(3, 11)]
    counts = {}
    for s in scales:
        nb = int(np.ceil(T / s))
        occ = np.zeros((n_paths, nb), dtype=bool)
        for p in range(n_paths):
            tz = t_axis[np.abs(w[p]) < eps]
            occ[p, np.minimum((tz / s).astype(int), nb - 1)] = True
        counts[s] = int(occ.sum())
    est = fit_box_dimension(counts)
    assert est.value == pytest.approx(0.5, abs=0.1), f"estimated {est.value:.3f}"


# ---------------------------------------------------------------------------
# 9. drift diagnostics
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("preset,params,family,N", [
    ("dyson", {"k": 0.45}, "A", 3),
    ("bessel_b", {"k1": 0.7, "k2": 0.55}, "B", 2),
])
def test_acceptance_09_drift_diagnostics(preset, params, family, N):
    """Closed-form drifts of e_n and -log e_n match antithetic Monte Carlo
    finite differences within 3 standard errors at 5 random interior
    states; the dissipation component A5 is never positive.
    """
    R = build_root_system(family, N)
    model = make_preset(preset, R, **params)
    states = chamber_grid(R, 5, scale=1.5, seed=90)
    assert len(states) == 5
    for si, x in enumerate(states):
        for n in range(1, R.M + 1):
            closed = e_poly_drift(x, model, R, None, n)
            mc, se = mc_drift_estimate(
                x, model, R,
                lambda y: elementary_rows((y @ R.positive_matrix.T) ** 2, n)[..., n],
                h=1e-6, n_samples=50_000, seed=90 + 13 * si + n)
            assert abs(closed - mc) <= 3.0 * max(se, 1e-10)

            comps = log_e_drift_components(x, model, R, None, n)
            assert comps[4] <= 0.0
            mc2, se2 = mc_drift_estimate(
                x, model, R,
                lambda y: -np.log(
                    elementary_rows((y @ R.positive_matrix.T) ** 2, n)[..., n]),
                h=1e-6, n_samples=50_000, seed=900 + 13 * si + n)
            assert abs(comps.sum() - mc2) <= 3.0 * max(se2, 1e-10)


# ---------------------------------------------------------------------------
# 10. reproducibility
# ---------------------------------------------------------------------------


def test_acceptance_10_reproducibility(tmp_path):
    """Re-executing a run from its manifest yields a byte-identical
    summary.json at any worker count.
    """
    doc = {
        "family": "A", "N": 3, "preset": "dyson", "k": 0.3,
        "T": 0.5, "ensemble": 10, "seed": 1000,
        "x0": {"mode": "equispaced", "spacing": 0.5},
        "policy": {"dt_max": 1e-3},
        "eps_grid": [1e-1, 1e-2],
        "scales": {"j_min": 2, "n_scales": 5},
    }
    base = tmp_path / "base"
    run_simulate(parse_config(doc), out_dir=base, workers=1)
    blob = (base / "summary.json").read_bytes()
    assert json.loads(blob)["seed"] == 1000
    manifest = json.loads((base / "manifest.json").read_text())
    for workers in (2, 3):
        again = tmp_path / f"w{workers}"
        run_simulate(parse_config(manifest["config"]), out_dir=again,
                     workers=workers)
        assert (again / "summary.json").read_bytes() == blob
