import tracemalloc

import numpy as np
import pytest

import weylgas.engine as engine
from weylgas.collisions import EnsembleCollector, dyadic_scales
from weylgas.engine import (_CHUNK_ROWS, StepPolicy, _propose,
                            boundary_entry_push, e_poly_drift,
                            log_e_drift_components, mc_drift_estimate,
                            simulate_ensemble, simulate_trajectory)
from weylgas.models import make_preset
from weylgas.rng import trajectory_generator
from weylgas.roots import build_root_system, chamber_classify
from weylgas.sympoly import elementary_rows


@pytest.fixture
def dyson2():
    return make_preset("dyson", k=0.5), build_root_system("A", 2)


def test_step_policy_validation():
    with pytest.raises(ValueError):
        StepPolicy(dt_min=0.0)
    with pytest.raises(ValueError):
        StepPolicy(dt_min=1e-2, dt_max=1e-3)


def _propose_one(model, R, x, dt, noise):
    """One Euler-Maruyama step of ``_propose`` from one state: the proposal
    and the inside mask (None when the proposal is inside)."""
    xs = np.array([x], dtype=float)
    prop, *_, ok = _propose(model, R, xs, xs @ R.positive_matrix.T,
                            np.array([dt]), np.array([noise], dtype=float))
    return prop[0], ok


def test_advance_step_hand_value(dyson2):
    model, R = dyson2
    # x = (-1, 1), zero noise, dt = 0.01: drift = k/2 * (-1, 1)
    prop, ok = _propose_one(model, R, [-1.0, 1.0], 0.01, [0.0, 0.0])
    assert ok is None
    assert prop == pytest.approx([-1.0025, 1.0025])


def test_advance_step_rejects_wall_crossing(dyson2):
    model, R = dyson2
    # noise large enough to swap the particles
    _, ok = _propose_one(model, R, [-0.01, 0.01], 1e-2, [5.0, -5.0])
    assert ok.tolist() == [False]


def test_boundary_entry_push(dyson2):
    model, R = dyson2
    x = boundary_entry_push([1.0, 1.0], model, R)
    assert chamber_classify(x, R).region == "interior"
    # already-interior points get pushed further inside, never out
    x2 = boundary_entry_push([-1.0, 1.0], model, R)
    assert chamber_classify(x2, R).region == "interior"
    with pytest.raises(ValueError):
        boundary_entry_push([1.0, -1.0], model, R)


def test_trajectory_basic_contract(dyson2):
    model, R = dyson2
    rec = simulate_trajectory(model, R, [-1.0, 1.0], 0.25, StepPolicy(), seed=5)
    assert rec.times[0] == 0.0
    assert np.all(np.diff(rec.times) > 0)
    assert rec.times[-1] == pytest.approx(0.25, rel=1e-9)
    assert len(rec.times) == len(rec.states)
    assert len(rec.step_sizes) == len(rec.times) - 1
    # chamber preservation at every accepted step
    proj = rec.states @ R.positive_matrix.T
    assert np.all(proj.min(axis=1) > 0)


def test_zero_horizon(dyson2):
    model, R = dyson2
    rec = simulate_trajectory(model, R, [-1.0, 1.0], 0.0, StepPolicy(), seed=5)
    assert len(rec.times) == 1
    assert np.array_equal(rec.states, [[-1.0, 1.0]])


def test_bit_for_bit_determinism(dyson2):
    model, R = dyson2
    pol = StepPolicy()
    a = simulate_trajectory(model, R, [-1.0, 1.0], 0.5, pol, seed=11)
    b = simulate_trajectory(model, R, [-1.0, 1.0], 0.5, pol, seed=11)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.times, b.times)
    c = simulate_trajectory(model, R, [-1.0, 1.0], 0.5, pol, seed=12)
    assert not np.array_equal(a.states, c.states)


def test_ensemble_matches_single_paths(dyson2):
    """Every ensemble member is the corresponding single trajectory."""
    model, R = dyson2
    pol = StepPolicy()
    res = simulate_ensemble(model, R, np.array([-1.0, 1.0]), 0.3, pol,
                            master_seed=3, n_paths=5, record=True)
    for p in (0, 2, 4):
        single = simulate_trajectory(model, R, [-1.0, 1.0], 0.3, pol,
                                     seed=3, traj_index=p)
        assert np.array_equal(res.records[p].states, single.states)


def test_ensemble_chunking_invariance(dyson2):
    model, R = dyson2
    pol = StepPolicy()
    full = simulate_ensemble(model, R, np.array([-1.0, 1.0]), 0.3, pol, 3,
                             n_paths=6)
    lo = simulate_ensemble(model, R, np.array([-1.0, 1.0]), 0.3, pol, 3,
                           n_paths=3, base_index=0)
    hi = simulate_ensemble(model, R, np.array([-1.0, 1.0]), 0.3, pol, 3,
                           n_paths=3, base_index=3)
    assert np.array_equal(full.final_states,
                          np.vstack([lo.final_states, hi.final_states]))


def test_lanes_leaving_mid_run_replay_alone():
    """Paths leave the lock-step loop at different iterations by all three
    routes (horizon, stuck, exploded); every row still matches its own
    record and equals, byte for byte, the same path integrated alone."""
    R = build_root_system("A", 2)
    dyson = make_preset("dyson", k=0.05)
    proposals = []

    def sigma(y):  # called once per proposal batch
        proposals.append(len(y))
        return dyson.sigma(y)

    m = make_preset("custom", sigma=sigma, drift_b=dyson.drift_b,
                    coupling=dyson.coupling)
    x0 = np.array([-0.05, 0.05])
    policy, seed = StepPolicy(dt_max=1e-3, max_rejects=2, explosion_radius=0.5), 1
    res = simulate_ensemble(m, R, x0, 0.1, policy, seed, n_paths=8, record=True)
    done = ~res.stuck_flags & ~res.lifetime_flags
    assert res.stuck_flags.any() and res.lifetime_flags.any() and done.any()
    assert np.all(res.final_times[done] >= 0.1 * (1.0 - 1e-12))
    fields = ("final_states", "final_times", "accepted_steps",
              "rejected_steps", "lifetime_flags", "stuck_flags")
    for p, rec in enumerate(res.records):
        assert np.array_equal(res.final_states[p], rec.states[-1])
        assert res.final_times[p] == rec.times[-1]
        assert res.accepted_steps[p] == len(rec.step_sizes)
        proposals.clear()
        alone = simulate_ensemble(m, R, x0, 0.1, policy, seed, n_paths=1,
                                  base_index=p)
        assert sum(proposals) == alone.accepted_steps[0] + alone.rejected_steps[0]
        for f in fields:
            assert getattr(alone, f)[0].tobytes() == getattr(res, f)[p].tobytes(), (p, f)


def _reference_ensemble(model, R, x0, horizon, policy, seed, P, collector=None):
    """The lock-step loop with per-lane masks in every iteration: projections
    recomputed from the states, every dt clamp applied, masked updates, every
    exit mask built, sigma, b and the coupling evaluated in every proposal
    (no ``unit_k``), and noise drawn one row per lane (interior starts only)."""
    pm = R.positive_matrix
    x = np.broadcast_to(np.asarray(x0, dtype=float), (P, R.N)).copy()
    gens = [trajectory_generator(seed, p) for p in range(P)]
    t, scale = np.zeros(P), np.ones(P)
    n_acc, n_rej = np.zeros(P, dtype=np.int64), np.zeros(P, dtype=np.int64)
    boom, dead = np.zeros(P, dtype=bool), np.zeros(P, dtype=bool)
    recs = [([0.0], [x[p].copy()], []) for p in range(P)]
    g = np.arange(P)
    while g.size:
        noise = np.array([gens[p].standard_normal(R.N) for p in g])
        proj = x[g] @ pm.T
        gap2 = proj.min(1) ** 2
        dt = np.minimum(np.maximum(policy.safety * gap2, policy.dt_min),
                        policy.dt_max)
        dt = np.minimum(dt * scale[g], horizon - t[g])
        prop, prop_proj, *_, ok = _propose(model, R, x[g], proj, dt, noise)
        ok = np.ones(g.size, dtype=bool) if ok is None else ok
        acc, rej = g[ok], g[~ok]
        x[acc], t[acc], scale[acc] = prop[ok], t[acc] + dt[ok], 1.0
        scale[rej] *= 0.5
        n_acc[acc] += 1
        n_rej[rej] += 1
        for l in np.flatnonzero(ok):
            for lst, v in zip(recs[g[l]], (t[g[l]], x[g[l]].copy(), dt[l])):
                lst.append(v)
        if collector is not None and ok.any():
            collector.update(t[acc], prop_proj[ok], acc)
        boom[acc] = np.abs(x[acc]).max(1) > policy.explosion_radius
        dead[rej] = scale[rej] < 0.5**policy.max_rejects
        g = g[~(boom[g] | dead[g] | (t[g] >= horizon * (1.0 - 1e-12)))]
    return (x, t, boom, dead, n_rej, n_acc), recs


def _a3_collector(P, T, cls=EnsembleCollector):
    return cls(build_root_system("A", 3), None, n_paths=P, horizon=T,
               eps_list=[0.05, 0.01], dim_eps=0.02, scales=dyadic_scales(T, 4))


def _assert_equals_reference(model, R, x0, T, policy, seed, P, cols=(None, None)):
    """Outputs, records and collector results of the engine and of
    ``_reference_ensemble`` agree byte for byte; returns the engine's."""
    res = simulate_ensemble(model, R, np.array(x0), T, policy, seed, P,
                            collector=cols[0], record=True)
    ref, recs = _reference_ensemble(model, R, x0, T, policy, seed, P, collector=cols[1])
    fields = ("final_states", "final_times", "lifetime_flags", "stuck_flags",
              "rejected_steps", "accepted_steps")
    for f, want in zip(fields, ref):
        assert getattr(res, f).tobytes() == want.tobytes(), f
    for rec, (times, states, dts) in zip(res.records, recs):
        assert rec.times.tobytes() == np.asarray(times).tobytes()
        assert rec.states.tobytes() == np.asarray(states).tobytes()
        assert rec.step_sizes.tobytes() == np.asarray(dts).tobytes()
    if cols[0] is not None:
        assert res.rejected_steps.sum() > 0
        for c in cols:
            c.finalize()
        for eps in cols[0].eps_list:
            assert np.array_equal(cols[0].events_order1[eps], cols[1].events_order1[eps])
            assert np.array_equal(cols[0].events_order2[eps], cols[1].events_order2[eps])
            assert np.array_equal(cols[0].argmin_counts[eps], cols[1].argmin_counts[eps])
            assert cols[0].intervals[eps] == cols[1].intervals[eps]
        assert cols[0].pooled_counts() == cols[1].pooled_counts()
        assert sum(map(len, cols[0].intervals[0.05])) > 0
    return res


@pytest.mark.parametrize("preset,params,family,N,x0,T,policy,seed,P", [
    ("dyson", {"k": 0.25}, "A", 3, [-0.1, 0.0, 0.1], 0.05, StepPolicy(dt_max=1e-3), 5, 10),
    ("bessel_b", {"k1": 0.5, "k2": 0.6}, "B", 2, [0.05, 0.15], 0.05,
     StepPolicy(dt_max=1e-3), 11, 8),
    ("dyson", {"k": 0.05}, "A", 2, [-0.05, 0.05], 0.1,
     StepPolicy(dt_max=1e-3, max_rejects=2, explosion_radius=0.5), 1, 8),
    ("bessel_general", {"k_values": 0.3}, "A", 3, [-0.1, 0.0, 0.1], 0.05,
     StepPolicy(dt_max=1e-3), 8, 10),
    ("wishart", {"kappa": 1.0, "a": 4.0}, "A", 3, [0.5, 0.55, 0.6], 0.05,
     StepPolicy(dt_max=1e-3), 3, 10),
    # lanes reach this horizon, off the dt_max grid, at iterations 18-2657
    ("dyson", {"k": 0.25}, "A", 3, [-0.1, 0.0, 0.1], 0.0123456,
     StepPolicy(dt_max=1e-3), 6, 10),
    # gaps below sqrt(dt_min / safety) = 0.01 at the start: the dt_min floor
    # binds on some iterations and not on others
    ("dyson", {"k": 0.1}, "A", 3, [-0.004, 0.0, 0.004], 0.02,
     StepPolicy(dt_max=1e-3, dt_min=1e-5), 2, 8),
], ids=["A3-reject-collector", "B2-reject", "three-exits-reject", "A3-bessel-general",
        "A3-wishart", "A3-off-grid-horizon", "A3-dt-floor"])
def test_ensemble_equals_masked_reference_loop(preset, params, family, N, x0, T,
                                               policy, seed, P):
    """The engine's loop (carried projections, all-accept fast update, scalar
    exit tests, skipped no-op dt clamps, constants evaluated once per run)
    gives, byte for byte, the outputs, records and collector results of the
    per-lane masked reference loop, which evaluates sigma, b and the
    coupling in every proposal (wishart takes that branch in both) and
    applies the dt_min floor in every iteration."""
    model, R = make_preset(preset, **params), build_root_system(family, N)
    cols = (_a3_collector(P, T), _a3_collector(P, T)) if family == "A" and N == 3 else (None, None)
    res = _assert_equals_reference(model, R, x0, T, policy, seed, P, cols)
    if policy.dt_min > StepPolicy.dt_min:
        steps = np.concatenate([r.step_sizes for r in res.records])
        assert np.any(steps == policy.dt_min) and np.any(steps > policy.dt_min)


class _ChunkLog(EnsembleCollector):
    """A collector that also keeps the path indices of every update."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.chunks = []

    def update(self, t_new, proj_new, path_idx):
        self.chunks.append(path_idx.copy())
        super().update(t_new, proj_new, path_idx)


def test_chunk_boundaries_equal_reference_and_single_paths(monkeypatch):
    """Rows reach the records and the collector in chunks of at least
    ``_CHUNK_ROWS`` rows (the collector chunk size is set to it here).  Over
    more than three chunks, with lanes leaving and proposals rejected inside
    chunks, the records and collector results are those of the reference
    loop, which feeds one update per iteration, and a path longer than three
    chunks is its own ``simulate_trajectory``."""
    monkeypatch.setattr(engine, "_COLLECTOR_CHUNK_ROWS", _CHUNK_ROWS)
    model, R = make_preset("dyson", k=0.25), build_root_system("A", 3)
    x0, T, policy, seed, P = [-0.1, 0.0, 0.1], 0.1, StepPolicy(dt_max=2e-4), 5, 8
    log = _a3_collector(P, T, _ChunkLog)
    res = _assert_equals_reference(model, R, x0, T, policy, seed, P,
                                   (log, _a3_collector(P, T)))
    sizes = [c.size for c in log.chunks]
    assert len(sizes) > 3 and min(sizes[:-1]) >= _CHUNK_ROWS
    assert sum(sizes) == res.accepted_steps.sum()
    assert set(log.chunks[0].tolist()) == set(range(P))
    assert any(set(a.tolist()) - set(b.tolist())  # a lane left inside chunk a
               for a, b in zip(log.chunks, log.chunks[1:]))
    p = int(np.argmax(res.accepted_steps))
    assert res.accepted_steps[p] > 3 * _CHUNK_ROWS
    alone = simulate_trajectory(model, R, x0, T, policy, seed, traj_index=p)
    for f in ("times", "states", "step_sizes"):
        assert getattr(alone, f).tobytes() == getattr(res.records[p], f).tobytes(), f


def test_collector_chunk_spans_at_most_chunk_rows_iterations():
    """Pending rows go to the collector at ``_COLLECTOR_CHUNK_ROWS`` rows or
    after ``_CHUNK_ROWS`` iterations, whichever comes first: two lanes hand on
    chunks of 1,024 to 2,048 rows, well below the row limit."""
    model, R = make_preset("dyson", k=0.25), build_root_system("A", 3)
    P, T = 2, 0.3
    log = _a3_collector(P, T, _ChunkLog)
    res = simulate_ensemble(model, R, np.array([-0.1, 0.0, 0.1]), T,
                            StepPolicy(dt_max=2e-4), 5, P, collector=log)
    sizes = [c.size for c in log.chunks]
    assert len(sizes) > 1 and sum(sizes) == res.accepted_steps.sum()
    assert all(_CHUNK_ROWS <= n <= P * _CHUNK_ROWS for n in sizes[:-1])


def test_recorded_path_memory_is_bounded():
    """A recorded path peaks at a few times its own bytes: the diagnostics
    B4 path (9,036 rows, 0.43 MB recorded) stays under 2.1 MB of numpy and
    Python allocations."""
    model, R = make_preset("bessel_b", k1=0.3, k2=0.5), build_root_system("B", 4)
    tracemalloc.start()
    try:
        rec = simulate_trajectory(model, R, [0.2, 0.5, 0.9, 1.4], 0.25,
                                  StepPolicy(dt_max=1e-4), seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rec.times) == 9036
    assert peak <= 2.1e6, peak


def test_propose_returns_row_minimum_of_projections():
    """The returned minimum is each proposal's smallest projection, the
    scalar is the smallest of those, and the mask marks the rows inside the
    chamber."""
    R = build_root_system("B", 2)
    model = make_preset("bessel_b", k1=0.1, k2=0.6)
    rng = np.random.default_rng(4)
    xs = np.abs(rng.normal(size=(64, 2))).cumsum(axis=1) * 0.05 + 1e-3
    proj = xs @ R.positive_matrix.T
    assert np.all(proj.min(1) > 0)
    dt = np.full(64, 1e-3)
    noise = rng.normal(size=(64, 2))
    _, prop_proj, prop_min, smin, ok = _propose(model, R, xs, proj, dt, noise)
    assert prop_min.tobytes() == prop_proj.min(1).tobytes()
    assert smin == prop_min.min()
    assert ok is not None and not ok.all()  # some proposals leave
    assert np.array_equal(ok, prop_min > 0.0)


def test_propose_masks_nan_proposals():
    """A NaN proposal is outside: the all-inside test fails on it, and the
    mask is built, False on that row only."""
    R = build_root_system("A", 3)
    model = make_preset("dyson", k=0.25)
    xs = np.array([[-0.5, 0.0, 0.5]] * 3)
    proj = xs @ R.positive_matrix.T
    noise = np.zeros((3, 3))
    noise[1, 0] = np.nan
    *_, ok = _propose(model, R, xs, proj, np.full(3, 1e-4), noise,
                      model.unit_constants(R))
    assert ok is not None and ok.tolist() == [True, False, True]
    *_, ok = _propose(model, R, xs, proj, np.full(3, 1e-4), np.zeros((3, 3)))
    assert ok is None


def test_boundary_start_enters_interior(dyson2):
    model, R = dyson2
    rec = simulate_trajectory(model, R, [0.0, 0.0], 0.1, StepPolicy(), seed=1)
    proj = rec.states[1:] @ R.positive_matrix.T
    assert np.all(proj.min(axis=1) > 0)


def test_explosion_flag():
    # huge positive drift blows the state past the explosion radius
    m = make_preset(
        "custom",
        sigma=lambda y: np.ones_like(y),
        drift_b=lambda y: np.full_like(y, 1e8),
        coupling=lambda x, R: np.full(x.shape[:-1] + (R.M,), 0.5),
    )
    R = build_root_system("A", 2)
    res = simulate_ensemble(m, R, np.array([-1.0, 1.0]), 1.0,
                            StepPolicy(explosion_radius=1e4), 0, n_paths=2)
    assert res.lifetime_flags.all()
    assert np.all(res.final_times < 1.0)


def test_adaptive_dt_shrinks_near_wall(dyson2):
    model, R = dyson2
    pol = StepPolicy(dt_max=1e-3)
    rec = simulate_trajectory(model, R, [-0.005, 0.005], 0.01, pol, seed=2)
    assert rec.step_sizes[0] == pytest.approx(0.1 * 0.01**2)


def test_e_poly_drift_hand_values():
    # Dyson N=2, n=1, w = 1: d e_1 = (4k + 2) dt exactly
    R = build_root_system("A", 2)
    for k in (0.2, 0.5, 1.3):
        m = make_preset("dyson", k=k)
        for x in ([-1.0, 1.0], [-0.3, 2.0]):
            assert e_poly_drift(x, m, R, None, 1) == pytest.approx(4 * k + 2)


def test_e_poly_drift_interior_required():
    R = build_root_system("A", 2)
    m = make_preset("dyson", k=0.5)
    with pytest.raises(ValueError):
        e_poly_drift([1.0, -1.0], m, R, None, 1)
    with pytest.raises(ValueError):
        e_poly_drift([-1.0, 1.0], m, R, None, 2)


def test_e_poly_drift_bits_do_not_depend_on_table_layout(monkeypatch):
    """On 1,020 random A2/A3/B2/B3 states, e_poly_drift returns the same
    bits when the exclusion tables come in Fortran order, which makes the
    e_{n-1} column contiguous instead of strided."""
    rng = np.random.default_rng(0)
    cases = [("A", 2, "dyson", {"k": 0.6}), ("A", 3, "dyson", {"k": 0.4}),
             ("B", 2, "bessel_b", {"k1": 0.8, "k2": 0.6}),
             ("B", 3, "bessel_b", {"k1": 0.5, "k2": 0.3})]
    states = []
    while len(states) < 1020:
        family, N, preset, params = cases[len(states) % 4]
        R = build_root_system(family, N)
        x = np.sort(rng.uniform(0.1, 2.0, N)) + (0.3 * np.arange(N) if family == "A" else 0)
        if np.min(R.positive_matrix @ x) > 0:
            states.append((x, make_preset(preset, **params), R,
                           int(rng.integers(1, R.M + 1))))
    c_order = [e_poly_drift(x, m, R, None, n) for x, m, R, n in states]
    rows = engine.exclusion_rows
    monkeypatch.setattr(engine, "exclusion_rows",
                        lambda v, n: tuple(np.asfortranarray(a) for a in rows(v, n)))
    f_order = [e_poly_drift(x, m, R, None, n) for x, m, R, n in states]
    assert sum(a != b for a, b in zip(c_order, f_order)) == 0


def test_log_drift_components_dyson_n2():
    """For A_1 there are no root pairs: A2 = A3 = A6 = 0 and A5 < 0."""
    R = build_root_system("A", 2)
    m = make_preset("dyson", k=0.5)
    comps = log_e_drift_components([-1.0, 1.0], m, R, None, 1)
    assert comps[1] == comps[2] == comps[5] == 0.0
    assert comps[4] < 0


@pytest.mark.parametrize("preset,params,family,N,x", [
    ("dyson", {"k": 0.35}, "A", 2, [-0.8, 0.6]),
    ("dyson", {"k": 0.7}, "A", 3, [-1.1, 0.1, 1.4]),
    ("bessel_b", {"k1": 0.6, "k2": 0.9}, "B", 2, [0.5, 1.3]),
])
def test_drift_formulas_match_monte_carlo(preset, params, family, N, x):
    model = make_preset(preset, **params)
    R = build_root_system(family, N)
    for n in range(1, R.M + 1):
        closed = e_poly_drift(x, model, R, None, n)
        mc, se = mc_drift_estimate(
            x, model, R,
            lambda y: elementary_rows((y @ R.positive_matrix.T) ** 2, n)[..., n],
            h=1e-6, n_samples=3000, seed=n)
        assert abs(closed - mc) <= 4.0 * max(se, 1e-10)

        comps = log_e_drift_components(x, model, R, None, n)
        assert comps[4] <= 0.0  # A5 is manifestly nonpositive
        mc2, se2 = mc_drift_estimate(
            x, model, R,
            lambda y: -np.log(
                elementary_rows((y @ R.positive_matrix.T) ** 2, n)[..., n]),
            h=1e-6, n_samples=3000, seed=100 + n)
        assert abs(comps.sum() - mc2) <= 4.0 * max(se2, 1e-10)


def test_drift_with_norm_weights_matches_monte_carlo():
    model = make_preset("bessel_b", k1=0.7, k2=0.5)
    R = build_root_system("B", 2)
    x = np.array([0.4, 1.1])
    star = R.positive_matrix / R.root_norms[:, None]
    closed = e_poly_drift(x, model, R, "norm", 2)
    mc, se = mc_drift_estimate(
        x, model, R, lambda y: elementary_rows((y @ star.T) ** 2, 2)[..., 2],
        h=1e-6, n_samples=3000, seed=0)
    assert abs(closed - mc) <= 4.0 * max(se, 1e-10)


def test_batched_mc_drift_matches_per_sample_loop():
    """The batched oracle returns exactly what a per-sample loop gives."""
    model = make_preset("dyson", k=0.4)
    R = build_root_system("A", 3)
    x = np.array([-0.9, 0.2, 1.3])
    h, n_samples, seed = 1e-6, 500, 7
    pm = R.positive_matrix

    def func(y):
        return elementary_rows((y @ pm.T) ** 2, 2)[..., 2]

    mc, se = mc_drift_estimate(x, model, R, func, h=h, n_samples=n_samples,
                               seed=seed)

    # per-sample reference: the same Euler step, one antithetic pair a time
    proj = pm @ x
    kvals = model.coupling_values(x, R)
    det = (model.drift_b(x) + (kvals / proj) @ pm) * h
    scale = model.sigma(x) * np.sqrt(h)
    noise = np.random.default_rng(seed).standard_normal((n_samples, x.size))
    f0 = func(x)
    vals = np.empty(n_samples)
    for i in range(n_samples):
        xp = x + det + scale * noise[i]
        xm = x + det - scale * noise[i]
        vals[i] = (func(xp) + func(xm) - 2.0 * f0) / (2.0 * h)
    assert mc == float(vals.mean())
    assert se == float(vals.std(ddof=1) / np.sqrt(n_samples))


def test_strong_error_shrinks_with_dt(dyson2):
    """Halving dt_max roughly halves the strong error (order ~1 pathwise

    against a much finer reference with the same driving noise is not
    available here, so compare distributions of the final gap instead).
    """
    model, R = dyson2
    gaps = {}
    for dt in (1e-2, 1e-3, 1e-4):
        res = simulate_ensemble(model, R, np.array([-1.0, 1.0]), 1.0,
                                StepPolicy(dt_max=dt), 77, n_paths=400)
        gaps[dt] = (res.final_states[:, 1] - res.final_states[:, 0]).mean()
    # Dyson gap is a scaled Bessel process; its mean at t=1 is dt-stable
    assert abs(gaps[1e-3] - gaps[1e-4]) < abs(gaps[1e-2] - gaps[1e-4]) + 0.05


def test_stuck_raises_for_single_trajectory():
    # zero-noise model pinned against the wall with negative drift
    m = make_preset(
        "custom",
        sigma=lambda y: np.full_like(y, 1e-12),
        drift_b=lambda y: np.where(y > 0, -1e3, 1e3),
        coupling=lambda x, R: np.full(x.shape[:-1] + (R.M,), 1e-12),
    )
    R = build_root_system("A", 2)
    pol = StepPolicy(dt_max=1e-3, max_rejects=10)
    with pytest.raises(RuntimeError):
        simulate_trajectory(m, R, [-1e-9, 1e-9], 1.0, pol, seed=0)
