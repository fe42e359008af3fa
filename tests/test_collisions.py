import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import weylgas.collisions as collisions
import weylgas.engine as engine
from weylgas.collisions import (CollisionEvent, EnsembleCollector, box_counts,
                                detect_collision_events, dyadic_scales,
                                fit_box_dimension)
from weylgas.engine import StepPolicy, TrajectoryRecord, simulate_ensemble
from weylgas.models import make_preset
from weylgas.roots import build_root_system


def _record(times, states):
    times = np.asarray(times, float)
    states = np.asarray(states, float)
    return TrajectoryRecord(times=times, states=states,
                            step_sizes=np.diff(times), master_seed=0, traj_index=0,
                            lifetime_flag=False, stuck=False, rejected_steps=0)


def test_detect_events_triangle_dip():
    """A single dip below eps with linear interpolation of the edges."""
    R = build_root_system("A", 2)
    # gap x2 - x1 goes 1 -> 0.02 -> 1 over t in [0, 1, 2]
    xs = [[-0.5, 0.5], [-0.01, 0.01], [-0.5, 0.5]]
    rec = _record([0.0, 1.0, 2.0], xs)
    events = detect_collision_events(rec, R, eps=0.1)
    assert len(events) == 1
    ev = events[0]
    # gap(t) = 1 - 0.98 t on [0, 1]; crosses 0.1 at t = 0.9/0.98
    assert ev.t_in == pytest.approx(0.9 / 0.98)
    assert ev.t_out == pytest.approx(2.0 - 0.9 / 0.98)
    assert ev.t_min == 1.0
    assert ev.min_value == pytest.approx(0.02)
    assert ev.order == 1
    assert ev.min_root == (-1, 1)
    # e_1 = gap^2 crosses eps^2 inside the event
    assert 1 in ev.tau_markers
    assert ev.t_in <= ev.tau_markers[1] <= ev.t_out


def test_detect_events_multiple_and_nesting():
    R = build_root_system("A", 2)
    gaps = [1.0, 0.05, 1.0, 0.005, 1.0]
    rec = _record(range(5), [[-g / 2, g / 2] for g in gaps])
    ev_big = detect_collision_events(rec, R, eps=0.1)
    ev_small = detect_collision_events(rec, R, eps=0.01)
    assert len(ev_big) == 2 and len(ev_small) == 1
    # eps-nesting of the event intervals
    for small in ev_small:
        assert any(small.t_in >= big.t_in - 1e-12 and small.t_out <= big.t_out + 1e-12
                   for big in ev_big)


def test_detect_events_order_two():
    R = build_root_system("A", 3)
    rec = _record([0.0, 1.0, 2.0],
                  [[-1.0, 0.0, 1.0], [-0.01, 0.0, 0.01], [-1.0, 0.0, 1.0]])
    ev = detect_collision_events(rec, R, eps=0.05)[0]
    assert ev.order >= 2
    assert len(ev.active_roots) == ev.order


def test_detect_events_validates_eps():
    R = build_root_system("A", 2)
    rec = _record([0.0, 1.0], [[-1.0, 1.0], [-1.0, 1.0]])
    with pytest.raises(ValueError):
        detect_collision_events(rec, R, eps=0.0)
    assert detect_collision_events(rec, R, eps=0.1) == []


def test_detect_events_edges_exact():
    """Runs at the first and the last row take those rows' times; inner
    edges interpolate; a tie keeps the first minimum; the tau marker lies in
    the first event only; one root (A2) leaves no runner-up."""
    R = build_root_system("A", 2)
    gaps = [0.25, 0.5, 0.25, 0.25, 0.5, 0.5, 0.25]
    rec = _record(range(7), [[-g / 2, g / 2] for g in gaps])
    root = (-1, 1)

    def event(t_in, t_out, t_min, tau):
        return CollisionEvent(t_in=t_in, t_out=t_out, t_min=t_min, min_value=0.25,
                              min_root=root, active_roots=(root,), order=1,
                              second_gap=np.inf, tau_markers=tau)

    # edges cross eps = 0.375 halfway between a 0.25 and a 0.5 sample
    assert detect_collision_events(rec, R, eps=0.375) == [
        event(0.0, 0.5, 0.0, {1: 0.0}),
        event(1.5, 3.5, 2.0, {}),
        event(5.5, 6.0, 6.0, {}),
    ]


def test_interp_crossing_flat_step():
    """A step with equal values at both ends crosses at its start."""
    assert collisions._interp_crossing(2.0, 0.5, 3.0, 0.5, 0.375) == 2.0
    assert collisions._interp_crossing(2.0, 0.25, 3.0, 0.25, 0.375) == 2.0
    t = collisions._interp_crossing(np.array([2.0, 2.0]), np.array([0.5, 0.5]),
                                    np.array([3.0, 3.0]), np.array([0.5, 0.25]), 0.375)
    assert t.tolist() == [2.0, 2.5]


# ---------------------------------------------------------------------------
# box counting
# ---------------------------------------------------------------------------


def test_box_counts_simple():
    counts = box_counts([(0.0, 0.25), (0.6, 0.7)], [0.25, 0.5], T=1.0)
    # delta = 0.25: boxes 0 (and endpoint 0.25 -> box 1), 2
    assert counts[0.5] == 2
    assert counts[0.25] == 3


def test_box_counts_merges_overlaps():
    counts = box_counts([(0.0, 0.2), (0.1, 0.3)], [0.5], T=1.0)
    assert counts[0.5] == 1
    # a shared endpoint is counted once, not twice
    counts = box_counts([(0.0, 0.25), (0.25, 0.4)], [0.5], T=1.0)
    assert counts[0.5] == 1


def _loop_box_counts(intervals, scales, T=None):
    """The earlier one-path box count: merge the sorted intervals, then walk
    them per scale, skipping boxes an earlier interval occupied."""
    merged = []
    for a, b in sorted((float(a), float(b)) for a, b in intervals):
        if merged and a <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], b))
        else:
            merged.append((a, b))
    counts = {}
    for delta in scales:
        cap = int(np.ceil(T / delta)) - 1 if T else None
        n, last = 0, -1
        for a, b in merged:
            lo, hi = int(a // delta), int(b // delta)
            if cap is not None:
                hi = min(hi, cap)
            if lo <= last:
                lo = last + 1
            if hi >= lo:
                n += hi - lo + 1
                last = hi
        counts[float(delta)] = n
    return counts


# endpoints on a coarse grid, so intervals tie, touch and nest, and some
# lie past the horizon T = 1
_ENDS = st.integers(0, 48).map(lambda i: i / 40)
_INTERVAL = st.tuples(_ENDS, _ENDS).map(sorted).map(tuple)


@settings(max_examples=300, deadline=None)
@given(paths=st.lists(st.lists(_INTERVAL, max_size=8), max_size=5),
       scales=st.lists(st.sampled_from([0.5, 0.3, 0.25, 0.1, 1 / 16, 0.02]),
                       min_size=1, max_size=4, unique=True),
       T=st.sampled_from([None, 1.0, 0.9]))
def test_box_counts_pooled_equals_sum_of_path_loops(paths, scales, T):
    """One vectorized count over all paths equals the sum of the per-path
    counts of the earlier merge-and-walk loop."""
    flat = [iv for ivs in paths for iv in ivs]
    path = [p for p, ivs in enumerate(paths) for _ in ivs]
    expect = {float(d): sum(_loop_box_counts(ivs, scales, T)[float(d)] for ivs in paths)
              for d in scales}
    assert box_counts(flat, scales, T, path) == expect
    if len(paths) == 1:
        assert box_counts(flat, scales, T) == _loop_box_counts(flat, scales, T)


def test_dimension_point_is_zero():
    est = fit_box_dimension(box_counts([(0.5, 0.5)], dyadic_scales(1.0, 8, 2), 1.0))
    assert est.value == pytest.approx(0.0, abs=1e-12)
    assert est.flag == ""


def test_dimension_full_interval_is_one():
    est = fit_box_dimension(box_counts([(0.0, 1.0)], dyadic_scales(1.0, 8, 2), 1.0))
    assert est.value == pytest.approx(1.0, abs=1e-12)


def test_dimension_empty_and_undefined():
    est = fit_box_dimension(box_counts([], dyadic_scales(1.0, 4, 2), 1.0))
    assert est.flag == "empty" and est.value == 0.0
    est = fit_box_dimension(box_counts([(0.0, 1.0)], [0.5], 1.0))
    assert est.flag == "undefined" and est.value == 0.0


def _cantor_intervals(levels: int):
    ivs = [(0.0, 1.0)]
    for _ in range(levels):
        nxt = []
        for a, b in ivs:
            third = (b - a) / 3.0
            nxt.append((a, a + third))
            nxt.append((b - third, b))
        ivs = nxt
    return ivs


def test_dimension_cantor_set():
    """The middle-thirds Cantor set has box dimension log 2 / log 3."""
    ivs = _cantor_intervals(13)
    scales = [2.0**-j for j in range(4, 13)]
    est = fit_box_dimension(box_counts(ivs, scales, 1.0))
    assert est.value == pytest.approx(np.log(2) / np.log(3), abs=0.05)
    assert est.stderr < 0.05


def test_fit_reports_stderr_and_window():
    counts = {0.5: 2, 0.25: 4, 0.125: 8}
    est = fit_box_dimension(counts)
    assert est.slope == pytest.approx(1.0)
    assert est.stderr == pytest.approx(0.0, abs=1e-10)
    assert est.scale_window == (0.125, 0.5)


# ---------------------------------------------------------------------------
# streaming collector vs batch detection
# ---------------------------------------------------------------------------


def _sample_occupancy(records, R, dim_eps, scales, T):
    """Pooled boxes holding an accepted sample with min projection < dim_eps."""
    counts = {}
    for s in scales:
        occ = np.zeros((len(records), int(np.ceil(T / s))), dtype=bool)
        for p, rec in enumerate(records):
            minp = (rec.states @ R.positive_matrix.T).min(axis=1)
            tb = rec.times[1:][minp[1:] < dim_eps]
            cols = np.minimum((tb / s).astype(int), occ.shape[1] - 1)
            occ[p, cols] = True
        counts[s] = int(occ.sum())
    return counts


def _sample_intervals(rec, R, eps):
    """(first, last) accepted-sample times of each below-eps run."""
    t = rec.times[1:]
    below = (rec.states[1:] @ R.positive_matrix.T).min(axis=1) < eps
    edges = np.diff(np.concatenate([[0], below.astype(int), [0]]))
    starts, ends = np.flatnonzero(edges == 1), np.flatnonzero(edges == -1) - 1
    return [(float(t[i]), float(t[j])) for i, j in zip(starts, ends)]


def _check_collector_against_batch(model, R, x0, T, P, eps_list, dim_eps):
    """Stream an ensemble through a collector and compare every count with
    batch detection on the recorded paths."""
    scales = dyadic_scales(T, 6, 2)
    col = EnsembleCollector(R, None, n_paths=P, horizon=T,
                            eps_list=eps_list, dim_eps=dim_eps, scales=scales)
    res = simulate_ensemble(model, R, x0, T, StepPolicy(dt_max=1e-3),
                            master_seed=42, n_paths=P, collector=col,
                            record=True)
    col.finalize()

    for eps in eps_list:
        n1 = np.zeros(P, dtype=int)
        n2 = np.zeros(P, dtype=int)
        argmin = np.zeros((P, R.M), dtype=int)
        for p, rec in enumerate(res.records):
            events = detect_collision_events(rec, R, eps=eps)
            n1[p] = sum(1 for ev in events if ev.order == 1)
            n2[p] = sum(1 for ev in events if ev.order >= 2)
            for ev in events:
                argmin[p, R.positive_roots.index(ev.min_root)] += 1
        assert np.array_equal(col.events_order1[eps], n1)
        assert np.array_equal(col.events_order2[eps], n2)
        assert np.array_equal(col.argmin_counts[eps], argmin)
        assert col.intervals[eps] == [_sample_intervals(rec, R, eps) for rec in res.records]
        assert col.event_rates(eps) == pytest.approx(
            {"order1": np.mean(n1 > 0), "order2": np.mean(n2 > 0),
             "any": np.mean(n1 + n2 > 0)})

    # pooled box counts agree with per-path sample-time occupancy
    assert col.pooled_counts() == _sample_occupancy(res.records, R, dim_eps, scales, T)
    return col


def _check_a2():
    R = build_root_system("A", 2)
    return _check_collector_against_batch(
        make_preset("dyson", R, k=0.15), R,
        np.array([-0.2, 0.2]), 1.0, 20, [0.05, 0.01], 0.05)


def _check_a3():
    R = build_root_system("A", 3)
    return _check_collector_against_batch(
        make_preset("dyson", R, k=0.25), R,
        np.array([-0.3, 0.0, 0.3]), 0.1, 10, [0.1, 0.03, 0.01], 0.03)


def test_collector_matches_batch_detection():
    col = _check_a2()
    est = col.pooled_dimension()
    assert est == fit_box_dimension(col.pooled_counts())
    assert 0.0 <= est.value <= 1.0


def test_collector_matches_batch_detection_three_roots():
    """Several roots per state: the deepest root of every event counts."""
    col = _check_a3()
    assert (col.argmin_counts[0.1].sum(axis=0) > 0).sum() >= 2


@pytest.mark.parametrize("chunk_rows", [1, 7])
@pytest.mark.parametrize("check", [_check_a2, _check_a3], ids=["A2", "A3"])
def test_collector_small_flushes_match_batch_detection(monkeypatch, check, chunk_rows):
    """Feeding the collector chunks of every few rows opens and closes events
    across chunk edges; every count still equals batch detection."""
    monkeypatch.setattr(engine, "_COLLECTOR_CHUNK_ROWS", chunk_rows)
    sizes = []
    update = EnsembleCollector.update
    monkeypatch.setattr(EnsembleCollector, "update",
                        lambda self, t, proj, idx: sizes.append(len(idx))
                        or update(self, t, proj, idx))
    check()
    assert len(sizes) > 1


def test_collector_interval_nesting_and_argmin():
    R = build_root_system("B", 2)
    model = make_preset("bessel_b", R, k1=0.1, k2=0.6)
    col = EnsembleCollector(R, None, n_paths=30, horizon=1.0,
                            eps_list=[0.05, 0.005], dim_eps=0.01,
                            scales=dyadic_scales(1.0, 5, 2))
    simulate_ensemble(model, R, np.array([0.1, 0.9]), 1.0,
                      StepPolicy(dt_max=1e-3), 7, n_paths=30, collector=col)
    col.finalize()
    # every fine interval sits inside some coarse interval of the same path
    for p in range(30):
        coarse = col.intervals[0.05][p]
        for a, b in col.intervals[0.005][p]:
            assert any(a >= c and b <= d for c, d in coarse)
    # with k1 = 0.1 << k2 the wall at x_1 = 0 dominates: root e1 is index 0
    e1 = R.positive_roots.index((1, 0))
    frac = col.argmin_fraction(0.05, e1)
    assert frac > 0.9
    assert not np.isnan(col.argmin_fraction(0.05, 1))


def test_collector_argmin_nan_when_no_events():
    R = build_root_system("A", 2)
    col = EnsembleCollector(R, None, n_paths=2, horizon=1.0,
                            eps_list=[1e-6], dim_eps=1e-6,
                            scales=dyadic_scales(1.0, 3, 2))
    col.finalize()
    assert np.isnan(col.argmin_fraction(1e-6, 0))
    assert col.event_rates(1e-6) == {"order1": 0.0, "order2": 0.0, "any": 0.0}


@pytest.mark.parametrize("eps_list", [[], [1e-6]])
def test_collector_occupancy_without_events(eps_list):
    """With no eps, or dim_eps above every eps, no event is recorded but the
    occupancy bitmap is still written."""
    R = build_root_system("A", 2)
    model = make_preset("dyson", R, k=0.6)  # k >= 1/2: no collisions
    scales = dyadic_scales(0.5, 4, 2)
    col = EnsembleCollector(R, None, n_paths=6, horizon=0.5,
                            eps_list=eps_list, dim_eps=0.05, scales=scales)
    res = simulate_ensemble(model, R, np.array([-0.03, 0.03]), 0.5,
                            StepPolicy(dt_max=1e-3), 4, n_paths=6,
                            collector=col, record=True)
    col.finalize()
    counts = col.pooled_counts()
    assert counts == _sample_occupancy(res.records, R, 0.05, scales, 0.5)
    assert counts[scales[-1]] > 0
    for eps in eps_list:
        assert not col.events_order1[eps].any()
        assert col.intervals[eps] == [[] for _ in range(6)]


@pytest.mark.parametrize("per_step", [True, False], ids=["per-step", "one-update"])
def test_collector_event_minimum_across_flushes(per_step):
    """An event keeps its first deepest row, also when a later row of the
    event ties it, whether the rows arrive in one update per time step or
    all in one update."""
    R = build_root_system("A", 3)
    col = EnsembleCollector(R, None, n_paths=2, horizon=1.0, eps_list=[0.01, 0.005],
                            dim_eps=0.01, scales=dyadic_scales(1.0, 3, 2))
    far = [0.5, 0.5, 0.5]
    feed = [
        (0.1, {0: far, 1: far}),
        (0.2, {0: [0.004, 0.5, 0.5], 1: far}),    # event A: root 0, order 1
        (0.3, {0: [0.006, 0.004, 0.5], 1: [0.5, 0.5, 0.001]}),  # a tie: A keeps root 0
        (0.4, {0: [0.009, 0.5, 0.5]}),
        (0.5, {0: far, 1: far}),                  # A ends
        (0.6, {0: [0.5, 0.008, 0.5]}),            # event B: root 1, order 1
        (0.7, {0: [0.002, 0.003, 0.5]}),          # B goes deeper: root 0, order 2
    ]
    col.update(np.empty(0), np.empty((0, R.M)), np.empty(0, dtype=int))
    steps = [(np.full(len(rows), t), np.array(list(rows.values())), np.array(list(rows)))
             for t, rows in feed]
    if not per_step:
        steps = [tuple(map(np.concatenate, zip(*steps)))]
    for t, proj, idx in steps:
        col.update(t, proj, idx)
    col.finalize()
    assert col.intervals[0.01] == [[(0.2, 0.4), (0.6, 0.7)], [(0.3, 0.3)]]
    assert col.intervals[0.005] == [[(0.2, 0.3), (0.7, 0.7)], [(0.3, 0.3)]]
    for eps in (0.01, 0.005):
        assert col.events_order1[eps].tolist() == [1, 1]
        assert col.events_order2[eps].tolist() == [1, 0]
        assert col.argmin_counts[eps].tolist() == [[2, 0, 0], [0, 0, 1]]


class _UpdateLog:
    """Stands in for a collector and keeps every update it is fed."""

    def __init__(self):
        self.calls = []

    def update(self, t_new, proj_new, path_idx):
        self.calls.append((t_new.copy(), proj_new.copy(), path_idx.copy()))


def _logged_ensemble(P=10, T=0.05):
    """Updates an A3 ensemble feeds a collector, and a collector factory."""
    R = build_root_system("A", 3)
    model = make_preset("dyson", R, k=0.25)
    log = _UpdateLog()
    simulate_ensemble(model, R, np.array([-0.1, 0.0, 0.1]), T,
                      StepPolicy(dt_max=1e-3), 5, n_paths=P, collector=log)

    def collector(**kw):
        return EnsembleCollector(R, None, n_paths=P, horizon=T,
                                 eps_list=[0.05, 0.01], dim_eps=0.02,
                                 scales=dyadic_scales(T, 4, 2), **kw)

    return log.calls, collector


def _same_results(a, b):
    for eps in a.eps_list:
        assert np.array_equal(a.events_order1[eps], b.events_order1[eps])
        assert np.array_equal(a.events_order2[eps], b.events_order2[eps])
        assert np.array_equal(a.argmin_counts[eps], b.argmin_counts[eps])
        assert a.intervals[eps] == b.intervals[eps]
    assert a.dropped_intervals == b.dropped_intervals
    assert a.pooled_counts() == b.pooled_counts()


def test_collector_split_feed_matches_single_feed():
    """Feeding each batch of accepted steps in two chunks of rows gives the
    same counts, intervals and occupancy as feeding it in one update."""
    calls, collector = _logged_ensemble()
    one, two = collector(), collector()
    for t_new, proj, idx in calls:
        one.update(t_new, proj, idx)
        h = len(idx) // 2
        two.update(t_new[:h], proj[:h], idx[:h])
        two.update(t_new[h:], proj[h:], idx[h:])
    one.finalize()
    two.finalize()
    assert sum(len(ivs) for ivs in one.intervals[0.01]) > 0
    _same_results(one, two)


def test_collector_keeps_no_reference_to_caller_arrays():
    """Overwriting the arrays passed to update, before they are flushed,
    changes no result."""
    calls, collector = _logged_ensemble()
    kept, reused = collector(), collector()
    for t_new, proj, idx in calls:
        kept.update(t_new, proj, idx)
        t_buf, proj_buf, idx_buf = t_new.copy(), proj.copy(), idx.copy()
        reused.update(t_buf, proj_buf, idx_buf)
        t_buf[:] = 0.0
        proj_buf[:] = 1e-9
        idx_buf[:] = 0
    kept.finalize()
    reused.finalize()
    assert sum(len(ivs) for ivs in kept.intervals[0.01]) > 0
    _same_results(kept, reused)


def test_collector_closes_events_within_one_update():
    """An event that opens and closes inside one small update is counted and
    stored by that update, before ``finalize()``."""
    R = build_root_system("A", 2)
    col = EnsembleCollector(R, None, n_paths=2, horizon=1.0, eps_list=[0.01],
                            dim_eps=0.01, scales=dyadic_scales(1.0, 3, 2))
    proj = np.array([[0.5, 0.5, 1.0], [0.005, 0.5, 0.505], [0.5, 0.5, 1.0]])
    col.update(np.array([0.1, 0.2, 0.3]), proj, np.array([1, 1, 1]))
    assert col.events_order1[0.01].tolist() == [0, 1]
    assert col.intervals[0.01] == [[], [(0.2, 0.2)]]


def test_collector_counts_dropped_intervals(monkeypatch):
    """With one interval kept per path, the rest are counted as dropped;
    event counts still include every event."""
    calls, collector = _logged_ensemble()
    full, capped = collector(), collector()
    for args in calls:
        full.update(*args)
    full.finalize()
    monkeypatch.setattr(collisions, "_MAX_INTERVALS", 1)
    for args in calls:
        capped.update(*args)
    capped.finalize()
    assert full.dropped_intervals == {0.05: 0, 0.01: 0}
    for eps in full.eps_list:
        stored = sum(len(ivs) for ivs in full.intervals[eps])
        assert capped.intervals[eps] == [ivs[:1] for ivs in full.intervals[eps]]
        assert capped.dropped_intervals[eps] == stored - sum(
            len(ivs) for ivs in capped.intervals[eps])
        assert np.array_equal(capped.events_order1[eps], full.events_order1[eps])
    assert capped.dropped_intervals[0.05] > 0
