"""Collision detection and box-counting dimension estimation.

One run finder, ``_event_runs``, decides what an event is.
``detect_collision_events`` (small runs, tests) calls it on one recorded
path; the streaming ``EnsembleCollector`` calls it on each batch of
accepted steps while a vectorized ensemble integrates, without storing
paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .engine import TrajectoryRecord
from .roots import Root, RootSystem, resolve_weights
from .sympoly import elementary_rows


@dataclass(frozen=True)
class CollisionEvent:
    """A maximal interval where the smallest weighted projection < eps."""

    t_in: float
    t_out: float
    t_min: float
    min_value: float
    min_root: Root
    active_roots: tuple[Root, ...]
    order: int  # projections below eps at the event minimum
    second_gap: float  # runner-up minus smallest projection at the minimum
    tau_markers: dict  # n -> tau_n, for each tau_n inside the event


def _interp_crossing(t0, v0, t1, v1, eps):
    """Linear interpolation of the times where the series crosses eps;
    a flat step (v1 == v0) divides by inf and gives t0."""
    lam = (eps - v0) / np.where(v1 == v0, np.inf, v1 - v0)
    return t0 + np.clip(lam, 0.0, 1.0) * (t1 - t0)


def _event_runs(minv, wproj, first, eps):
    """The events of rows grouped by path, each path's rows in time order.

    An event is a maximal run of a path's consecutive rows whose smallest
    weighted projection ``minv`` is below eps.  Its order (projections of
    ``wproj`` below eps) and its deepest root are read at the run's first
    minimum.  ``first`` marks each path's first row, ``eps`` is an (E, 1)
    column.  Returns, per run in eps-major order: the eps index, the first,
    last and first-minimum rows, the order and the deepest root.
    """
    n = minv.size
    below = minv < eps  # (E, n)
    start = below & first
    start[:, 1:] |= below[:, 1:] & ~below[:, :-1]
    end = below & np.roll(first, -1)  # a path's last row ends its run
    end[:, :-1] |= below[:, :-1] & ~below[:, 1:]
    es, rs = np.nonzero(start)
    re = np.nonzero(end)[1]  # runs never overlap: starts and ends pair up
    if not es.size:
        return es, rs, re, rs, rs, rs
    # first minimum of each run; rows off runs read inf
    vals = np.where(below, minv, np.inf).ravel()
    mins = np.minimum.reduceat(vals, es * n + rs)
    seg = np.cumsum(start.ravel()) - 1
    hits = np.flatnonzero(vals == mins[seg])
    keep = np.ones(hits.size, dtype=bool)
    np.not_equal(seg[hits[1:]], seg[hits[:-1]], out=keep[1:])
    imin = hits[keep] - es * n
    rmin = wproj[imin]
    return es, rs, re, imin, (rmin < eps[es]).sum(axis=1), rmin.argmin(axis=1)


def detect_collision_events(traj: TrajectoryRecord, R: RootSystem, w=None,
                            eps: float = 1e-4) -> list[CollisionEvent]:
    """Find all boundary approaches below eps along one trajectory.

    Interval edges are refined by linear interpolation of the
    min-projection series between samples; the event order counts the
    projections below eps at the interval minimum.  First-passage markers
    tau_n (weighted e_n falling below eps^(2*(M-n+1))) are attached to the
    event containing them.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    wproj = traj.states @ (R.positive_matrix / resolve_weights(R, w)[:, None]).T
    minv = wproj.min(axis=1)
    _, s, e, imin, order, amin = _event_runs(
        minv, wproj, np.arange(minv.size) == 0, np.array([[eps]]))
    if not s.size:
        return []
    times = traj.times
    # a run at the first or last row meets a flat step there: that row's time
    sp, en = np.maximum(s - 1, 0), np.minimum(e + 1, len(times) - 1)
    t_in = _interp_crossing(times[sp], minv[sp], times[s], minv[s], eps)
    t_out = _interp_crossing(times[e], minv[e], times[en], minv[en], eps)
    rows = wproj[imin]
    second = np.partition(rows, 1, axis=1)[:, 1] if R.M > 1 else np.inf
    second_gap = second - minv[imin]  # inf for a single root

    # tau_n markers: first crossing of e_n below eps^(2*(M - n + 1))
    e_all = elementary_rows(wproj**2, R.M)
    tau: dict[int, float] = {}
    for n in range(1, R.M + 1):
        thresh = eps ** (2 * (R.M - n + 1))
        hits = np.flatnonzero(e_all[:, n] < thresh)
        if hits.size:
            tau[n] = float(times[hits[0]])

    roots = R.positive_roots
    return [
        CollisionEvent(
            t_in=a, t_out=b, t_min=tm, min_value=mv, min_root=roots[r],
            active_roots=tuple(roots[i] for i in np.flatnonzero(row < eps)),
            order=o, second_gap=gap,
            tau_markers={n: tv for n, tv in tau.items() if a <= tv <= b},
        )
        for a, b, tm, mv, r, row, o, gap in zip(
            t_in.tolist(), t_out.tolist(), times[imin].tolist(),
            minv[imin].tolist(), amin.tolist(), rows, order.tolist(),
            second_gap.tolist())
    ]


# ---------------------------------------------------------------------------
# box-counting dimension
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DimensionEstimate:
    """Box-counting estimate of the dimension of a time set in [0, T].

    ``value`` is the clamped log-log regression slope with the convention
    N(delta) ~ delta^(-d); ``flag`` is "" on success, "empty" for an empty
    set, "undefined" with fewer than two occupied scales.
    """

    value: float
    scale_window: tuple[float, float]
    slope: float
    stderr: float
    flag: str = ""


def dyadic_scales(T: float, n_scales: int, j_min: int) -> list[float]:
    """Scales T/2^j for j = j_min .. j_min + n_scales - 1."""
    return [T / 2**j for j in range(j_min, j_min + n_scales)]


def box_counts(intervals: Sequence[tuple[float, float]],
               scales: Sequence[float], T: Optional[float] = None,
               path: Optional[Sequence[int]] = None) -> dict[float, int]:
    """Occupied-box counts of a union of intervals at each scale.

    When ``T`` is given the boxes tile [0, T) and the endpoint T falls in
    the last box rather than opening a new one.  ``path`` gives each
    interval's path index (default: one path); paths never share a box, so
    the count is the sum of the per-path counts.
    """
    iv = np.asarray(intervals, dtype=float).reshape(-1, 2)
    path = np.zeros(len(iv), np.int64) if path is None else np.asarray(path, np.int64)
    counts = {}
    for delta in scales:
        lo = np.floor_divide(iv[:, 0], delta).astype(np.int64)
        hi = np.floor_divide(iv[:, 1], delta).astype(np.int64)
        if T:
            np.minimum(hi, int(np.ceil(T / delta)) - 1, out=hi)
        # paths get disjoint box ranges; taken in order of lo, a range adds
        # its boxes above every earlier hi (none when hi < lo, past T)
        shift = path * (hi.max(initial=0) - lo.min(initial=0) + 1)
        order = np.argsort(lo + shift, kind="stable")
        lo, hi = (lo + shift)[order], (hi + shift)[order]
        seen = np.maximum.accumulate(np.concatenate([lo[:1] - 1, hi[:-1]]))
        counts[float(delta)] = int(np.maximum(hi - np.maximum(lo - 1, seen), 0).sum())
    return counts


def fit_box_dimension(counts: dict[float, int]) -> DimensionEstimate:
    """Least-squares fit of log N(delta) against log(1/delta)."""
    occupied = {d: n for d, n in counts.items() if n > 0}
    window = (min(counts), max(counts)) if counts else (0.0, 0.0)
    if not occupied:
        return DimensionEstimate(0.0, window, 0.0, 0.0, "empty")
    if len(occupied) < 2:
        return DimensionEstimate(0.0, window, 0.0, 0.0, "undefined")
    xs = np.log(1.0 / np.array(sorted(occupied)))
    ys = np.log([occupied[d] for d in sorted(occupied)])
    A = np.vstack([xs, np.ones_like(xs)]).T
    coef, res, *_ = np.linalg.lstsq(A, ys, rcond=None)
    slope = float(coef[0])
    dof = len(xs) - 2
    if dof > 0 and res.size:
        s2 = float(res[0]) / dof
        sxx = float(((xs - xs.mean()) ** 2).sum())
        stderr = float(np.sqrt(s2 / sxx))
    else:
        stderr = 0.0
    return DimensionEstimate(
        value=float(np.clip(slope, 0.0, 1.0)),
        scale_window=(min(occupied), max(occupied)), slope=slope, stderr=stderr,
    )


# ---------------------------------------------------------------------------
# streaming ensemble accumulator
# ---------------------------------------------------------------------------


_MAX_INTERVALS = 20000  # stored intervals per path and eps; the rest are counted


def path_event_rates(order1: np.ndarray, order2: np.ndarray) -> dict:
    """Fractions of paths with an order-1 event, an order->=2 event, and any
    event, from the per-path event counts."""
    return {"order1": float(np.mean(order1 > 0)),
            "order2": float(np.mean(order2 > 0)),
            "any": float(np.mean((order1 + order2) > 0))}


class EnsembleCollector:
    """Accumulates collision statistics while an ensemble integrates.

    Tracks, per trajectory and per threshold eps: event counts by order and
    sample-aligned below-eps intervals; and, at the dimension threshold
    ``dim_eps``, occupied dyadic boxes per scale for box-counting.  Feed it
    to ``simulate_ensemble`` via the ``collector`` argument and call
    ``finalize()`` afterwards.

    Each ``update`` processes its rows in one vectorized pass and keeps
    none of them.  Events still open at the end of a batch carry over in
    (E, P) arrays over E eps values and P paths; they are counted, and
    their intervals stored, when a later batch or ``finalize()`` closes
    them.  ``events_order1``, ``events_order2`` and ``argmin_counts`` map
    each eps to its row.  Occupancy is one (P, boxes) bitmap with a block
    of columns per scale.  At most ``_MAX_INTERVALS`` intervals are kept
    per path and eps; the rest are counted in ``dropped_intervals``.
    """

    def __init__(self, R: RootSystem, w, n_paths: int, horizon: float,
                 eps_list: Sequence[float], dim_eps: float,
                 scales: Sequence[float]):
        self.weights = resolve_weights(R, w)
        self.P = n_paths
        self.T = horizon
        self.eps_list = [float(e) for e in eps_list]
        self.dim_eps = float(dim_eps)
        self.scales = [float(s) for s in scales]
        E, P = len(self.eps_list), n_paths
        self._eps = np.array(self.eps_list).reshape(E, 1)
        self._below = np.zeros((E, P), dtype=bool)
        self._t_in = np.zeros((E, P))
        self._t_last = np.zeros((E, P))
        self._cur_min = np.full((E, P), np.inf)
        self._cur_order = np.zeros((E, P), dtype=np.int32)
        self._cur_argmin = np.zeros((E, P), dtype=np.int32)
        self._n1 = np.zeros((E, P), dtype=np.int64)
        self._n2 = np.zeros((E, P), dtype=np.int64)
        self._argmin = np.zeros((E, P, R.M), dtype=np.int64)
        self._ivs = [[[] for _ in range(P)] for _ in range(E)]
        self.events_order1 = dict(zip(self.eps_list, self._n1))
        self.events_order2 = dict(zip(self.eps_list, self._n2))
        self.argmin_counts = dict(zip(self.eps_list, self._argmin))
        self.intervals = dict(zip(self.eps_list, self._ivs))
        self._scales = np.array(self.scales)
        self._n_boxes = np.array([max(1, int(np.ceil(horizon / s))) for s in self.scales], int)
        self._box0 = np.cumsum(self._n_boxes) - self._n_boxes  # first column per scale
        self._occ = np.zeros((P, int(self._n_boxes.sum())), dtype=bool)
        self._dropped = [0] * E

    def update(self, t_new: np.ndarray, proj_new: np.ndarray, path_idx: np.ndarray):
        """Process one batch of accepted steps of the given global path
        indices, each path's rows in time order: mark occupancy, then find
        the runs of consecutive below-eps rows of every (eps, path), joining
        a run at a path's first row to the event left open there."""
        order = np.argsort(path_idx, kind="stable")  # each path's rows in time order
        t, g = np.asarray(t_new, dtype=float)[order], np.asarray(path_idx)[order]
        wproj = np.asarray(proj_new, dtype=float)[order]
        wproj /= self.weights
        minv = wproj.min(axis=1)
        near = minv < self.dim_eps
        cols = np.minimum((t[near][:, None] / self._scales).astype(np.int64), self._n_boxes - 1)
        self._occ[g[near][:, None], cols + self._box0] = True

        first = np.ones(g.size, dtype=bool)  # a path's first row in this batch
        np.not_equal(g[1:], g[:-1], out=first[1:])
        last = np.roll(first, -1)  # and its last row
        heads, tails = np.flatnonzero(first), np.flatnonzero(last)
        gp = g[heads]
        es, rs, re, imin, depth, amin = _event_runs(minv, wproj, first, self._eps)

        # open events whose path's first row here is above eps ended before it
        ei, j = np.nonzero(self._below[:, gp] & ~(minv[heads] < self._eps))
        pe = gp[j]
        closing = [(ei, pe, *self._stored(ei, pe))]
        if es.size:
            p = g[rs]
            t_in, t_out, mins = t[rs], t[re], minv[imin]
            # a run at a path's first row continues the open event there,
            # which keeps its minimum unless the run goes strictly lower
            cont = first[rs] & self._below[es, p]
            t_in[cont] = self._t_in[es[cont], p[cont]]
            old = cont & ~(mins < self._cur_min[es, p])
            mins[old] = self._cur_min[es[old], p[old]]
            depth[old] = self._cur_order[es[old], p[old]]
            amin[old] = self._cur_argmin[es[old], p[old]]
            # runs reaching a path's last row stay open into the next batch
            op = last[re]
            eo, po = es[op], p[op]
            self._t_in[eo, po] = t_in[op]
            self._t_last[eo, po] = t_out[op]
            self._cur_min[eo, po] = mins[op]
            self._cur_order[eo, po] = depth[op]
            self._cur_argmin[eo, po] = amin[op]
            cl = ~op
            closing.append((es[cl], p[cl], t_in[cl], t_out[cl], depth[cl], amin[cl]))
        self._below[:, gp] = minv[tails] < self._eps
        self._close(*(np.concatenate(a) for a in zip(*closing)))

    def _stored(self, ei, p):
        """(t_in, t_last, order, argmin) of the open events at (ei, p)."""
        return (self._t_in[ei, p], self._t_last[ei, p],
                self._cur_order[ei, p], self._cur_argmin[ei, p])

    def _close(self, ei, g, t_in, t_out, order, argmin):
        """Count and store events given by (eps index, path) pairs, each
        path's events of one eps in time order."""
        np.add.at(self._n1, (ei, g), order == 1)
        np.add.at(self._n2, (ei, g), order >= 2)
        np.add.at(self._argmin, (ei, g, argmin), 1)
        for e, p, a, b in zip(ei.tolist(), g.tolist(), t_in.tolist(), t_out.tolist()):
            ivs = self._ivs[e][p]
            if len(ivs) < _MAX_INTERVALS:
                ivs.append((a, b))
            else:
                self._dropped[e] += 1

    def finalize(self):
        """Close the events still open at the horizon."""
        ei, p = np.nonzero(self._below)
        self._close(ei, p, *self._stored(ei, p))
        self._below[:] = False

    @property
    def dropped_intervals(self) -> dict[float, int]:
        """Intervals per eps not stored because a path held the maximum."""
        return dict(zip(self.eps_list, self._dropped))

    # ----- summaries -----

    def event_rates(self, eps: float) -> dict:
        """``path_event_rates`` at eps: the fractions of paths with an
        order-1, an order->=2 and any event."""
        return path_event_rates(self.events_order1[eps], self.events_order2[eps])

    def pooled_counts(self) -> dict[float, int]:
        """Summed per-path box counts at each scale (N_total ~ delta^-d)."""
        return {s: int(self._occ[:, a:a + n].sum())
                for s, a, n in zip(self.scales, self._box0, self._n_boxes)}

    def pooled_dimension(self) -> DimensionEstimate:
        return fit_box_dimension(self.pooled_counts())

    def argmin_fraction(self, eps: float, root_index: int) -> float:
        """Fraction of events (pooled) whose deepest root is the given one."""
        counts = self.argmin_counts[eps]
        total = counts.sum()
        if total == 0:
            return float("nan")
        return float(counts[:, root_index].sum() / total)
