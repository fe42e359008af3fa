"""Euler-Maruyama integration of the repulsive particle SDE.

The drift is singular on the chamber walls, so stepping is adaptive
(dt proportional to the smallest squared root projection) with
reject-and-halve when a proposal leaves the chamber.  Ensembles are
integrated in lock-step over compact arrays of the running paths (lanes),
which carry each state's root projections and their minimum from the
accepted proposal; coefficients that are constant are evaluated once per
run.  Every trajectory draws noise from its own counter-based stream, so
results do not depend on chunking or workers.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .models import CoefficientModel
from .rng import trajectory_generator
from .roots import RootSystem, resolve_weights
from .sympoly import exclusion_rows

_NOISE_BLOCK = 2048
_CHUNK_ROWS = 1024  # accepted rows per chunk when only recording
_COLLECTOR_CHUNK_ROWS = 4096  # accepted rows per chunk fed to a collector
_ENTRY_EPS = 1e-8  # pseudo-gap floor and first sub-step of the entry push
_ENTRY_TRIES = 80  # sub-step doublings before the entry push gives up


@dataclass(frozen=True)
class StepPolicy:
    """Adaptive step-size policy with one wall rule.

    dt = clamp(safety * min_alpha <x,alpha>^2, dt_min, dt_max), halved
    (with fresh noise) on each proposal that leaves the open chamber; a
    path is stuck after ``max_rejects`` consecutive halvings and exploded
    once |x| exceeds ``explosion_radius``.
    """

    dt_max: float = 1e-3
    dt_min: float = 1e-9
    safety: float = 0.1
    explosion_radius: float = 1e6
    max_rejects: int = 60

    def __post_init__(self):
        if self.dt_min <= 0 or self.dt_max < self.dt_min:
            raise ValueError("need 0 < dt_min <= dt_max")


@dataclass
class TrajectoryRecord:
    """One sampled path with step metadata and seed lineage."""

    times: np.ndarray  # (n+1,)
    states: np.ndarray  # (n+1, N)
    step_sizes: np.ndarray  # (n,)
    master_seed: int
    traj_index: int
    lifetime_flag: bool  # explosion proxy triggered before horizon
    stuck: bool  # persistent rejection at the dt floor
    rejected_steps: int


@dataclass
class EnsembleResult:
    """Summary output of a vectorized ensemble integration."""

    final_states: np.ndarray  # (P, N)
    final_times: np.ndarray  # (P,)
    lifetime_flags: np.ndarray  # (P,) bool
    stuck_flags: np.ndarray  # (P,) bool
    rejected_steps: np.ndarray  # (P,) int
    accepted_steps: np.ndarray  # (P,) int
    records: Optional[list]  # TrajectoryRecords, None unless recorded


def _repulsive_drift(proj: np.ndarray, kvals: np.ndarray,
                     pm: np.ndarray) -> np.ndarray:
    """sum_alpha k_alpha(x) * alpha / <x,alpha> for a batch of states."""
    return (kvals / proj) @ pm


def _noise_blocks(P: int, N: int) -> np.ndarray:
    """A (P, _NOISE_BLOCK, N) float array in an anonymous memory map of its
    own, unmapped when the array is freed.

    From the malloc heap, a block this size (4.9 MB at P = 100, N = 3) is
    freed and requested again by every ensemble; once other allocations
    have split the freed space, the heap grows by the block again, so the
    peak RSS of a long run depends on allocation order (49.6 or 53.1 MB on
    the same 100-path ensembles).
    """
    n = P * _NOISE_BLOCK * N
    buf = mmap.mmap(-1, max(8 * n, 1))  # a map cannot be empty
    return np.frombuffer(buf, dtype=float, count=n).reshape(P, _NOISE_BLOCK, N)


def _propose(model: CoefficientModel, R: RootSystem, xs: np.ndarray,
             proj: np.ndarray, dt: np.ndarray, noise: np.ndarray,
             unit_k=None):
    """Euler-Maruyama proposals from interior states ``xs`` (n, N) with
    projections ``proj``, step sizes ``dt`` (n,) and normals ``noise``.

    Returns (proposals, their projections, each row's smallest projection,
    the smallest of those, mask of the rows inside), the mask being None
    when every row is inside (a NaN row is not).  Given ``unit_k``, the
    model's ``unit_constants()``, sigma = 1 and b = 0 are not evaluated:
    same bits.
    """
    pm = R.positive_matrix
    dtc = dt[:, None]
    if unit_k is not None:
        # xs + (sqrt(dt) noise + drift dt), summed in place with each sum's
        # operands swapped: IEEE addition is commutative, so same bits
        prop = _repulsive_drift(proj, unit_k, pm)
        prop *= dtc
        prop += np.sqrt(dtc) * noise
        prop += xs
    else:
        prop = xs + (
            model.sigma(xs) * np.sqrt(dtc) * noise
            + model.drift_b(xs) * dtc
            + _repulsive_drift(proj, model.coupling_values(xs, R), pm) * dtc
        )
    prop_proj = prop @ pm.T
    # ufunc reductions: ndarray.min adds a Python-level wrapper to each call
    prop_min = np.minimum.reduce(prop_proj, axis=1)
    smin = np.minimum.reduce(prop_min)
    # smin > 0 is False on NaN
    return prop, prop_proj, prop_min, smin, None if smin > 0.0 else prop_min > 0.0


def boundary_entry_push(x: Sequence[float], model: CoefficientModel,
                        R: RootSystem) -> np.ndarray:
    """Deterministic push off the chamber boundary.

    Applies only the repulsive drift with pseudo-gap max(<x,alpha>,
    ``_ENTRY_EPS``) over a time ``_ENTRY_EPS``, doubling the sub-step until
    the result is interior.  The exact process enters the interior
    instantly; this is the numerical surrogate for that entry.
    """
    x = np.asarray(x, dtype=float)
    pm = R.positive_matrix
    if np.min(pm @ x) < -1e-12:
        raise ValueError("starting point lies outside the closed chamber")
    dt0 = _ENTRY_EPS
    for _ in range(_ENTRY_TRIES):
        proj = np.maximum(pm @ x, _ENTRY_EPS)
        kvals = model.coupling_values(x, R)
        cand = x + _repulsive_drift(proj, kvals, pm) * dt0
        if np.min(pm @ cand) > 0:
            return cand
        dt0 *= 2.0
    raise RuntimeError("boundary entry failed: repulsive push never reached the interior")


def simulate_ensemble(model: CoefficientModel, R: RootSystem,
                      x0: np.ndarray, horizon: float, policy: StepPolicy,
                      master_seed: int, n_paths: int, base_index: int = 0,
                      seed_extra: tuple[int, ...] = (),
                      collector=None, record: bool = False) -> EnsembleResult:
    """Integrate ``n_paths`` trajectories of the SDE to time ``horizon``.

    ``x0`` is one configuration shared by all paths or an (n_paths, N)
    array.  ``collector``, if given, receives chunks of about
    ``_COLLECTOR_CHUNK_ROWS`` accepted states (the last may be smaller; records
    alone use ``_CHUNK_ROWS``) via ``collector.update(t_new, proj_new, paths)``:
    times, projections and path indices, each path's rows in time order; use
    it for streaming analytics when records would not fit.
    """
    pm = R.positive_matrix
    P, N = n_paths, R.N
    x0 = np.asarray(x0, dtype=float)
    states = np.broadcast_to(x0, (P, N)).astype(float)
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")

    # boundary starts get the deterministic entry push at t = 0
    start_proj = states @ pm.T
    for p in np.flatnonzero(start_proj.min(axis=1) <= 0):
        states[p] = boundary_entry_push(states[p], model, R)

    gens = [trajectory_generator(master_seed, base_index + p, *seed_extra) for p in range(P)]
    blocks = _noise_blocks(P, N)

    t = np.zeros(P)
    rejected_steps = np.zeros(P, dtype=np.int64)
    accepted_steps = np.zeros(P, dtype=np.int64)
    lifetime = np.zeros(P, dtype=bool)
    stuck = np.zeros(P, dtype=bool)

    # recorded rows (path, time, state, dt): the start rows (dt a placeholder),
    # then chunks.  Each iteration's accepted rows of the fields a consumer
    # reads are kept by reference, as the loop writes none of them in place
    rec = [(np.arange(P), np.zeros(P), states.copy(), np.zeros(P))] if record else None
    pend, n_pend = [], 0
    # the one choice of chunk size (measured on a 2-vCPU host).  A collector
    # makes one pass per chunk: at 1,024 rows ensemble_a3 made 1,269 passes per
    # 10 operations, not 322 (update 77-90 ms per operation, not 45; peak RSS
    # 52 MB, not 49).  A recorded single path pends one row tuple per
    # iteration: at 4,096 rows the diagnostics B4 path peaked at 47.7 MB, not 46.
    chunk_rows = _CHUNK_ROWS if collector is None else _COLLECTOR_CHUNK_ROWS

    # lane l runs path g[l] at x[l] and carries its projections proj[l] and
    # their minimum pmin[l]; lane arrays are written back when it leaves
    g = np.arange(P) if horizon > 0 else np.arange(0)
    x = states[g]
    proj = x @ pm.T
    pmin = proj.min(1)
    tl = np.zeros(g.size)
    scale = np.ones(g.size)  # exactly 2**-(consecutive rejects)
    n_rej = np.zeros(g.size, dtype=np.int64)  # accepted = it - rejected
    dt_min, dt_max, safety = policy.dt_min, policy.dt_max, policy.safety
    radius = policy.explosion_radius
    # no |x_i| exceeds radius when sum x_i^2 < radius^2 / 2: a rounded sum
    # of squares is at least its largest rounded term, and inf or NaN fails
    half_r2 = radius * radius / 2
    stuck_scale = 0.5 ** policy.max_rejects
    t_done = horizon * (1.0 - 1e-12)
    unit_k = model.unit_constants()  # None unless sigma = 1, b = 0, constant k
    it = 0  # iterations so far = proposals made by every running lane
    # all_ok: the last iteration accepted every lane, so every scale is 1
    # and smin, the smallest proposal projection, is at most every pmin;
    # tmax >= max(tl), exact since dt <= dt_max and rounding is monotone;
    # prefix: the lanes run paths 0 .. g.size - 1
    all_ok, smin, tmax, prefix = True, 0.0, 0.0, True
    while g.size:
        # every lane proposes once per iteration, so all running lanes sit
        # at the same row of their noise blocks and refill together
        row = it % _NOISE_BLOCK
        if row == 0:
            for p in g:
                blocks[p] = gens[p].standard_normal((_NOISE_BLOCK, N))
        noise = blocks[:g.size, row] if prefix else blocks[g, row]

        # clamps that cannot change dt are skipped: dt <= dt_max <= horizon - tl,
        # and every dt >= dt_min when fl(fl(smin^2) safety) >= dt_min, that
        # rounding being monotone in smin
        dt = pmin**2
        dt *= safety
        if not (all_ok and smin * smin * safety >= dt_min):
            np.maximum(dt, dt_min, out=dt)
        np.minimum(dt, dt_max, out=dt)
        if not all_ok:
            dt *= scale
        if horizon - tmax < dt_max:
            np.minimum(dt, horizon - tl, out=dt)
        prop, prop_proj, prop_min, smin, ok = _propose(
            model, R, x, proj, dt, noise, unit_k)
        it += 1
        tmax += dt_max
        was_ok, all_ok = all_ok, ok is None
        if all_ok:  # take the proposals whole: no masks
            x, proj, pmin, tl = prop, prop_proj, prop_min, tl + dt
            if not was_ok:
                scale.fill(1.0)
        else:
            x = np.where(ok[:, None], prop, x)
            proj = np.where(ok[:, None], prop_proj, proj)
            pmin = np.where(ok, prop_min, pmin)
            tl = np.where(ok, tl + dt, tl)
            scale = np.where(ok, 1.0, scale * 0.5)
            n_rej += ~ok

        if (record or collector is not None) and (all_ok or ok.any()):
            if not record:
                rows = (g, tl, proj)
            elif collector is None:
                rows = (g, tl, x, dt)
            else:
                rows = (g, tl, x, dt, proj)
            pend.append(rows if all_ok else [a[ok] for a in rows])
            n_pend += pend[-1][0].size

        # lanes leave on explosion, max_rejects or the horizon: scalar tests
        # first; max(tl) is taken only when its bound reaches the horizon
        if tmax >= t_done:
            tmax = np.maximum.reduce(tl)  # also a bound for the lanes that stay
        if (tmax >= t_done
                or not np.vdot(x, x) < half_r2
                and np.maximum.reduce(np.abs(x), axis=None) > radius
                or not all_ok and np.minimum.reduce(scale) < stuck_scale):
            if all_ok:
                ok = np.ones(g.size, dtype=bool)
            boom = ok & (np.abs(x).max(1) > radius)
            dead = ~ok & (scale < stuck_scale)
            leave = boom | dead | (tl >= t_done)
            out = g[leave]
            lifetime[g[boom]] = True
            stuck[g[dead]] = True
            states[out] = x[leave]
            t[out] = tl[leave]
            accepted_steps[out] = it - n_rej[leave]
            rejected_steps[out] = n_rej[leave]
            g, x, proj, pmin, tl, scale, n_rej = (
                a[~leave] for a in (g, x, proj, pmin, tl, scale, n_rej))
            prefix = not g.size or g[-1] == g.size - 1

        # a chunk is handed on at chunk_rows rows, or at _CHUNK_ROWS pending
        # iterations, whose small arrays outweigh their rows when few lanes run
        if n_pend >= chunk_rows or len(pend) >= _CHUNK_ROWS or pend and not g.size:
            chunk = pend[0] if len(pend) == 1 else [np.concatenate(c) for c in zip(*pend)]
            pend, n_pend = [], 0
            path, times, *fields = chunk
            if collector is not None:
                collector.update(times, fields.pop(), path)
            if record:
                rec.append((path, times, *fields))

    records = None
    if record:  # a stable sort by path keeps each path's rows in time order
        path, times, xs, dts = (np.concatenate(c) for c in zip(*rec))
        rec = None  # free the chunks before the sorted copies are made
        order = np.argsort(path, kind="stable")
        times, xs, dts = times[order], xs[order], dts[order]
        ends = np.cumsum(np.bincount(path, minlength=P)).tolist()
        records = [
            TrajectoryRecord(
                times=times[a:b],
                states=xs[a:b],
                step_sizes=dts[a + 1:b],
                master_seed=master_seed,
                traj_index=base_index + p,
                lifetime_flag=bool(lifetime[p]),
                stuck=bool(stuck[p]),
                rejected_steps=int(rejected_steps[p]),
            )
            for p, a, b in zip(range(P), [0] + ends, ends)
        ]
    return EnsembleResult(
        final_states=states, final_times=t, lifetime_flags=lifetime,
        stuck_flags=stuck, rejected_steps=rejected_steps,
        accepted_steps=accepted_steps, records=records,
    )


def simulate_trajectory(model: CoefficientModel, R: RootSystem,
                        x0: Sequence[float], horizon: float,
                        policy: StepPolicy, seed: int,
                        traj_index: int = 0) -> TrajectoryRecord:
    """Single-path convenience wrapper around ``simulate_ensemble``.

    Identical (seed, config) input reproduces the record bit-for-bit; the
    path equals the corresponding member of any ensemble with the same
    master seed.
    """
    res = simulate_ensemble(model, R, np.asarray(x0, dtype=float), horizon,
                            policy, seed, n_paths=1, base_index=traj_index,
                            record=True)
    rec = res.records[0]
    if rec.stuck:
        raise RuntimeError(
            f"integrator stuck below dt_min at t={rec.times[-1]:.6g}, "
            f"state={rec.states[-1]}"
        )
    return rec


# ---------------------------------------------------------------------------
# drift diagnostics for the symmetric polynomials of squared projections
# ---------------------------------------------------------------------------


def _drift_tables(x, model: CoefficientModel, R: RootSystem, w, n: int):
    """Shared argument check and tables of the drift diagnostics: alpha* =
    alpha / w_alpha (rows of ``star``), <x, alpha*>, ``exclusion_rows`` of
    their squares, sigma^2, b and the couplings at x, the Gram matrix
    <alpha*, beta*>, and the weights 2 <sigma^2, a* b*> <x, a*> <x, b*>."""
    x = np.asarray(x, dtype=float)
    if not 1 <= n <= R.M:
        raise ValueError(f"degree n={n} out of range [1, {R.M}]")
    if np.min(R.positive_matrix @ x) <= 0:
        raise ValueError("drift diagnostics require an interior state")
    star = R.positive_matrix / resolve_weights(R, w)[:, None]
    sproj = star @ x
    full, one, two = exclusion_rows(sproj**2, n)
    sig2 = model.sigma(x) ** 2
    pair = 2.0 * ((star[:, None] * star) @ sig2) * sproj[:, None] * sproj
    return (star, sproj, full, one, two, sig2, model.drift_b(x),
            model.coupling_values(x, R), star @ star.T, pair)


def e_poly_drift(x: Sequence[float], model: CoefficientModel, R: RootSystem,
                 w, n: int) -> float:
    """Instantaneous drift of e_n of the squared weighted projections.

    Sums the four dt-term groups of the polynomial's semi-martingale
    decomposition: background drift, coupling double sum, diagonal and
    off-diagonal diffusion terms.  Requires an interior state.
    """
    star, sproj, _, one, two, sig2, bvals, kvals, gram, pair = _drift_tables(
        x, model, R, w, n)
    e1 = one[:, n]  # e_{n-1} without alpha_a
    off = ~np.eye(R.M, dtype=bool)
    term_b = 2.0 * float(bvals @ (star.T @ (sproj * e1)))
    term_k = 2.0 * float(np.sum(gram * np.outer(sproj * e1, kvals / sproj)))
    term_diag = float(np.sum((sig2 @ star.T**2) * e1))
    term_off = float(np.sum((pair * two[..., n - 1])[off]))
    return term_b + term_k + term_diag + term_off


def log_e_drift_components(x: Sequence[float], model: CoefficientModel,
                           R: RootSystem, w, n: int) -> np.ndarray:
    """The six drift components of -ln e_n, returned separately.

    Component 5 (index 4) is manifestly nonpositive; the sum is the full
    drift of the log-polynomial semi-martingale.  Requires e_n(x) > 0 and
    an interior state.
    """
    star, sproj, full, one, two, sig2, bvals, kvals, gram, pair = _drift_tables(
        x, model, R, w, n)
    en = full[n + 1]
    if en <= 0:
        raise ValueError("e_n vanishes at this state")
    e1, ea_n = one[:, n], one[:, n + 1]  # e_{n-1}, e_n without alpha_a
    off = ~np.eye(R.M, dtype=bool)
    A1 = float(np.sum((sig2 @ star.T**2) * (sproj**2 * e1 - ea_n) * e1)) / en**2
    A2 = float(np.sum((pair * two[..., n] ** 2)[off])) / en**2
    A3 = -float(np.sum((pair * two[..., n + 1] * two[..., n - 1])[off])) / en**2
    A6 = -float(np.sum((2.0 * gram * sproj[:, None] / sproj * e1[:, None]
                        * kvals)[off])) / en
    A4 = -2.0 * float(bvals @ (star.T @ (sproj * e1))) / en
    A5 = -2.0 * float(np.sum((star**2).sum(axis=1) * e1 * kvals)) / en
    return np.array([A1, A2, A3, A4, A5, A6])


def mc_drift_estimate(x: Sequence[float], model: CoefficientModel,
                      R: RootSystem, func, h: float = 1e-5,
                      n_samples: int = 20000, seed: int = 0):
    """Monte Carlo estimate of the drift of func(X_t) at an interior state.

    Takes one Euler step of size h with antithetic noise pairs, so the
    O(sqrt(h)) martingale part cancels exactly sample by sample:
    [f(x_plus) + f(x_minus) - 2 f(x)] / (2h).  Returns (mean, stderr);
    used as the independent oracle for the closed-form drift formulas.

    ``func`` is batched: it maps states of shape (..., N) to values of
    shape (...), and is called once on x and once on each of the
    (n_samples, N) arrays of plus and minus states, e.g.
    ``lambda y: elementary_rows((y @ R.positive_matrix.T) ** 2, n)[..., n]``.
    """
    x = np.asarray(x, dtype=float)
    pm = R.positive_matrix
    if np.min(pm @ x) <= 0:
        raise ValueError("drift estimate requires an interior state")
    rng = np.random.default_rng(seed)
    proj = pm @ x
    kvals = model.coupling_values(x, R)
    det = (model.drift_b(x) + _repulsive_drift(proj, kvals, pm)) * h
    scale = model.sigma(x) * np.sqrt(h)
    f0 = func(x)
    noise = rng.standard_normal((n_samples, x.size))
    fp = func(x + det + scale * noise)
    fm = func(x + det - scale * noise)
    vals = (fp + fm - 2.0 * f0) / (2.0 * h)
    mean = float(vals.mean())
    stderr = float(vals.std(ddof=1) / np.sqrt(n_samples))
    return mean, stderr
