"""Coefficient models (diffusion, background drift, repulsion coupling)
for the particle SDE, preset catalogue, and the closed-form / grid-based
collision-dimension predictor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .roots import RootSystem

PRESETS = ("dyson", "bessel_general", "bessel_b", "wishart", "jacobi")


@dataclass(frozen=True)
class CoefficientModel:
    """The (sigma, b, k_alpha) triple defining the particle SDE.

    ``sigma`` and ``drift_b`` act elementwise on coordinate arrays;
    ``coupling(x, R)`` maps states of shape (..., N) to per-positive-root
    values of shape (..., M).  Evaluators must be pure; instances are
    immutable and safe to share across workers.

    ``bounds`` is the closed-form collision-dimension prediction, which
    ``dimension_bound_predictor`` returns as it is; None makes the predictor
    sample the coupling-to-diffusion ratio on a grid.  ``monotone`` declares
    that drift and coupling are both monotone (assumptions A2 and A3): the
    grid path then trusts its lower bound to hold almost surely.
    """

    sigma: Callable[[np.ndarray], np.ndarray]
    drift_b: Callable[[np.ndarray], np.ndarray]
    coupling: Callable[[np.ndarray, RootSystem], np.ndarray]
    bounds: Optional[DimensionBounds] = None
    monotone: bool = False

    def coupling_values(self, x: np.ndarray, R: RootSystem) -> np.ndarray:
        return self.coupling(np.asarray(x, dtype=float), R)

    def unit_constants(self, R: RootSystem) -> Optional[np.ndarray]:
        """The ``ConstantCoupling`` values on ``R`` if sigma = 1, b = 0; else None."""
        if (self.sigma is _ones and self.drift_b is _zeros
                and isinstance(self.coupling, ConstantCoupling)):
            return self.coupling.values(R)
        return None


def _ones(y) -> np.ndarray:  # unit diffusion, float, of the shape of y
    return np.ones(np.shape(y))


def _zeros(y) -> np.ndarray:  # zero background drift, float, of the shape of y
    return np.zeros(np.shape(y))


class ConstantCoupling:
    """A coupling constant in x: ``values(R)`` is the cached, read-only (M,)
    array of constants on ``R``; a call fills a fresh (..., M) array with it."""

    def __init__(self, values_per_root: Callable[[RootSystem], np.ndarray]):
        self._per_root = values_per_root
        self._last = (None, None)  # the last root system seen and its constants

    def values(self, R: RootSystem) -> np.ndarray:
        seen = self._last  # one read, so a concurrent call cannot mix two pairs
        if seen[0] is not R:
            vals = np.array(self._per_root(R), dtype=float)
            vals.flags.writeable = False
            seen = self._last = (R, vals)
        return seen[1]

    def __call__(self, x: np.ndarray, R: RootSystem) -> np.ndarray:
        out = np.empty(np.shape(x)[:-1] + (R.M,))
        out[...] = self.values(R)
        return out


def _pair_indices(R: RootSystem) -> tuple[np.ndarray, np.ndarray]:
    """(i, j) of each positive root e_j - e_i of an A system."""
    cols = np.nonzero(R.positive_matrix)[1]  # row by row, so i < j in each
    return cols[::2].copy(), cols[1::2].copy()  # contiguous: faster to index by


class _PairCoupling:
    """k_alpha(x) = f(x_i, x_j) at each root alpha = e_j - e_i of an A
    system; the index pairs are found once per root system, as
    ``ConstantCoupling`` finds its constants."""

    def __init__(self, preset: str, f: Callable[[np.ndarray, np.ndarray], np.ndarray]):
        self._preset, self._f = preset, f
        self._last = (None, None)  # the last root system seen and its pairs

    def __call__(self, x: np.ndarray, R: RootSystem) -> np.ndarray:
        seen = self._last
        if seen[0] is not R:
            if R.family != "A":
                raise ValueError(f"{self._preset} preset runs on an A root system")
            seen = self._last = (R, _pair_indices(R))
        ii, jj = seen[1]
        return self._f(x[..., ii], x[..., jj])


def _exact(d: float, note: str = "") -> DimensionBounds:
    """Closed-form bounds: the dimension is max(0, d)."""
    d = max(0.0, d)
    return DimensionBounds(d, d, None, True, note)


def make_preset(name: str, **params) -> CoefficientModel:
    """Build one of the preset coefficient models.

    dyson:          sigma=1, b=0, k_alpha = k on an A system (k > 0)
    bessel_general: sigma=1, b=0, reflection-invariant per-root constants
    bessel_b:       sigma=1, b=0, k1 on {e_i}, k2 on {e_j +/- e_i} (B system)
    wishart:        sigma(y)=2*sqrt(y), b=kappa*a, k_ij(y)=kappa*(y_i+y_j)
                    on an A system in the y coordinates
    jacobi:         sigma(x)=sqrt(1-x^2), b(x)=k[p-q-(p+q)x]/2,
                    k_ij(x)=k(1-x_i*x_j) on an A system in (-1, 1)

    All but bessel_general carry closed-form dimension ``bounds``: dyson
    1/2 - k; bessel_b 1/2 - min(k1, k2); wishart (1 - kappa)/2; jacobi an
    upper bound 1/2 - k and no non-trivial lower bound.
    """
    if name == "dyson":
        k = float(params["k"])
        if k <= 0:
            raise ValueError("dyson preset requires k > 0")
        return CoefficientModel(
            sigma=_ones, drift_b=_zeros,
            coupling=ConstantCoupling(lambda R: np.full(R.M, k)),
            bounds=_exact(0.5 - k),
        )

    if name == "bessel_general":
        k_values = params["k_values"]

        def per_root(R: RootSystem) -> np.ndarray:
            arr = np.broadcast_to(np.asarray(k_values, dtype=float), (R.M,))
            if np.any(arr <= 0):
                raise ValueError("coupling constants must be positive")
            return arr

        return CoefficientModel(
            sigma=_ones, drift_b=_zeros,
            coupling=ConstantCoupling(per_root),
        )

    if name == "bessel_b":
        k1, k2 = float(params["k1"]), float(params["k2"])
        if k1 <= 0 or k2 <= 0:
            raise ValueError("bessel_b preset requires k1 > 0 and k2 > 0")

        def per_root(R: RootSystem) -> np.ndarray:
            if R.family != "B":
                raise ValueError("bessel_b preset requires a B root system")
            lengths = (R.positive_matrix != 0).sum(axis=1)
            return np.where(lengths == 1, k1, k2)

        return CoefficientModel(
            sigma=_ones, drift_b=_zeros,
            coupling=ConstantCoupling(per_root),
            bounds=_exact(0.5 - min(k1, k2)),
        )

    if name == "wishart":
        kappa, a = float(params["kappa"]), float(params["a"])
        if kappa <= 0 or a <= 0:
            raise ValueError("wishart preset requires kappa > 0 and a > 0")

        return CoefficientModel(
            sigma=lambda y: 2.0 * np.sqrt(np.maximum(np.asarray(y, dtype=float), 0.0)),
            drift_b=lambda y: np.full_like(np.asarray(y, dtype=float), kappa * a),
            coupling=_PairCoupling(name, lambda xi, xj: kappa * (xi + xj)),
            bounds=_exact(0.5 * (1.0 - kappa),
                          "valid when particles do not hit zero: a >= 2/kappa + N - 1"),
        )

    if name == "jacobi":
        k = float(params["k"])
        p, q = float(params["p"]), float(params["q"])
        N = int(params["N"])
        if k <= 0:
            raise ValueError("jacobi preset requires k > 0")
        if min(p, q) < N - 1 + 2.0 / k:
            raise ValueError(
                f"jacobi preset requires min(p, q) >= N - 1 + 2/k "
                f"= {N - 1 + 2.0 / k:g} for a unique strong solution"
            )

        return CoefficientModel(
            sigma=lambda y: np.sqrt(np.maximum(1.0 - np.asarray(y, dtype=float) ** 2, 0.0)),
            drift_b=lambda y: 0.5 * k * (p - q - (p + q) * np.asarray(y, dtype=float)),
            coupling=_PairCoupling(name, lambda xi, xj: k * (1.0 - xi * xj)),
            bounds=DimensionBounds(
                None, max(0.0, 0.5 - k), None, True,
                "no non-trivial lower bound: the coupling-to-diffusion ratio "
                "is unbounded near the walls",
            ),
        )

    raise ValueError(f"unknown preset {name!r}; expected one of {PRESETS}")


def wishart_param_map(k1: float, k2: float, N: int) -> tuple[float, float]:
    """Map B-type coupling constants (k1, k2) to Wishart (kappa, a).

    kappa = 2*k2 and kappa*a = 2*k1 + 2*k2*(N - 1) + 1.
    """
    if k1 <= 0 or k2 <= 0:
        raise ValueError("k1 and k2 must be positive")
    kappa = 2.0 * k2
    a = (2.0 * k1 + 2.0 * k2 * (N - 1) + 1.0) / kappa
    return kappa, a


def chamber_grid(R: RootSystem, n_points: int = 4096, scale: float = 1.0,
                 seed: int = 0, margin: float = 1e-3) -> np.ndarray:
    """Deterministic sample of interior chamber points, shape (n, N).

    Uniform draws are folded into the chamber (sorted for A, sorted absolute
    values for B/D) and pushed off the walls by ``margin``.
    """
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-scale, scale, size=(n_points, R.N))
    if R.family == "A":
        pts = np.sort(pts, axis=1)
    else:
        pts = np.sort(np.abs(pts), axis=1)
    # separate coordinates so all projections are bounded away from zero
    pts += margin * scale * np.arange(1, R.N + 1)
    proj = pts @ R.positive_matrix.T
    keep = np.all(proj > 0, axis=1)
    return pts[keep]


@dataclass(frozen=True)
class BoundConstants:
    """Grid estimates of the coupling-to-diffusion ratio constants.

    ratio(y, beta) = |beta|^2 k_beta(y) / sum_i beta_i^2 sigma^2(y_i);
    eta_check / eta_hat are its inf / sup per simple root, h_tilde the
    sup over roots alpha and coordinates i of k_alpha / sigma^2(y_i), and
    b_hat = sup |b / sigma^2|.
    """

    eta_check: dict
    eta_hat: dict
    h_tilde: float
    b_hat: float


def compute_bound_constants(model: CoefficientModel, R: RootSystem,
                            grid: np.ndarray) -> BoundConstants:
    """Estimate all dimension-bound constants by sampling the grid."""
    grid = np.asarray(grid, dtype=float)
    pm = R.positive_matrix
    sig2 = model.sigma(grid) ** 2  # (n, N)
    kvals = model.coupling_values(grid, R)  # (n, M)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = (pm**2).sum(axis=1) * kvals / (sig2 @ (pm.T**2))
        # one root at a time: (n, N) temporaries, never (n, M, N)
        h_tilde = max(float((kvals[:, i, None] / sig2).max()) for i in range(R.M))
        b_hat = float(np.abs(model.drift_b(grid) / sig2).max())
    simple_idx = [R.index(b) for b in R.simple_roots]
    eta_check = {R.positive_roots[i]: float(ratios[:, i].min()) for i in simple_idx}
    eta_hat = {R.positive_roots[i]: float(ratios[:, i].max()) for i in simple_idx}
    return BoundConstants(eta_check, eta_hat, h_tilde, b_hat)


@dataclass(frozen=True)
class DimensionBounds:
    lower: Optional[float]
    upper: float
    constants: Optional[BoundConstants]  # None for the closed forms
    closed_form: bool
    note: str = ""


def dimension_bound_predictor(model: CoefficientModel, R: RootSystem,
                              grid: Optional[np.ndarray] = None) -> DimensionBounds:
    """Predicted bounds on the collision-time Hausdorff dimension.

    A model with closed-form ``bounds`` (the dyson, bessel_b, wishart and
    jacobi presets) gets them back without any grid: ``grid`` is ignored and
    ``constants`` is None.  Otherwise the bounds are computed from grid
    inf/sup of the ratio on ``grid`` (default: a 64^min(N,3)-point chamber
    grid), and ``constants`` holds them; a ratio that diverges on the grid
    is an error.
    """
    if model.bounds is not None:
        model.coupling_values(np.zeros(R.N), R)  # raises on a preset/family mismatch
        return model.bounds

    if grid is None:
        grid = chamber_grid(R, n_points=64 ** min(R.N, 3), seed=7)
    constants = compute_bound_constants(model, R, grid)
    if not np.isfinite(constants.b_hat) or not np.isfinite(constants.h_tilde):
        raise ValueError("ratio b/sigma^2 or k/sigma^2 diverges on the grid")

    upper = max(0.0, 0.5 - min(constants.eta_check.values()))
    if model.monotone:
        lower = max(0.0, 0.5 - min(constants.eta_hat.values()))
        note = "lower bound holds almost surely (monotone drift + coupling)"
    else:
        lower = max(0.0, 0.5 - max(constants.eta_hat.values()))
        note = "lower bound holds with positive probability only"
    return DimensionBounds(lower, upper, constants, False, note)
