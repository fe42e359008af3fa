"""Coefficient models (diffusion, background drift, repulsion coupling)
for the particle SDE, preset catalogue, and the closed-form / grid-based
collision-dimension predictor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .roots import RootSystem

# preset name -> (the family it runs on, None for any; its parameter names;
# the open interval its coordinates live in, None for the whole line)
PRESETS = {
    "dyson": ("A", ("k",), None),
    "bessel_general": (None, ("k_values",), None),
    "bessel_b": ("B", ("k1", "k2"), None),
    "wishart": ("A", ("kappa", "a"), (0.0, np.inf)),
    "jacobi": ("A", ("k", "p", "q"), (-1.0, 1.0)),
}

# (preset, its parameters, family, N, interior state) at which run_verify
# checks the closed-form drifts against Monte Carlo
VERIFY_DRIFT_CASES = (
    ("dyson", {"k": 0.6}, "A", 2, (-0.7, 0.7)),
    ("bessel_b", {"k1": 0.8, "k2": 0.6}, "B", 2, (0.6, 1.5)),
)


@dataclass(frozen=True)
class CoefficientModel:
    """The (sigma, b, k_alpha) triple defining the particle SDE on one root
    system.

    ``sigma`` and ``drift_b`` act elementwise on coordinate arrays;
    ``coupling(x)`` maps float states of shape (..., N) to per-positive-root
    values of shape (..., M), in the order of the root system the model was
    built for.  Evaluators must be pure; instances are immutable and safe to
    share across workers.

    ``bounds`` is the closed-form collision-dimension prediction of a model
    whose ``unit_constants()`` is None, which ``dimension_bound_predictor``
    returns as it is; None makes the predictor sample the
    coupling-to-diffusion ratio on a grid.  ``monotone`` declares that drift
    and coupling are both monotone (assumptions A2 and A3): the grid path
    then trusts its lower bound to hold almost surely.
    """

    sigma: Callable[[np.ndarray], np.ndarray]
    drift_b: Callable[[np.ndarray], np.ndarray]
    coupling: Callable[[np.ndarray], np.ndarray]
    bounds: Optional[DimensionBounds] = None
    monotone: bool = False

    def unit_constants(self) -> Optional[np.ndarray]:
        """The ``ConstantCoupling`` values if sigma = 1 and b = 0; else None."""
        if (self.sigma is _ones and self.drift_b is _zeros
                and isinstance(self.coupling, ConstantCoupling)):
            return self.coupling.values
        return None


def _ones(y) -> np.ndarray:  # unit diffusion, float, of the shape of y
    return np.ones(np.shape(y))


def _zeros(y) -> np.ndarray:  # zero background drift, float, of the shape of y
    return np.zeros(np.shape(y))


class ConstantCoupling:
    """A coupling constant in x: ``values`` is the read-only (M,) array of
    constants; a call fills a fresh (..., M) array with it."""

    def __init__(self, values):
        self.values = np.array(values, dtype=float)
        self.values.flags.writeable = False

    def __call__(self, x: np.ndarray) -> np.ndarray:
        out = np.empty(np.shape(x)[:-1] + self.values.shape)
        out[...] = self.values
        return out


def _pair_indices(R: RootSystem) -> tuple[np.ndarray, np.ndarray]:
    """(i, j) of each positive root e_j - e_i of an A system."""
    cols = np.nonzero(R.positive_matrix)[1]  # row by row, so i < j in each
    return cols[::2].copy(), cols[1::2].copy()  # contiguous: faster to index by


def _exact(d: float, note: str = "") -> DimensionBounds:
    """Closed-form bounds: the dimension is max(0, d)."""
    d = max(0.0, d)
    return DimensionBounds(d, d, None, True, note)


def make_preset(name: str, R: RootSystem, **params) -> CoefficientModel:
    """Build one of the preset coefficient models for the root system ``R``.

    dyson:          sigma=1, b=0, k_alpha = k on an A system (k > 0)
    bessel_general: sigma=1, b=0, k_values one constant, or one per positive
                    root equal on roots of equal length (Weyl-invariant)
    bessel_b:       sigma=1, b=0, k1 on {e_i}, k2 on {e_j +/- e_i} (B system)
    wishart:        sigma(y)=2*sqrt(y), b=kappa*a, k_ij(y)=kappa*(y_i+y_j)
                    on an A system in the y coordinates
    jacobi:         sigma(x)=sqrt(1-x^2), b(x)=k[p-q-(p+q)x]/2,
                    k_ij(x)=k(1-x_i*x_j) on an A system in (-1, 1)

    ``PRESETS`` names each preset's family, parameters and state interval;
    a preset on another family, a parameter out of range and the jacobi wall
    condition raise ValueError.  The predictor gives the first three the
    exact dimension 1/2 - min k; wishart carries its closed-form ``bounds``
    (1 - kappa)/2, and jacobi an upper bound 1/2 - k and no non-trivial
    lower bound.
    """
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; expected one of {tuple(PRESETS)}")
    family = PRESETS[name][0]
    if family is not None and R.family != family:
        raise ValueError(f"preset {name!r} requires root system family {family!r}")

    if name == "dyson":
        k = float(params["k"])
        if k <= 0:
            raise ValueError("dyson preset requires k > 0")
        return CoefficientModel(
            sigma=_ones, drift_b=_zeros,
            coupling=ConstantCoupling(np.full(R.M, k)),
        )

    if name == "bessel_general":
        k_values = np.asarray(params["k_values"], dtype=float)
        if k_values.shape not in ((), (1,), (R.M,)):
            raise ValueError(f"bessel_general k_values must be one value or M = {R.M} "
                             f"values, not {k_values.size}")
        k_values = np.broadcast_to(k_values, (R.M,))
        if np.any(k_values <= 0):
            raise ValueError("coupling constants must be positive")
        # roots of equal length form one Weyl orbit in A, B and D
        lengths = (R.positive_matrix**2).sum(axis=1)
        if any(np.ptp(k_values[lengths == n]) for n in np.unique(lengths)):
            raise ValueError("bessel_general k_values must be equal on roots of "
                             "equal length, to be invariant under the Weyl group")
        return CoefficientModel(
            sigma=_ones, drift_b=_zeros, coupling=ConstantCoupling(k_values),
        )

    if name == "bessel_b":
        k1, k2 = float(params["k1"]), float(params["k2"])
        if k1 <= 0 or k2 <= 0:
            raise ValueError("bessel_b preset requires k1 > 0 and k2 > 0")
        lengths = (R.positive_matrix != 0).sum(axis=1)
        return CoefficientModel(
            sigma=_ones, drift_b=_zeros,
            coupling=ConstantCoupling(np.where(lengths == 1, k1, k2)),
        )

    ii, jj = _pair_indices(R)  # wishart and jacobi: k_alpha = f(x_i, x_j)
    if name == "wishart":
        kappa, a = float(params["kappa"]), float(params["a"])
        if kappa <= 0 or a <= 0:
            raise ValueError("wishart preset requires kappa > 0 and a > 0")

        return CoefficientModel(
            sigma=lambda y: 2.0 * np.sqrt(np.maximum(np.asarray(y, dtype=float), 0.0)),
            drift_b=lambda y: np.full_like(np.asarray(y, dtype=float), kappa * a),
            coupling=lambda x: kappa * (x[..., ii] + x[..., jj]),
            bounds=_exact(0.5 * (1.0 - kappa),
                          "valid when particles do not hit zero: a >= 2/kappa + N - 1"),
        )

    k = float(params["k"])  # jacobi
    p, q = float(params["p"]), float(params["q"])
    if k <= 0:
        raise ValueError("jacobi preset requires k > 0")
    if min(p, q) < R.N - 1 + 2.0 / k:
        raise ValueError(
            f"jacobi preset requires min(p, q) >= N - 1 + 2/k "
            f"= {R.N - 1 + 2.0 / k:g} for a unique strong solution"
        )

    return CoefficientModel(
        sigma=lambda y: np.sqrt(np.maximum(1.0 - np.asarray(y, dtype=float) ** 2, 0.0)),
        drift_b=lambda y: 0.5 * k * (p - q - (p + q) * np.asarray(y, dtype=float)),
        coupling=lambda x: k * (1.0 - x[..., ii] * x[..., jj]),
        bounds=DimensionBounds(
            None, max(0.0, 0.5 - k), None, True,
            "no non-trivial lower bound: the coupling-to-diffusion ratio "
            "is unbounded near the walls",
        ),
    )


def wishart_param_map(k1: float, k2: float, N: int) -> tuple[float, float]:
    """Map B-type coupling constants (k1, k2) to Wishart (kappa, a).

    kappa = 2*k2 and kappa*a = 2*k1 + 2*k2*(N - 1) + 1.
    """
    if k1 <= 0 or k2 <= 0:
        raise ValueError("k1 and k2 must be positive")
    kappa = 2.0 * k2
    a = (2.0 * k1 + 2.0 * k2 * (N - 1) + 1.0) / kappa
    return kappa, a


_GRID_MARGIN = 1e-3  # chamber_grid's push off the walls, relative to scale


def chamber_grid(R: RootSystem, n_points: int, seed: int,
                 scale: float = 1.0) -> np.ndarray:
    """Deterministic sample of interior chamber points, shape (n, N).

    Uniform draws are folded into the chamber (sorted for A, sorted absolute
    values for B/D) and pushed off the walls by ``_GRID_MARGIN``.
    """
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-scale, scale, size=(n_points, R.N))
    if R.family == "A":
        pts = np.sort(pts, axis=1)
    else:
        pts = np.sort(np.abs(pts), axis=1)
    # separate coordinates so all projections are bounded away from zero
    pts += _GRID_MARGIN * scale * np.arange(1, R.N + 1)
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
    kvals = model.coupling(grid)  # (n, M)
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
    note: str


def dimension_bound_predictor(model: CoefficientModel, R: RootSystem,
                              grid: Optional[np.ndarray] = None) -> DimensionBounds:
    """Predicted bounds on the collision-time Hausdorff dimension.

    A model with sigma = 1, b = 0 and constant couplings k (its
    ``unit_constants()``) has the exact dimension max(0, 1/2 - min k); a
    model with closed-form ``bounds`` (the wishart and jacobi presets) gets
    them back.  Neither evaluates a grid: ``grid`` is ignored and
    ``constants`` is None.  Otherwise the bounds are computed from grid
    inf/sup of the ratio on ``grid`` (default: a 64^min(N,3)-point chamber
    grid), and ``constants`` holds them; a ratio that diverges on the grid
    is an error.
    """
    k = model.unit_constants()
    if k is not None:
        return _exact(0.5 - float(k.min()))
    if model.bounds is not None:
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
