"""Root systems of types A, B, D and their Weyl-chamber geometry.

Roots are stored with exact integer coordinates in the standard basis of R^N,
so all algebraic identities (closure, decomposition into simple roots,
reflection identities) can be checked in exact arithmetic.  Floating point
only enters through configuration vectors supplied by the caller.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

Root = tuple[int, ...]

FAMILIES = ("A", "B", "D")


def _dot(u: Sequence, v: Sequence):
    return sum(a * b for a, b in zip(u, v))


def reflect(mirror: Sequence, target: Sequence):
    """Reflect ``target`` along the hyperplane orthogonal to ``mirror``.

    Returns target - 2<mirror,target>/<mirror,mirror> * mirror.  Exact for
    integer/Fraction inputs; involutive and norm-preserving.  Integer inputs
    with an integral coefficient, as for every pair of A/B/D roots, give an
    int tuple without building a Fraction.
    """
    mm = _dot(mirror, mirror)
    if mm == 0:
        raise ValueError("mirror vector must be nonzero")
    mt = _dot(mirror, target)
    if isinstance(mt, int) and isinstance(mm, int):
        c, r = divmod(2 * mt, mm)
        if r == 0:
            return tuple(t - c * m for t, m in zip(target, mirror))
    if isinstance(mm, (int, Fraction)) and not isinstance(mm, bool):
        coef = Fraction(2 * mt, mm) if isinstance(mt, int) and isinstance(mm, int) else 2 * mt / mm
    else:
        coef = 2.0 * mt / mm
    out = tuple(t - coef * m for t, m in zip(target, mirror))
    # keep integer coordinates integer when the reflection is exact
    if all(isinstance(v, Fraction) and v.denominator == 1 for v in out):
        return tuple(int(v) for v in out)
    return out


def _basis(N: int, i: int) -> Root:
    return tuple(1 if k == i else 0 for k in range(N))


def _vadd(u: Root, v: Root) -> Root:
    return tuple(a + b for a, b in zip(u, v))


def _vsub(u: Root, v: Root) -> Root:
    return tuple(a - b for a, b in zip(u, v))


def _vneg(u: Root) -> Root:
    return tuple(-a for a in u)


@dataclass(frozen=True)
class RootSystem:
    """A reduced crystallographic root system of type A, B or D in R^N.

    ``positive_roots`` follows the standard choice (A: e_j - e_i for i < j,
    B: e_i and e_j +/- e_i, D: e_j +/- e_i) and ``simple_roots`` is the unique
    minimal generating subset of the positive system.
    """

    family: str
    N: int
    roots: tuple[Root, ...]
    positive_roots: tuple[Root, ...]
    simple_roots: tuple[Root, ...]

    @property
    def M(self) -> int:
        """Number of positive roots."""
        return len(self.positive_roots)

    @cached_property
    def positive_matrix(self) -> np.ndarray:
        """Positive roots stacked as a float (M, N) matrix, built once and
        read-only."""
        pm = np.asarray(self.positive_roots, dtype=float)
        pm.setflags(write=False)
        return pm

    @property
    def root_norms(self) -> np.ndarray:
        """Euclidean norms |alpha| of the positive roots, shape (M,)."""
        return np.sqrt((self.positive_matrix**2).sum(axis=1))

    def index(self, alpha: Sequence[int]) -> int:
        """Index of a positive root; raises ValueError if absent."""
        return self.positive_roots.index(tuple(alpha))

    def to_json(self) -> str:
        """Serialize the structural data for golden-file comparisons."""
        return json.dumps(
            {
                "family": self.family,
                "N": self.N,
                "roots": [list(r) for r in self.roots],
                "positive_roots": [list(r) for r in self.positive_roots],
                "simple_roots": [list(r) for r in self.simple_roots],
            },
            sort_keys=True,
        )


def build_root_system(family: str, N: int) -> RootSystem:
    """Construct the root system A_{N-1}, B_N or D_N in ambient dimension N.

    D requires N >= 3: D_2 splits into two orthogonal A_1 factors and has no
    well-defined simple system in this convention.
    """
    if family not in FAMILIES:
        raise ValueError(f"unsupported family {family!r}; expected one of {FAMILIES}")
    if N < 2:
        raise ValueError("rank parameter N must be >= 2")
    if family == "D" and N < 3:
        raise ValueError("family D requires N >= 3")

    positive: list[Root] = []
    if family == "A":
        for i in range(N):
            for j in range(i + 1, N):
                positive.append(_vsub(_basis(N, j), _basis(N, i)))
    elif family == "B":
        for i in range(N):
            positive.append(_basis(N, i))
        for i in range(N):
            for j in range(i + 1, N):
                positive.append(_vsub(_basis(N, j), _basis(N, i)))
                positive.append(_vadd(_basis(N, j), _basis(N, i)))
    else:  # D
        for i in range(N):
            for j in range(i + 1, N):
                positive.append(_vsub(_basis(N, j), _basis(N, i)))
                positive.append(_vadd(_basis(N, j), _basis(N, i)))

    positive_t = tuple(positive)
    roots = positive_t + tuple(_vneg(a) for a in positive_t)
    simple = _find_simple_roots(positive_t)
    return RootSystem(family=family, N=N, roots=roots,
                      positive_roots=positive_t, simple_roots=simple)


def _find_simple_roots(positive: tuple[Root, ...]) -> tuple[Root, ...]:
    """Simple roots are positive roots not expressible as a sum of two others."""
    pset = set(positive)
    simple = []
    for alpha in positive:
        decomposable = any(
            _vsub(alpha, beta) in pset for beta in positive if beta != alpha
        )
        if not decomposable:
            simple.append(alpha)
    return tuple(simple)


def simple_roots(positive: Iterable[Root]) -> tuple[Root, ...]:
    """The minimal generating subset of a positive system."""
    return _find_simple_roots(tuple(tuple(a) for a in positive))


def decompose_simple(alpha: Sequence[int], R: RootSystem) -> tuple[Fraction, ...]:
    """Coefficients of ``alpha`` over the simple roots, solved exactly.

    Raises ValueError if the vector is not in the span of the simple roots.
    """
    basis = R.simple_roots
    s = len(basis)
    # Gaussian elimination over Fractions on the N x (s+1) augmented system.
    rows = [[Fraction(basis[c][r]) for c in range(s)] + [Fraction(alpha[r])]
            for r in range(R.N)]
    pivots: list[tuple[int, int]] = []
    rank_row = 0
    for col in range(s):
        piv = next((r for r in range(rank_row, R.N) if rows[r][col] != 0), None)
        if piv is None:
            continue
        rows[rank_row], rows[piv] = rows[piv], rows[rank_row]
        prow = rows[rank_row]
        inv = prow[col]
        rows[rank_row] = [v / inv for v in prow]
        for r in range(R.N):
            if r != rank_row and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank_row])]
        pivots.append((rank_row, col))
        rank_row += 1
    for r in range(rank_row, R.N):
        if rows[r][s] != 0:
            raise ValueError(f"{tuple(alpha)} is not in the span of the simple roots")
    coeffs = [Fraction(0)] * s
    for row, col in pivots:
        coeffs[col] = rows[row][s]
    return tuple(coeffs)


@dataclass(frozen=True)
class ChamberLocation:
    """Classification of a configuration relative to the closed chamber."""

    region: str  # "interior" | "boundary" | "outside"
    order: int  # number of vanishing projections (boundary only, else 0)
    active_roots: tuple[Root, ...]  # roots with |<x,alpha>| <= tol


def chamber_classify(x: Sequence[float], R: RootSystem, tol: float = 0.0) -> ChamberLocation:
    """Locate ``x`` relative to the Weyl chamber of ``R`` at tolerance ``tol``.

    Interior: all projections > tol.  Boundary of order m: exactly m
    projections in [-tol, tol] and none below -tol.  Outside otherwise.
    """
    x = np.asarray(x, dtype=float)
    proj = R.positive_matrix @ x
    if np.any(proj < -tol):
        return ChamberLocation("outside", 0, ())
    active = np.flatnonzero(np.abs(proj) <= tol)
    if active.size == 0:
        return ChamberLocation("interior", 0, ())
    return ChamberLocation(
        "boundary", int(active.size),
        tuple(R.positive_roots[i] for i in active),
    )


def resolve_weights(R: RootSystem, w) -> np.ndarray:
    """Normalize a weight spec to a positive (M,) array.

    ``w`` may be None (unit weights), the string "norm" (w_alpha = |alpha|),
    a scalar or one-element sequence (broadcast), or a sequence of length M.
    """
    if w is None:
        arr = np.ones(R.M)
    elif isinstance(w, str):
        if w != "norm":
            raise ValueError(f"unknown weight spec {w!r}")
        arr = R.root_norms
    else:
        arr = np.asarray(w, dtype=float)
        if arr.shape not in ((), (1,), (R.M,)):
            raise ValueError(f"weights must be one value or M = {R.M} values, "
                             f"not an array of shape {arr.shape}")
        arr = np.broadcast_to(arr, (R.M,)).copy()
    if np.any(arr <= 0):
        raise ValueError("weights must be strictly positive")
    return arr
