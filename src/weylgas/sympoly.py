"""Elementary symmetric polynomials, exclusion variants, and the two
algebraic identities relating them across reflections.

All routines accept ints, Fractions, or floats and stay exact for exact
inputs; ``elementary`` uses the stable prefix recurrence (O(M*n)) rather
than subset enumeration.  ``elementary_rows`` runs the same recurrence on
float arrays, one numpy operation per (value, degree) step over all rows.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .roots import RootSystem, reflection_pairs, _dot


def elementary(values: Sequence, n: int):
    """e_n of ``values``: sum over all n-subsets of products.

    Conventions: e_0 = 1, e_{-1} = 0.  Raises for n outside [-1, M].
    """
    M = len(values)
    if n < -1 or n > M:
        raise ValueError(f"degree n={n} out of range [-1, {M}]")
    if n == -1:
        return 0
    # e[j] holds e_j of the prefix processed so far
    e = [1] + [0] * n
    for v in values:
        for j in range(min(n, len(e) - 1), 0, -1):
            e[j] = e[j] + v * e[j - 1]
    return e[n]


def elementary_rows(values, n: int) -> np.ndarray:
    """e_0..e_n of every row of a float array ``values`` of shape (..., M).

    Returns shape (..., n + 1) with e_j in ``[..., j]``.  Runs the prefix
    recurrence of ``elementary`` with the same operations in the same
    order (values in index order, degree descending from n to 1, multiply
    then add), so every entry is bit-identical to ``elementary(row, j)``.
    """
    v = np.asarray(values, dtype=float)
    M = v.shape[-1]
    if not 0 <= n <= M:
        raise ValueError(f"degree n={n} out of range [0, {M}]")
    # degree-major layout keeps each e[j] contiguous over the rows
    e = np.zeros((n + 1,) + v.shape[:-1])
    e[0] = 1.0
    for i in range(M):
        vi = v[..., i]
        for j in range(n, 0, -1):
            e[j] += vi * e[j - 1]
    return np.moveaxis(e, 0, -1)


def elementary_excluding(values: Sequence, n: int, excluded: Sequence[int] = ()):
    """e_n over ``values`` with the given indices removed.

    At most 3 indices may be excluded (more is never needed by the drift
    decomposition); indices must be distinct and in range.
    """
    excluded = tuple(excluded)
    if len(set(excluded)) != len(excluded):
        raise ValueError("excluded indices must be distinct")
    if len(excluded) > 3:
        raise ValueError("at most 3 excluded indices are supported")
    for i in excluded:
        if not 0 <= i < len(values):
            raise ValueError(f"excluded index {i} out of range")
    rest = [v for i, v in enumerate(values) if i not in excluded]
    if n > len(rest):
        return 0
    return elementary(rest, n)


class SymValueTable:
    """Cached e_n and exclusion values over a fixed base list.

    The base values are typically the squared weighted projections of a
    configuration; the cache is keyed by (n, excluded index set) with at
    most 3 exclusions.
    """

    def __init__(self, base_values: Sequence):
        self.base_values = tuple(base_values)
        self.M = len(self.base_values)
        self._cache: dict[tuple[int, frozenset[int]], object] = {}

    def e(self, n: int, excluded: Sequence[int] = ()):
        key = (n, frozenset(excluded))
        if len(key[1]) > 3:
            raise ValueError("at most 3 excluded indices are supported")
        if key not in self._cache:
            self._cache[key] = elementary_excluding(self.base_values, n, tuple(key[1]))
        return self._cache[key]


def residual_e_form2(values: Sequence, n: int, i: int, j: int):
    """Residual of the two-exclusion expansion identity; contract: zero.

    Checks e^{ij}_{n-2} e_n = e^i_{n-1} e^j_{n-1}
    + e^{ij}_n e^{ij}_{n-2} - (e^{ij}_{n-1})^2 for excluded indices i, j.
    """
    M = len(values)
    if not 1 <= n <= M:
        raise ValueError(f"degree n={n} out of range [1, {M}]")
    if i == j:
        raise ValueError("excluded indices must differ")
    t = SymValueTable(values)
    lhs = t.e(n - 2, (i, j)) * t.e(n)
    rhs = (
        t.e(n - 1, (i,)) * t.e(n - 1, (j,))
        + t.e(n, (i, j)) * t.e(n - 2, (i, j))
        - t.e(n - 1, (i, j)) ** 2
    )
    return lhs - rhs


def residual_reflection_identities(x: Sequence, alpha, beta, R: RootSystem):
    """Residuals of the two projection identities along a reflection pair.

    For gamma the positive representative of +/- reflect(beta, alpha):
      r1 = <a,b><x,a> + <b,g><x,g> - 2<x,b>/|b|^2
      r2 = <a,b><x,g> + <b,g><x,a> - 2<a,b><b,g><x,b>/|b|^2
    Both are identically zero; exact for rational inputs.
    """
    alpha, beta = tuple(alpha), tuple(beta)
    if alpha == beta:
        raise ValueError("alpha and beta must differ")
    ab = _dot(alpha, beta)
    if ab == 0:
        raise ValueError("alpha and beta must be non-orthogonal")
    gamma = None
    for a, g in reflection_pairs(beta, R):
        if a == alpha:
            gamma = g
            break
        if g == alpha:
            gamma = a
            break
    assert gamma is not None
    bb = _dot(beta, beta)
    bg = _dot(beta, gamma)
    xa = _dot(x, alpha)
    xb = _dot(x, beta)
    xg = _dot(x, gamma)
    from fractions import Fraction

    def _ratio(num, den):
        if isinstance(num, int) and isinstance(den, int):
            return Fraction(num, den)
        return num / den

    r1 = ab * xa + bg * xg - _ratio(2 * xb, bb)
    r2 = ab * xg + bg * xa - _ratio(2 * ab * bg * xb, bb)
    return r1, r2
