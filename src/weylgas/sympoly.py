"""Elementary symmetric polynomials, exclusion variants, and the two
algebraic identities relating them across reflections.

All routines accept ints, Fractions, or floats and stay exact for exact
inputs; ``elementary`` uses the stable prefix recurrence (O(M*n)) rather
than subset enumeration.  ``elementary_rows`` runs the same recurrence on
float arrays, one numpy operation per (value, degree) step over all rows;
``exclusion_rows`` runs it on every one- and two-entry exclusion at once.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .roots import RootSystem, reflect, _dot


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


def exclusion_rows(values, n: int):
    """e_{-1}..e_n of a nonnegative float vector ``values`` of length M:
    of all of it, shape (n + 2,); with entry a left out, shape (M, n + 2);
    with entries a and b left out, shape (M, M, n + 2), whose diagonal
    a = b is the one-entry table.  Index j + 1 holds e_j.

    A left-out entry is set to zero, which gives exactly the bits of
    ``elementary_excluding``: the recurrence step of a zero adds +0.0.
    """
    v = np.asarray(values, dtype=float)
    keep = 1.0 - np.eye(v.size)
    full, two = (np.concatenate([np.zeros(t.shape[:-1] + (1,)),
                                 elementary_rows(t, n)], axis=-1)
                 for t in (v, v * keep[:, None] * keep))
    i = np.arange(v.size)
    return full, two[i, i], two


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
    e_ij = elementary_excluding(values, n - 2, (i, j))
    lhs = e_ij * elementary(values, n)
    rhs = (
        elementary_excluding(values, n - 1, (i,))
        * elementary_excluding(values, n - 1, (j,))
        + elementary_excluding(values, n, (i, j)) * e_ij
        - elementary_excluding(values, n - 1, (i, j)) ** 2
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
    if beta not in R.positive_roots or alpha not in R.roots:
        raise ValueError("beta must be a positive root and alpha a root")
    # reflect(beta, alpha) is a root, and reflect(beta, gamma) = +/- alpha
    gamma = reflect(beta, alpha)
    if gamma not in R.positive_roots:
        gamma = tuple(-v for v in gamma)
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
