"""Exact squared Bessel (BESQ) process utilities.

Used as an independent oracle for the one-dimensional radial behavior of
the interacting systems: exact transition sampling, the closed-form
probability of hitting zero, and the dimension of the zero set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class BesqSpec:
    """BESQ(delta) started at x0 >= 0: dX = delta dt + 2 sqrt(X) dB."""

    delta: float
    x0: float

    def __post_init__(self):  # each test is False on NaN
        if not 0 <= self.delta < math.inf:
            raise ValueError("delta must be finite and non-negative")
        if not 0 <= self.x0 < math.inf:
            raise ValueError("x0 must be finite and non-negative")

    @property
    def index(self) -> float:
        """The Bessel index eta = (delta - 1) / 2 of the square root."""
        return (self.delta - 1.0) / 2.0


def besq_exact_transition(spec: BesqSpec, t: float, size: int = 1,
                          seed=None) -> np.ndarray:
    """Exact samples of X_t for BESQ(delta) from x0.

    Uses the Poisson mixture representation: X_t ~ Gamma(delta/2 + K, 2t)
    with K ~ Poisson(x0 / (2t)).  Exact in distribution; no time stepping.
    ``seed`` may be anything np.random.default_rng accepts, or a Generator.
    """
    if not t > 0:  # False on NaN
        raise ValueError("t must be positive")
    if size <= 0:
        raise ValueError("size must be positive")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    k = rng.poisson(spec.x0 / (2.0 * t), size=size)
    shape = spec.delta / 2.0 + k
    # shape 0 (delta = 0, no Poisson jump) draws nothing: an exact atom at zero
    return rng.gamma(shape=shape, scale=2.0 * t)


_EPS = 1e-16    # relative size of the last term kept
_TINY = 1e-300  # keeps the Lentz recurrences off zero


def _gamma_q(a: float, z: float) -> float:
    """Regularized upper incomplete gamma Q(a, z) for 0 < a <= 1, z > 0.

    Power series of P = 1 - Q below z = a + 1, modified-Lentz continued
    fraction of Q above it (Press et al., Numerical Recipes, 3rd ed., 6.2).
    Relative error below 1e-12 against ``scipy.special.gammaincc`` for
    a >= 0.01; it grows as a -> 0 (about 4e-11 at a = 1e-4), where Q -> 0
    and 1 - P cancels digits.
    """
    scale = math.exp(a * math.log(z) - z - math.lgamma(a))
    if z < a + 1.0:
        term = total = 1.0 / a
        n = a
        while term > total * _EPS:
            n += 1.0
            term *= z / n
            total += term
        return 1.0 - scale * total
    b = z + 1.0 - a
    c, d = 1.0 / _TINY, 1.0 / b
    h = d
    for i in range(1, 1000):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        d = 1.0 / (d if abs(d) > _TINY else _TINY)
        c = b + an / c
        c = c if abs(c) > _TINY else _TINY
        step = d * c
        h *= step
        if abs(step - 1.0) < _EPS:
            return scale * h
    raise ArithmeticError(f"continued fraction of Q({a}, {z}) did not converge")


def besq_hit_probability(spec: BesqSpec, t: float) -> float:
    """P(inf_{s<=t} X_s = 0) for BESQ(delta) with delta < 2.

    The first passage time to zero is distributed as x0 / (2 G) with
    G ~ Gamma(1 - delta/2), giving P(T0 <= t) = Q(1 - delta/2, x0/(2t))
    where Q is the regularized upper incomplete gamma function (computed
    with ``math`` only, see ``_gamma_q``).  For
    delta >= 2 the origin is polar and the probability is zero, but that
    regime is rejected here to avoid silently mixing conventions.
    """
    if spec.delta >= 2:
        raise ValueError("origin is not attainable for delta >= 2")
    if not t > 0:  # False on NaN
        raise ValueError("t must be positive")
    z = spec.x0 / (2.0 * t)
    if z == 0:  # x0 = 0, or x0 / 2t underflows: Q(a, 0) = 1
        return 1.0
    if z == math.inf:  # x0 / 2t overflows: Q(a, inf) = 0
        return 0.0
    return _gamma_q(1.0 - spec.delta / 2.0, z)


def besq_zero_dimension(delta: float) -> float:
    """Hausdorff dimension of the zero set of BESQ(delta).

    Equals max(0, 1 - delta/2), which in terms of the Bessel index
    eta = (delta - 1)/2 is max(0, 1/2 - eta).
    """
    if delta < 0:
        raise ValueError("delta must be non-negative")
    return max(0.0, 1.0 - delta / 2.0)
