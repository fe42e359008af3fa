import numpy as np
import pytest
from scipy import stats

from weylgas.besq import (BesqSpec, besq_exact_transition,
                          besq_hit_probability, besq_zero_dimension)


def test_spec_validation_and_index():
    for bad in (-0.1, float("nan"), float("inf")):
        for delta, x0 in ((bad, 1.0), (1.0, bad)):
            with pytest.raises(ValueError):
                BesqSpec(delta=delta, x0=x0)
    assert BesqSpec(delta=1.0, x0=0.0).index == 0.0
    assert BesqSpec(delta=3.0, x0=2.0).index == 1.0


def test_transition_argument_checks():
    spec = BesqSpec(delta=1.0, x0=1.0)
    for t in (0.0, float("nan")):
        with pytest.raises(ValueError, match="t must be positive"):
            besq_exact_transition(spec, t)
    with pytest.raises(ValueError):
        besq_exact_transition(spec, 1.0, size=0)


@pytest.mark.parametrize("delta,x0,t", [
    (1.0, 1.0, 0.5), (0.5, 2.0, 1.0), (3.0, 0.0, 2.0), (2.0, 0.3, 0.1),
])
def test_transition_mean_identity(delta, x0, t):
    """E X_t = x0 + delta t exactly for BESQ."""
    spec = BesqSpec(delta=delta, x0=x0)
    n = 100_000
    xs = besq_exact_transition(spec, t, size=n, seed=1)
    mean = x0 + delta * t
    # Var X_t = 4 t x0 + 2 delta t^2
    sd = np.sqrt(4 * t * x0 + 2 * delta * t**2)
    assert abs(xs.mean() - mean) <= 3.0 * sd / np.sqrt(n)


def test_transition_from_zero_is_chi_squared():
    # delta = 3, x0 = 0, t = 1/2: X_t ~ Gamma(3/2, 1) = chi2(3)/2 scaled,
    # i.e. X_t / t ~ chi2(3)
    spec = BesqSpec(delta=3.0, x0=0.0)
    xs = besq_exact_transition(spec, 0.5, size=100_000, seed=2)
    d, p = stats.kstest(xs / 0.5, "chi2", args=(3,))
    assert d < 0.01


def test_transition_additivity():
    """BESQ(d1) + BESQ(d2) from x1, x2 equals BESQ(d1+d2) from x1+x2."""
    t = 0.7
    n = 100_000
    a = besq_exact_transition(BesqSpec(1.0, 0.4), t, size=n, seed=3)
    b = besq_exact_transition(BesqSpec(2.5, 1.1), t, size=n, seed=4)
    c = besq_exact_transition(BesqSpec(3.5, 1.5), t, size=n, seed=5)
    d, p = stats.ks_2samp(a + b, c)
    assert d < 0.01


def test_transition_atom_at_zero_for_delta_zero():
    # BESQ(0) is absorbed: P(X_t = 0) = exp(-x0 / 2t) exactly
    spec = BesqSpec(delta=0.0, x0=1.0)
    t = 0.5
    xs = besq_exact_transition(spec, t, size=200_000, seed=6)
    p0 = np.exp(-spec.x0 / (2 * t))
    frac = np.mean(xs == 0.0)
    assert abs(frac - p0) <= 3.0 * np.sqrt(p0 * (1 - p0) / 200_000)


def test_transition_accepts_generator():
    spec = BesqSpec(delta=1.0, x0=1.0)
    g1 = np.random.default_rng(9)
    g2 = np.random.default_rng(9)
    assert np.array_equal(besq_exact_transition(spec, 1.0, 10, g1),
                          besq_exact_transition(spec, 1.0, 10, g2))


def test_hit_probability_closed_form_values():
    # delta = 1 reduces to |B|^2: P(hit 0 by t) = 2 (1 - Phi(sqrt(x0/t)))
    for x0, t in [(1.0, 1.0), (0.5, 2.0), (2.0, 0.3)]:
        p = besq_hit_probability(BesqSpec(1.0, x0), t)
        assert p == pytest.approx(2 * stats.norm.sf(np.sqrt(x0 / t)), rel=1e-12)
    assert besq_hit_probability(BesqSpec(0.5, 0.0), 1.0) == 1.0
    # z = x0 / 2t rounds to 0 where it underflows or 2t overflows: Q(a, 0) = 1
    # is then the correctly rounded value of Q(1/2, z) at the true z
    assert besq_hit_probability(BesqSpec(1.0, 1e-320), 1e10) == 1.0
    assert besq_hit_probability(BesqSpec(1.0, 1.0), 1e308) == 1.0
    # and where x0 / 2t overflows, Q(a, inf) = 0
    assert besq_hit_probability(BesqSpec(1.0, 1e308), 1e-300) == 0.0


def test_hit_probability_matches_scipy_gammaincc():
    """The ``math``-only Q(1 - delta/2, x0/2t) agrees with scipy.special on a
    grid of a = 1 - delta/2 in [0.01, 1] and z = x0/2t in [1e-6, 60], which
    straddles the series/continued-fraction switch at z = a + 1."""
    from scipy.special import gammaincc

    for delta in 2.0 - 2.0 * np.linspace(0.01, 1.0, 34):
        for z in np.geomspace(1e-6, 60.0, 60):
            p = besq_hit_probability(BesqSpec(delta, 2.0 * z), 1.0)
            assert p == pytest.approx(gammaincc(1.0 - delta / 2.0, z), rel=1e-12)


def test_hit_probability_rejects_polar_regime():
    with pytest.raises(ValueError):
        besq_hit_probability(BesqSpec(2.0, 1.0), 1.0)
    for t in (0.0, float("nan")):
        with pytest.raises(ValueError, match="t must be positive"):
            besq_hit_probability(BesqSpec(1.0, 1.0), t)


def test_hit_probability_monotonicity():
    ts = np.linspace(0.1, 5.0, 20)
    ps = [besq_hit_probability(BesqSpec(1.0, 1.0), t) for t in ts]
    assert np.all(np.diff(ps) > 0)  # increasing in t
    x0s = np.linspace(0.1, 5.0, 20)
    ps = [besq_hit_probability(BesqSpec(1.0, x), 1.0) for x in x0s]
    assert np.all(np.diff(ps) < 0)  # decreasing in x0
    ds = np.linspace(0.0, 1.9, 20)
    ps = [besq_hit_probability(BesqSpec(d, 1.0), 1.0) for d in ds]
    assert np.all(np.diff(ps) < 0)  # decreasing in delta


def test_hit_probability_against_fine_euler():
    """Monte Carlo absorbing Euler scheme reproduces the closed form."""
    spec = BesqSpec(delta=0.8, x0=0.5)
    t, n, steps = 1.0, 40_000, 4000
    dt = t / steps
    rng = np.random.default_rng(12)
    x = np.full(n, spec.x0)
    hit = np.zeros(n, dtype=bool)
    for _ in range(steps):
        x = x + spec.delta * dt + 2.0 * np.sqrt(np.maximum(x, 0.0)) * \
            rng.normal(0.0, np.sqrt(dt), size=n)
        hit |= x <= 0.0
        x = np.maximum(x, 0.0)
    p_mc = hit.mean()
    p = besq_hit_probability(spec, t)
    se = np.sqrt(p * (1 - p) / n)
    # discretization bias allowance on top of the Monte Carlo error
    assert abs(p_mc - p) <= 3.0 * se + 0.02


def test_zero_dimension_values():
    assert besq_zero_dimension(0.0) == 1.0
    assert besq_zero_dimension(1.0) == 0.5
    assert besq_zero_dimension(1.5) == 0.25
    assert besq_zero_dimension(2.0) == 0.0
    assert besq_zero_dimension(5.0) == 0.0
    with pytest.raises(ValueError):
        besq_zero_dimension(-1.0)


def test_zero_dimension_matches_dyson_gap_map():
    """The gap of two Dyson particles is a Bessel process of dimension

    delta = 2k + 1, so the predicted zero-set dimension max(0, 1/2 - k)
    must agree with the BESQ formula.
    """
    for k in (0.1, 0.25, 0.4, 0.5, 0.75):
        delta = 2 * k + 1
        assert besq_zero_dimension(delta) == pytest.approx(max(0.0, 0.5 - k))
