import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import weylgas.roots as roots
from weylgas.roots import build_root_system, chamber_classify, reflect, resolve_weights
from weylgas.runner import run_verify

ALL_SYSTEMS = [("A", n) for n in range(2, 6)] + \
              [("B", n) for n in range(2, 6)] + \
              [("D", n) for n in range(3, 6)]


def test_reflect_involutive_and_norm_preserving():
    y = (1, -2, 3)
    z = (4, 0, -1)
    rz = reflect(y, z)
    assert reflect(y, rz) == z
    assert sum(v * v for v in rz) == sum(v * v for v in z)


def test_reflect_exact_rational():
    out = reflect((1, 1), (1, 0))
    assert out == (0, -1)
    out = reflect((2, 1, 0), (1, 1, 1))
    assert all(isinstance(v, Fraction) for v in out)


@pytest.mark.parametrize("family,N", ALL_SYSTEMS)
def test_closure_under_reflections(family, N):
    R = build_root_system(family, N)
    full = set(R.roots)
    for y in R.roots:
        for z in R.roots:
            assert tuple(reflect(y, z)) in full


@pytest.mark.parametrize("family,N", ALL_SYSTEMS)
def test_reduced(family, N):
    # the only scalar multiples of a root inside the system are +/- itself
    R = build_root_system(family, N)
    full = set(R.roots)
    for y in R.roots:
        for c in (2, 3, -2):
            assert tuple(c * v for v in y) not in full
    assert len(full) == 2 * R.M


@pytest.mark.parametrize("N", range(2, 7))
def test_a_family_count(N):
    R = build_root_system("A", N)
    assert R.M == N * (N - 1) // 2


def test_counts_b_and_d():
    assert build_root_system("B", 3).M == 9  # N^2
    assert build_root_system("D", 4).M == 12  # N(N-1)


def test_d2_rejected():
    with pytest.raises(ValueError):
        build_root_system("D", 2)
    with pytest.raises(ValueError):
        build_root_system("E", 3)


@pytest.mark.parametrize("family,N", ALL_SYSTEMS)
def test_simple_roots_brute_force(family, N):
    """Simple = positive root that is not the sum of two positive roots."""
    R = build_root_system(family, N)
    pos = list(R.positive_roots)
    sums = {
        tuple(a + b for a, b in zip(u, v))
        for u, v in itertools.product(pos, pos)
    }
    expected = tuple(a for a in pos if a not in sums)
    assert R.simple_roots == expected
    assert len(R.simple_roots) == (N - 1 if family == "A" else N)


@pytest.mark.parametrize("family,N", ALL_SYSTEMS)
def test_s1_nonnegative_decomposition(family, N):
    R = build_root_system(family, N)
    simple, positive = np.array(R.simple_roots).T, np.array(R.positive_roots).T
    # solved in floats, rounded, then checked exactly in integers: the
    # coefficients of a crystallographic system are integral
    coeffs = np.rint(np.linalg.lstsq(simple, positive, rcond=None)[0]).astype(np.int64)
    assert np.array_equal(simple @ coeffs, positive)
    assert np.all(coeffs >= 0)


@pytest.mark.parametrize("family,N", ALL_SYSTEMS)
def test_s2_nonpositive_simple_products(family, N):
    R = build_root_system(family, N)
    for a, b in itertools.combinations(R.simple_roots, 2):
        assert sum(x * y for x, y in zip(a, b)) <= 0


def test_reflection_pairs_a3_example():
    # beta = e2 - e1: e3 - e1 and e3 - e2 are partners
    beta = (-1, 1, 0)
    assert reflect(beta, (-1, 0, 1)) == (0, -1, 1)
    assert reflect(beta, (0, -1, 1)) == (-1, 0, 1)
    # every non-orthogonal positive root's partner reflects back onto it
    R = build_root_system("A", 3)
    pos = set(R.positive_roots)
    for a in R.positive_roots:
        if a == beta or sum(x * y for x, y in zip(a, beta)) == 0:
            continue
        r = reflect(beta, a)
        g = r if r in pos else tuple(-v for v in r)
        back = reflect(beta, g)
        assert back == a or tuple(-v for v in back) == a


def test_reflection_pairs_b2_short_root():
    # beta = e1: e2 - e1 and e2 + e1 are partners
    assert reflect((1, 0), (-1, 1)) == (1, 1)
    assert reflect((1, 0), (1, 1)) == (-1, 1)
    # a root orthogonal to beta is its own image
    assert reflect((1, 0), (0, 1)) == (0, 1)
    assert reflect((-1, 1, 0, 0), (0, 0, -1, 1)) == (0, 0, -1, 1)


@pytest.mark.parametrize("family,N", ALL_SYSTEMS)
def test_reflect_partners_are_positive_roots_and_involutive(family, N):
    """For alpha != beta in R+, not orthogonal, the positive representative
    gamma of +/- reflect(beta, alpha) is a positive root other than beta,
    and +/- reflect(beta, gamma) is alpha: the partner that
    ``residual_reflection_identities`` takes pairs the roots up."""
    R = build_root_system(family, N)
    pos = set(R.positive_roots)
    for beta in R.positive_roots:
        for alpha in R.positive_roots:
            if alpha == beta or sum(a * b for a, b in zip(alpha, beta)) == 0:
                continue
            r = reflect(beta, alpha)
            gamma = r if r in pos else tuple(-v for v in r)
            assert gamma in pos and gamma != beta
            back = reflect(beta, gamma)
            assert alpha in (back, tuple(-v for v in back))


def test_integer_reflections_build_no_fraction(monkeypatch):
    """Root reflections and ``run_verify("algebra")`` take the integer path:
    with ``Fraction`` raising in ``weylgas.roots``, the closure loop of every
    system the algebra check builds, and the check itself, still pass; a
    non-integral coefficient still reaches ``Fraction``."""
    def no_fraction(*args):
        raise AssertionError("a Fraction was built")

    monkeypatch.setattr(roots, "Fraction", no_fraction)
    report = run_verify("algebra")
    assert report["passed"]
    for name in report["sections"]["algebra"]["systems"]:
        R = build_root_system(name[0], int(name[1:]))
        full = set(R.roots)
        for y in R.roots:
            for z in R.roots:
                out = reflect(y, z)
                assert out in full and all(type(v) is int for v in out)
    with pytest.raises(AssertionError, match="Fraction"):
        reflect((2, 1, 0), (1, 1, 1))


def test_chamber_classify_regions():
    R = build_root_system("A", 3)
    assert chamber_classify([-1.0, 0.0, 1.0], R).region == "interior"
    loc = chamber_classify([0.0, 0.0, 1.0], R)
    assert loc.region == "boundary"
    assert loc.order == 1
    assert loc.active_roots == ((-1, 1, 0),)
    assert chamber_classify([1.0, 0.0, -1.0], R).region == "outside"
    # the fully collapsed point activates every root
    assert chamber_classify([0.0, 0.0, 0.0], R).order == R.M


def test_chamber_classify_tol():
    R = build_root_system("B", 2)
    loc = chamber_classify([1e-9, 1.0], R, tol=1e-8)
    assert loc.region == "boundary"
    assert (1, 0) in loc.active_roots


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(-50, 50), min_size=4, max_size=4))
def test_chamber_partition_lattice(x):
    """Every lattice point falls in exactly one region at tol 0."""
    R = build_root_system("B", 4)
    loc = chamber_classify(x, R, tol=0.0)
    proj = R.positive_matrix @ np.asarray(x, float)
    if loc.region == "interior":
        assert np.all(proj > 0)
    elif loc.region == "boundary":
        assert np.all(proj >= 0) and np.sum(proj == 0) == loc.order
    else:
        assert np.any(proj < 0)


def test_weighted_projections_and_weights():
    R = build_root_system("A", 3)
    x = np.array([0.0, 1.0, 3.0])
    # positive roots ordered e2-e1, e3-e1, e3-e2
    raw = R.positive_matrix @ x
    assert raw.tolist() == [1.0, 3.0, 2.0]
    assert (raw / resolve_weights(R, None)).tolist() == [1.0, 3.0, 2.0]
    assert np.allclose((raw / resolve_weights(R, "norm")) ** 2,
                       np.array([1.0, 9.0, 4.0]) / 2.0)
    with pytest.raises(ValueError):
        resolve_weights(R, [1.0, -1.0, 1.0])
    with pytest.raises(ValueError):
        resolve_weights(R, "foo")


def test_positive_matrix_cached_and_read_only():
    R = build_root_system("B", 4)
    pm = R.positive_matrix
    assert R.positive_matrix is pm
    assert pm.shape == (R.M, R.N)
    assert pm.tolist() == [list(map(float, r)) for r in R.positive_roots]
    assert not pm.flags.writeable
    with pytest.raises(ValueError):
        pm[0, 0] = 2.0
    assert np.array_equal(R.root_norms, np.sqrt((pm ** 2).sum(axis=1)))
