import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylgas.roots import build_root_system
from weylgas.sympoly import (elementary, elementary_excluding, elementary_rows,
                             exclusion_rows, residual_e_form2,
                             residual_reflection_identities)


def test_elementary_small_examples():
    vals = [1, 2, 3]
    assert elementary(vals, 0) == 1
    assert elementary(vals, 1) == 6
    assert elementary(vals, 2) == 11
    assert elementary(vals, 3) == 6
    assert elementary(vals, -1) == 0


def test_elementary_range_check():
    with pytest.raises(ValueError):
        elementary([1, 2], 3)
    with pytest.raises(ValueError):
        elementary([1, 2], -2)


def test_elementary_all_ones_binomial():
    vals = [1] * 8
    for n in range(9):
        assert elementary(vals, n) == math.comb(8, n)


def test_elementary_expansion_identity():
    # e_n(v, x) = e_n(v) + x * e_{n-1}(v)
    v = [2, 5, 7, 11]
    for n in range(1, 5):
        assert elementary(v + [13], n) == elementary(v, n) + 13 * elementary(v, n - 1)


def test_elementary_exact_fractions():
    v = [Fraction(1, 3), Fraction(2, 5)]
    assert elementary(v, 2) == Fraction(2, 15)


@pytest.mark.parametrize("shape", [(6,), (40, 6), (7, 1), (3, 5, 4)])
def test_elementary_rows_bit_identical_to_elementary(shape):
    rng = np.random.default_rng(11)
    # squared projections spanning many magnitudes, as in the tau markers
    vals = (rng.standard_normal(shape) * 10.0 ** rng.integers(-4, 3, size=shape)) ** 2
    M = shape[-1]
    rows = vals.reshape(-1, M)
    for n in range(M + 1):
        got = elementary_rows(vals, n)
        assert got.shape == shape[:-1] + (n + 1,)
        flat = got.reshape(-1, n + 1)
        for r, row in enumerate(rows):
            for j in range(n + 1):
                assert flat[r, j].tobytes() == np.float64(elementary(row, j)).tobytes()


def test_elementary_rows_range_check():
    with pytest.raises(ValueError):
        elementary_rows(np.ones((2, 3)), 4)
    with pytest.raises(ValueError):
        elementary_rows(np.ones(3), -1)


def test_excluding():
    v = [1, 2, 3, 4]
    assert elementary_excluding(v, 2, (0,)) == elementary([2, 3, 4], 2)
    assert elementary_excluding(v, 1, (0, 1, 2)) == 4
    assert elementary_excluding(v, 2, (0, 1, 2)) == 0  # degree above size
    with pytest.raises(ValueError):
        elementary_excluding(v, 1, (0, 0))
    with pytest.raises(ValueError):
        elementary_excluding(v, 1, (0, 1, 2, 3))
    with pytest.raises(ValueError):
        elementary_excluding(v, 1, (9,))


def _bits(v):
    return np.float64(v).tobytes()


@pytest.mark.parametrize("family,N", [("A", 3), ("B", 3), ("D", 4)])
def test_exclusion_rows_bit_equal_to_elementary_excluding(family, N):
    """Every entry of the exclusion tables has the bits of the exact
    reference on the squared projections of a float state."""
    R = build_root_system(family, N)
    M = R.M
    x = np.random.default_rng(5).standard_normal(N) * 1.7
    sq = (R.positive_matrix @ x) ** 2
    for n in (1, 2, M):
        full, one, two = exclusion_rows(sq, n)
        assert full.shape == (n + 2,) and one.shape == (M, n + 2)
        assert two.shape == (M, M, n + 2)
        for j in range(-1, n + 1):
            assert full[j + 1].tobytes() == _bits(elementary(list(sq), j))
            for a in range(M):
                assert one[a, j + 1].tobytes() == _bits(
                    elementary_excluding(list(sq), j, (a,)))
                for b in range(M):
                    if b != a:
                        assert two[a, b, j + 1].tobytes() == _bits(
                            elementary_excluding(list(sq), j, (a, b)))
        assert not full[0] and not one[:, 0].any() and not two[..., 0].any()  # e_{-1}
        if n == M:  # e_M without two entries is an empty sum
            assert not two[~np.eye(M, dtype=bool)][:, n + 1].any()


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(-30, 30), min_size=2, max_size=7),
    st.data(),
)
def test_e_form2_identity_exact(vals, data):
    """The two-exclusion expansion identity holds exactly over the integers."""
    M = len(vals)
    n = data.draw(st.integers(1, M))
    i = data.draw(st.integers(0, M - 1))
    j = data.draw(st.integers(0, M - 1).filter(lambda v: v != i))
    assert residual_e_form2(vals, n, i, j) == 0


def test_e_form2_float_relative_residual():
    import numpy as np
    rng = np.random.default_rng(0)
    for _ in range(200):
        vals = list(rng.uniform(0.1, 10.0, size=6))
        n = int(rng.integers(1, 7))
        res = residual_e_form2(vals, n, 0, 3)
        scale = abs(elementary(vals, n) * elementary_excluding(vals, n - 2, (0, 3))) + 1.0
        assert abs(res) <= 1e-9 * scale


def test_e_form2_argument_checks():
    with pytest.raises(ValueError):
        residual_e_form2([1, 2, 3], 1, 1, 1)
    with pytest.raises(ValueError):
        residual_e_form2([1, 2, 3], 0, 0, 1)


@pytest.mark.parametrize("family,N", [("A", 3), ("A", 4), ("B", 2), ("B", 3), ("D", 3), ("D", 4)])
def test_reflection_identities_exact(family, N):
    import numpy as np
    R = build_root_system(family, N)
    rng = np.random.default_rng(7)
    pm = R.positive_matrix
    for _ in range(20):
        x = [int(v) for v in rng.integers(-9, 9, size=N)]
        for bi, beta in enumerate(R.positive_roots):
            for ai, alpha in enumerate(R.positive_roots):
                if ai == bi or pm[ai] @ pm[bi] == 0:
                    continue
                r1, r2 = residual_reflection_identities(x, alpha, beta, R)
                assert r1 == 0 and r2 == 0


def test_reflection_identities_argument_checks():
    R = build_root_system("A", 3)
    with pytest.raises(ValueError):
        residual_reflection_identities([1, 2, 3], (-1, 1, 0), (-1, 1, 0), R)
    with pytest.raises(ValueError):
        # orthogonal pair in A_3 x-coordinates does not reflect
        residual_reflection_identities(
            [0, 1, 2, 3], (-1, 1, 0, 0), (0, 0, -1, 1), build_root_system("A", 4))
    with pytest.raises(ValueError):  # beta must be a positive root
        residual_reflection_identities([1, 2, 3], (-1, 1, 0), (1, 0, -1), R)
    with pytest.raises(ValueError):  # alpha must be a root
        residual_reflection_identities([1, 2, 3], (1, 0, 0), (-1, 1, 0), R)
