import dataclasses

import numpy as np
import pytest

import weylgas.models as models
from weylgas.config import _schema
from weylgas.models import (PRESETS, CoefficientModel, ConstantCoupling, chamber_grid,
                            compute_bound_constants, dimension_bound_predictor,
                            make_preset, wishart_param_map)
from weylgas.roots import FAMILIES, build_root_system

# parameters each preset accepts, on the root systems of rank 3 of its family
VALID = {"dyson": {"k": 0.3}, "bessel_general": {"k_values": 0.7},
         "bessel_b": {"k1": 0.8, "k2": 0.3}, "wishart": {"kappa": 0.5, "a": 7.0},
         "jacobi": {"k": 0.5, "p": 8.0, "q": 9.0}}


def test_dyson_preset():
    R = build_root_system("A", 3)
    m = make_preset("dyson", R, k=0.3)
    x = np.array([-1.0, 0.0, 1.0])
    assert np.allclose(m.sigma(x), 1.0)
    assert np.allclose(m.drift_b(x), 0.0)
    assert np.allclose(m.coupling_values(x, R), 0.3)
    with pytest.raises(ValueError):
        make_preset("dyson", R, k=0.0)
    with pytest.raises(ValueError):
        make_preset("nope", R, k=1.0)


@pytest.mark.parametrize("name, params", [
    ("dyson", {"k": 0.3}),
    ("bessel_general", {"k_values": 0.7}),
    ("bessel_b", {"k1": 0.8, "k2": 0.3}),
])
def test_constant_sigma_and_drift_keep_shape_and_dtype(name, params):
    """Unit diffusion and zero drift match ones_like/zeros_like of the float
    input for scalar, (N,), (n, N) and integer-list inputs."""
    m = make_preset(name, build_root_system(PRESETS[name][0] or "A", 3), **params)
    for y in (0.4, np.array([-1.0, 0.0, 1.0]), np.ones((5, 3)), [[1, 2], [3, 4]]):
        ref = np.asarray(y, dtype=float)
        for got, want in ((m.sigma(y), np.ones_like(ref)), (m.drift_b(y), np.zeros_like(ref))):
            assert isinstance(got, np.ndarray) and got.dtype == np.float64
            assert got.shape == ref.shape and np.array_equal(got, want)


def test_bessel_b_per_root_values():
    R = build_root_system("B", 3)
    m = make_preset("bessel_b", R, k1=0.8, k2=0.3)
    k = m.coupling_values(np.ones(3), R)
    lengths = (R.positive_matrix != 0).sum(axis=1)
    assert np.allclose(k[lengths == 1], 0.8)
    assert np.allclose(k[lengths == 2], 0.3)
    with pytest.raises(ValueError):
        make_preset("bessel_b", build_root_system("A", 3), k1=0.8, k2=0.3)


@pytest.mark.parametrize("name, params, family, short, long", [
    ("dyson", {"k": 0.3}, "A", None, 0.3),
    ("bessel_general", {"k_values": 0.7}, "A", None, 0.7),
    ("bessel_b", {"k1": 0.8, "k2": 0.3}, "B", 0.8, 0.3),
])
def test_constant_coupling_values_across_root_systems(name, params, family, short, long):
    """Constant couplings come back as fresh (..., M) arrays with the right
    values on each root system they are built for."""
    for N in (2, 3):
        R = build_root_system(family, N)
        m = make_preset(name, R, **params)
        lengths = (R.positive_matrix != 0).sum(axis=1)  # 1 for short roots
        want = np.where(lengths == 1, short, long).astype(float)
        for x in (np.ones(R.N), np.ones((4, 2, R.N))):
            k = m.coupling_values(x, R)
            assert k.shape == x.shape[:-1] + (R.M,)
            assert np.array_equal(k, np.broadcast_to(want, k.shape))
            k[...] = -1.0  # the caller owns the array
        assert np.array_equal(m.coupling_values(np.ones(R.N), R), want)


def test_bessel_b_coupling_raises_on_every_wrong_family_call():
    """The family rule holds at every build, not only the first."""
    B3, A3 = build_root_system("B", 3), build_root_system("A", 3)
    for _ in range(2):
        m = make_preset("bessel_b", B3, k1=0.8, k2=0.3)
        assert m.coupling_values(np.ones(3), B3).shape == (B3.M,)
        with pytest.raises(ValueError):
            make_preset("bessel_b", A3, k1=0.8, k2=0.3)


@pytest.mark.parametrize("name, family", [
    (name, family) for name, (want, _) in PRESETS.items()
    for family in FAMILIES if want not in (None, family)])
def test_presets_raise_on_every_wrong_family(name, family):
    """make_preset is where a preset meets its root system: on another
    family it raises, naming the family it runs on."""
    want, param_names = PRESETS[name]
    assert tuple(VALID[name]) == param_names
    make_preset(name, build_root_system(want, 3), **VALID[name])
    with pytest.raises(ValueError, match=f"requires root system family '{want}'"):
        make_preset(name, build_root_system(family, 3), **VALID[name])


@pytest.mark.parametrize("name, params, family", [
    ("dyson", {"k": 0.3}, "A"),
    ("bessel_general", {"k_values": [0.7, 0.7, 0.7]}, "A"),
    ("bessel_b", {"k1": 0.8, "k2": 0.3}, "B"),
])
def test_constant_coupling_values_contract(name, params, family):
    """values is one row of a call and read-only; each call returns a fresh
    writable array; unit_constants() is values, and the x-dependent presets
    get None."""
    R = build_root_system(family, 3)
    m = make_preset(name, R, **params)
    assert isinstance(m.coupling, ConstantCoupling)
    vals = m.coupling.values
    assert vals.shape == (R.M,) and vals.dtype == np.float64
    assert not vals.flags.writeable
    with pytest.raises(ValueError):
        vals[0] = 1.0
    assert m.unit_constants() is vals
    for x in (np.ones(3), np.ones((5, 3))):
        k = m.coupling_values(x, R)
        assert k.flags.writeable and not np.shares_memory(k, vals)
        assert all(row.tobytes() == vals.tobytes() for row in k.reshape(-1, R.M))
        assert not np.shares_memory(m.coupling_values(x, R), k)
    A3 = build_root_system("A", 3)
    for other in (make_preset("wishart", A3, kappa=1.0, a=4.0),
                  make_preset("jacobi", A3, k=1.0, p=5.0, q=5.0),
                  CoefficientModel(sigma=lambda y: m.sigma(y), drift_b=m.drift_b,
                                   coupling=m.coupling)):
        assert other.unit_constants() is None


def test_wishart_coupling_is_sum_of_pairs():
    R = build_root_system("A", 3)
    m = make_preset("wishart", R, kappa=1.0, a=4.0)
    y = np.array([1.0, 2.0, 5.0])
    k = m.coupling_values(y, R)
    # roots ordered e2-e1, e3-e1, e3-e2
    assert np.allclose(k, [3.0, 6.0, 7.0])
    assert np.allclose(m.sigma(y), 2.0 * np.sqrt(y))
    assert np.allclose(m.drift_b(y), 4.0)


@pytest.mark.parametrize("preset", ["wishart", "jacobi"])
def test_pair_couplings_find_their_pairs_at_make_preset(monkeypatch, preset):
    """The wishart and jacobi couplings find the (i, j) of their roots once,
    when the model is built, not at every evaluation (each lock-step
    iteration)."""
    calls = []
    find = models._pair_indices
    monkeypatch.setattr(models, "_pair_indices", lambda R: calls.append(R) or find(R))
    R = build_root_system("A", 3)
    m = make_preset(preset, R, **VALID[preset])
    assert calls == [R]
    x = np.array([[0.1, 0.3, 0.6], [-0.2, 0.0, 0.4]])
    first = m.coupling_values(x, R)
    assert first.shape == (2, R.M)
    for _ in range(3):
        assert np.array_equal(m.coupling_values(x, R), first)
    assert calls == [R]


def test_jacobi_wall_condition():
    # N = 3, k = 0.5 needs min(p, q) >= 2 + 4 = 6; N is the root system's
    A3 = build_root_system("A", 3)
    m = make_preset("jacobi", A3, k=0.5, p=6.5, q=6.0)
    x = np.array([-0.5, 0.0, 0.5])
    assert np.allclose(m.sigma(x), np.sqrt(1.0 - x**2))
    with pytest.raises(ValueError, match="min\\(p, q\\)"):
        make_preset("jacobi", A3, k=0.5, p=5.0, q=6.0)
    with pytest.raises(ValueError, match="= 7 "):  # N = 4 needs 3 + 4 = 7
        make_preset("jacobi", build_root_system("A", 4), k=0.5, p=6.5, q=6.0)


def test_wishart_param_map_roundtrip():
    kap, a = wishart_param_map(0.75, 0.5, 3)
    assert kap == pytest.approx(1.0)
    assert a == pytest.approx(4.5)
    # back again: k2 = kappa/2 and k1 = (kappa a - 1 - 2 k2 (N - 1)) / 2
    k2 = kap / 2.0
    k1 = (kap * a - 1.0 - 2.0 * k2 * (3 - 1)) / 2.0
    assert (k1, k2) == (pytest.approx(0.75), pytest.approx(0.5))
    # matrix-case values: k1 = k2 = 1/2, N = 2 gives kappa a = 2k1 + 2k2 + 1
    kap, a = wishart_param_map(0.5, 0.5, 2)
    assert kap == pytest.approx(1.0)
    assert a == pytest.approx(3.0)


def test_chamber_grid_interior():
    for family, N in [("A", 3), ("B", 2), ("D", 3)]:
        R = build_root_system(family, N)
        g = chamber_grid(R, n_points=500, seed=1)
        assert g.shape[1] == N
        assert len(g) > 400
        assert np.all(g @ R.positive_matrix.T > 0)


def test_predictor_closed_forms():
    RA = build_root_system("A", 3)
    b = dimension_bound_predictor(make_preset("dyson", RA, k=0.25), RA)
    assert b.lower == b.upper == pytest.approx(0.25)
    assert b.closed_form
    b = dimension_bound_predictor(make_preset("dyson", RA, k=0.75), RA)
    assert b.upper == 0.0

    RB = build_root_system("B", 2)
    b = dimension_bound_predictor(make_preset("bessel_b", RB, k1=0.1, k2=0.6), RB)
    assert b.upper == pytest.approx(0.4)

    b = dimension_bound_predictor(make_preset("wishart", RA, kappa=0.5, a=7.0), RA)
    assert b.upper == pytest.approx(0.25)
    assert "a >= 2/kappa" in b.note

    b = dimension_bound_predictor(make_preset("jacobi", RA, k=0.4, p=8, q=8), RA)
    assert b.upper == pytest.approx(0.1)
    assert b.lower is None
    assert b.constants is None  # closed forms build no grid


@pytest.mark.parametrize("preset,params,family", [
    ("bessel_b", {"k1": 0.1, "k2": 0.6}, "A"),
    ("wishart", {"kappa": 0.5, "a": 7.0}, "B"),
    ("jacobi", {"k": 0.4, "p": 8, "q": 8}, "D"),
])
def test_predictor_rejects_preset_on_wrong_family(preset, params, family):
    """No model of a preset exists on a wrong family for the predictor to
    see: make_preset raises first."""
    R = build_root_system(family, 3)
    with pytest.raises(ValueError, match="root system"):
        dimension_bound_predictor(make_preset(preset, R, **params), R)


def test_predictor_grid_path_matches_dyson():
    """A user-built constant-coefficient model reproduces the Dyson closed form."""
    m = CoefficientModel(
        sigma=lambda y: np.ones_like(y),
        drift_b=lambda y: np.zeros_like(y),
        coupling=lambda x, R: np.full(x.shape[:-1] + (R.M,), 0.3),
        monotone=True,
    )
    R = build_root_system("A", 3)
    b = dimension_bound_predictor(m, R, grid=chamber_grid(R, 2000, seed=6))
    assert not b.closed_form
    assert b.upper == pytest.approx(0.2, abs=1e-9)
    assert b.lower == pytest.approx(0.2, abs=1e-9)
    assert "almost surely" in b.note
    b = dimension_bound_predictor(dataclasses.replace(m, monotone=False), R,
                                  grid=chamber_grid(R, 2000, seed=6))
    assert "positive probability only" in b.note


def test_presets_are_the_schema_enum():
    assert list(PRESETS) == _schema()["properties"]["preset"]["enum"]
    with pytest.raises(ValueError, match="unknown preset"):
        make_preset("custom", build_root_system("A", 3), sigma=None, drift_b=None,
                    coupling=None)


def test_bound_constants_dyson_ratio():
    R = build_root_system("A", 2)
    m = make_preset("dyson", R, k=0.4)
    c = compute_bound_constants(m, R, chamber_grid(R, 200, seed=8))
    # |alpha|^2 k / (sum alpha_i^2 sigma^2) = 2k/2 = k for every point
    beta = R.simple_roots[0]
    assert c.eta_check[beta] == pytest.approx(0.4)
    assert c.eta_hat[beta] == pytest.approx(0.4)
    assert c.b_hat == 0.0
