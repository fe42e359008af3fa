import json

import numpy as np
import pytest

from weylgas.config import ConfigError, load_config, parse_config


def minimal_doc(**overrides):
    doc = {
        "family": "A",
        "N": 3,
        "preset": "dyson",
        "k": 0.5,
        "T": 1.0,
        "ensemble": 10,
        "seed": 1,
    }
    doc.update(overrides)
    return doc


def test_minimal_config_parses():
    cfg = parse_config(minimal_doc())
    assert cfg.family == "A" and cfg.N == 3
    assert cfg.params == {"k": 0.5}
    assert cfg.eps_grid == (1e-2, 1e-3, 1e-4)
    assert cfg.workers == 1
    R = cfg.root_system()
    x0 = cfg.x0_array(R)
    assert np.allclose(x0, [-1.0, 0.0, 1.0])
    assert cfg.model().coupling_values(x0, R)[0] == 0.5


def test_missing_seed_rejected():
    doc = minimal_doc()
    del doc["seed"]
    with pytest.raises(ConfigError, match="seed"):
        parse_config(doc)


def test_all_violations_collected():
    doc = minimal_doc(N=0, T=-1.0, ensemble=0)
    with pytest.raises(ConfigError) as exc:
        parse_config(doc)
    joined = "\n".join(exc.value.violations)
    assert "N" in joined and "T" in joined and "ensemble" in joined
    assert len(exc.value.violations) >= 3


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="stride_typo"):
        parse_config(minimal_doc(stride_typo=2))


def test_preset_parameter_presence():
    doc = minimal_doc()
    del doc["k"]
    with pytest.raises(ConfigError, match="requires parameter 'k'"):
        parse_config(doc)


def test_preset_family_compatibility():
    with pytest.raises(ConfigError, match="family"):
        parse_config(minimal_doc(family="B"))


def test_d_family_minimum_rank():
    doc = minimal_doc(family="D", N=2, preset="bessel_general",
                      k_values=[0.5, 0.5])
    del doc["k"]
    with pytest.raises(ConfigError, match="N >= 3"):
        parse_config(doc)


def test_jacobi_wall_condition_named():
    doc = minimal_doc(preset="jacobi", k=0.5, p=3.0, q=9.0)
    with pytest.raises(ConfigError, match="min\\(p, q\\)"):
        parse_config(doc)
    # N = 3, k = 0.5: min(p, q) >= 2 + 4 = 6 passes at exactly 6
    cfg = parse_config(minimal_doc(preset="jacobi", k=0.5, p=6.0, q=7.0))
    assert cfg.preset == "jacobi"


def test_x0_modes():
    cfg = parse_config(minimal_doc(
        x0={"mode": "explicit", "values": [-2.0, 0.5, 3.0]}))
    assert np.allclose(cfg.x0_array(cfg.root_system()), [-2.0, 0.5, 3.0])

    cfg = parse_config(minimal_doc(x0={"mode": "equispaced", "spacing": 2.0}))
    assert np.allclose(cfg.x0_array(cfg.root_system()), [-2.0, 0.0, 2.0])

    # B-family equispaced starts at spacing, not 0
    doc = minimal_doc(family="B", preset="bessel_b", k1=0.5, k2=0.5)
    del doc["k"]
    cfg = parse_config(doc)
    assert np.allclose(cfg.x0_array(cfg.root_system()), [1.0, 2.0, 3.0])

    with pytest.raises(ConfigError, match="length"):
        parse_config(minimal_doc(x0={"mode": "explicit", "values": [1.0]}))
    with pytest.raises(ConfigError, match="values"):
        parse_config(minimal_doc(x0={"mode": "explicit"}))


def test_explicit_x0_outside_chamber_rejected():
    with pytest.raises(ConfigError, match="outside"):
        parse_config(minimal_doc(
            x0={"mode": "explicit", "values": [3.0, 0.5, -2.0]}))


def test_boundary_x0_outside_chamber_rejected():
    with pytest.raises(ConfigError, match="boundary x0 lies outside"):
        parse_config(minimal_doc(
            x0={"mode": "boundary", "values": [3.0, 0.5, -2.0]}))
    cfg = parse_config(minimal_doc(
        x0={"mode": "boundary", "values": [0.5, 0.5, 1.0]}))
    assert cfg.x0_mode == "boundary"


def test_jacobi_x0_must_be_inside_unit_interval():
    with pytest.raises(ConfigError, match="\\(-1, 1\\)"):
        parse_config(minimal_doc(
            preset="jacobi", k=0.5, p=7.0, q=7.0,
            x0={"mode": "explicit", "values": [-0.5, 0.0, 1.5]}))
    # equispaced jacobi squeezes into the interval automatically
    cfg = parse_config(minimal_doc(preset="jacobi", k=0.5, p=7.0, q=7.0))
    x0 = cfg.x0_array(cfg.root_system())
    assert np.all(np.abs(x0) < 1.0)


def test_policy_and_derived_values():
    cfg = parse_config(minimal_doc(
        policy={"dt_max": 1e-4, "safety": 0.2},
        eps_grid=[1e-3, 1e-1, 1e-2],
        dim_eps=0.005,
        scales={"j_min": 2, "n_scales": 4},
    ))
    assert cfg.policy.dt_max == 1e-4
    assert cfg.eps_grid == (1e-1, 1e-2, 1e-3)  # sorted descending
    assert cfg.resolved_dim_eps() == 0.005
    assert cfg.scale_list() == [1 / 32, 1 / 16, 1 / 8, 1 / 4]  # T/2^j, j=2..5


def test_default_dim_eps_tracks_step_size():
    cfg = parse_config(minimal_doc(policy={"dt_max": 1e-4}))
    assert cfg.resolved_dim_eps() == pytest.approx(0.1 * np.sqrt(1e-4))


@pytest.mark.parametrize("key,value", [
    ("wall_mode", "project"), ("wall_tol", 1e-3),
    ("gap_exponent", 0.5), ("entry_eps", 1e-6),
])
def test_removed_policy_keys_rejected(key, value):
    with pytest.raises(ConfigError, match=key):
        parse_config(minimal_doc(policy={key: value}))


def test_policy_dt_ordering_rejected():
    with pytest.raises(ConfigError, match="dt_min"):
        parse_config(minimal_doc(policy={"dt_min": 1e-2, "dt_max": 1e-3}))


def test_sweep_validation():
    cfg = parse_config(minimal_doc(
        sweep={"parameter": "k", "values": [0.25, 0.5]}))
    assert cfg.sweep["parameter"] == "k"
    with pytest.raises(ConfigError, match="sweep"):
        parse_config(minimal_doc(sweep={"parameter": "zeta", "values": [1]}))
    with pytest.raises(ConfigError, match="parameter2"):
        parse_config(minimal_doc(
            sweep={"parameter": "k", "values": [0.5], "values2": [1.0]}))


def test_load_config_file_errors(tmp_path):
    p = tmp_path / "c.json"
    p.write_text("{not json")
    with pytest.raises(ConfigError, match="parse error"):
        load_config(p)
    p.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="object"):
        load_config(p)
    p.write_text(json.dumps(minimal_doc()))
    assert load_config(p).preset == "dyson"
