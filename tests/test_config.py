import json

import jsonschema
import numpy as np
import pytest
from click.testing import CliRunner
from test_models import VALID
from test_runner import SMALL_DOC

from weylgas.cli import main
from weylgas.config import (_KEYWORDS, ConfigError, _schema, _schema_errors, load_config,
                            parse_config)
from weylgas.models import PRESETS


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
    assert cfg.model().coupling(x0)[0] == 0.5


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
    with pytest.raises(ConfigError, match="preset 'dyson' requires root system family 'A'"):
        parse_config(minimal_doc(family="B"))


def _bessel_general_b3(k_values):
    doc = minimal_doc(family="B", preset="bessel_general", k_values=k_values)
    del doc["k"]
    return doc


def test_bessel_general_value_count_checked(tmp_path):
    """k_values hold one value or one per positive root (M = 9 on B3); any
    other count is a config error, raised before a run directory is made."""
    doc = _bessel_general_b3([0.3, 0.4])
    with pytest.raises(ConfigError, match="one value or M = 9 values, not 2"):
        parse_config(doc)
    cfg, out = tmp_path / "c.json", tmp_path / "never"
    cfg.write_text(json.dumps(doc))
    res = CliRunner().invoke(main, ["simulate", str(cfg), "--out", str(out)])
    assert res.exit_code == 2 and "M = 9 values, not 2" in res.output, res.output
    assert not out.exists()
    parse_config(_bessel_general_b3([0.3]))


def test_bessel_general_values_weyl_invariant():
    """Roots of equal length form one Weyl orbit in A, B and D, so per-root
    values must be equal on roots of equal length."""
    short, long = [0.3] * 3, [0.45] * 6  # B3: e_i first, then e_j -/+ e_i
    cfg = parse_config(_bessel_general_b3(short + long))
    assert cfg.model().unit_constants().tolist() == short + long
    for k_values in ([0.3, 0.3, 0.31] + long, short + [0.45] * 5 + [0.5]):
        with pytest.raises(ConfigError, match="equal on roots of equal length"):
            parse_config(_bessel_general_b3(k_values))
    doc = minimal_doc(preset="bessel_general", k_values=[0.3, 0.3, 0.4])  # A3: one length
    del doc["k"]
    with pytest.raises(ConfigError, match="equal on roots of equal length"):
        parse_config(doc)


def test_dt_ordering_and_family_both_named():
    """The late checks run beside the rules on keys: a document with dt_min
    above dt_max and a preset on the wrong family names both faults."""
    doc = minimal_doc(family="B", policy={"dt_min": 1.0, "dt_max": 0.1})
    with pytest.raises(ConfigError) as exc:
        parse_config(doc)
    assert exc.value.violations == [
        "policy.dt_min must not exceed policy.dt_max",
        "preset 'dyson' requires root system family 'A'"]


def test_late_faults_all_named():
    """Each late check runs in its own try: a wrong weight count does not
    hide a wrong family or a wrong ``bessel_general`` value count."""
    with pytest.raises(ConfigError) as exc:
        parse_config(minimal_doc(family="B", weights=[1.0, 2.0]))
    assert exc.value.violations == [
        "weights must be one value or M = 9 values, not an array of shape (2,)",
        "preset 'dyson' requires root system family 'A'"]
    doc = dict(_bessel_general_b3([0.3, 0.4]), weights=[1.0, 2.0])
    with pytest.raises(ConfigError) as exc:
        parse_config(doc)
    assert exc.value.violations == [
        "weights must be one value or M = 9 values, not an array of shape (2,)",
        "bessel_general k_values must be one value or M = 9 values, not 2"]


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
    # equispaced jacobi squeezes into the interval automatically, with the
    # bits of x / (max|x| + 1)
    for N in (2, 3, 4):
        for spacing in (0.3, 1.0, 2.5):
            cfg = parse_config(minimal_doc(preset="jacobi", N=N, k=0.5, p=8.0, q=8.0,
                                           x0={"mode": "equispaced", "spacing": spacing}))
            x = spacing * (np.arange(N) - (N - 1) / 2.0)
            want = x / (np.abs(x).max() + 1.0)
            assert cfg.x0_array(cfg.root_system()).tobytes() == want.tobytes()


@pytest.mark.parametrize("values", [[-0.5, 1.0, 2.0], [0.0, 1.0, 2.0]])
def test_wishart_x0_must_be_positive(values):
    """Wishart coordinates live in (0, inf): an explicit start with a
    coordinate at or below 0 is rejected, though inside the chamber."""
    doc = minimal_doc(preset="wishart", kappa=0.5, a=7.0,
                      x0={"mode": "explicit", "values": values})
    del doc["k"]
    with pytest.raises(ConfigError, match="\\(0, inf\\)") as exc:
        parse_config(doc)
    assert len(exc.value.violations) == 1
    cfg = parse_config(dict(doc, x0={"mode": "explicit", "values": [0.5, 1.0, 2.0]}))
    assert cfg.x0_array(cfg.root_system()).tolist() == [0.5, 1.0, 2.0]


@pytest.mark.parametrize("preset, family, N", [
    (preset, family, N) for preset, (want, _, _) in PRESETS.items()
    for family in ("A", "B", "D") if want in (None, family)
    for N in (2, 3, 4) if (family, N) != ("D", 2)])
def test_default_start_lies_in_chamber_and_interval(preset, family, N):
    """The default equispaced start parses, and lies inside the open
    chamber and the preset's state interval."""
    doc = {"family": family, "N": N, "preset": preset, "T": 1.0, "ensemble": 1,
           "seed": 1, **VALID[preset]}
    cfg = parse_config(doc)
    R = cfg.root_system()
    x0 = cfg.x0_array(R)
    assert np.all(R.positive_matrix @ x0 > 0)
    lo, hi = PRESETS[preset][2] or (-np.inf, np.inf)
    assert np.all((lo < x0) & (x0 < hi)), x0


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


def test_zero_horizon_rejected():
    """T = 0 fails validation: every box scale T/2^j would be 0."""
    with pytest.raises(ConfigError, match="^invalid run config:\n  - T: 0 is less"):
        parse_config(minimal_doc(T=0))


def test_weights_length_checked():
    with pytest.raises(ConfigError, match="M = 3 values"):
        parse_config(minimal_doc(weights=[1.0, 2.0]))
    with pytest.raises(ConfigError, match="M = 3 values"):
        parse_config(minimal_doc(weights=[]))
    assert parse_config(minimal_doc(weights=[2.0])).weights == [2.0]  # broadcasts
    assert parse_config(minimal_doc(weights=[1.0, 2.0, 3.0])).weights == [1.0, 2.0, 3.0]


@pytest.mark.parametrize("key,value,constant", [
    ("T", float("nan"), "NaN"), ("T", float("inf"), "Infinity"),
    ("policy", {"dt_max": -float("inf")}, "-Infinity")],
    ids=["T-NaN", "T-Infinity", "dt_max-minus-Infinity"])
def test_non_finite_numbers_rejected(tmp_path, key, value, constant):
    """JSON has no NaN or infinity, but Python's json reads the constants and
    the schema's number type admits them: a document holding one fails
    validation, and a config file with one exits 2 before any run
    directory is made."""
    doc = dict(SMALL_DOC, **{key: value})
    with pytest.raises(ConfigError, match="NaN or infinite number"):
        parse_config(doc)
    cfg, out = tmp_path / "c.json", tmp_path / "never"
    cfg.write_text(json.dumps(doc))
    assert constant in cfg.read_text()
    res = CliRunner().invoke(main, ["simulate", str(cfg), "--out", str(out)])
    assert res.exit_code == 2 and "NaN or infinite number" in res.output, res.output
    assert not out.exists()


# Sets every key of the schema, so each rule is reached; valid by the schema
# alone (parse_config's later checks would reject the mix of presets).
FULL_DOC = {
    "schema_version": 1, "family": "B", "N": 2, "preset": "bessel_general",
    "k": 0.5, "k1": 0.1, "k2": 0.4, "kappa": 1.0, "a": 2.0, "p": 6.0, "q": 7.0,
    "k_values": [0.1, 0.2, 0.3, 0.4], "T": 1.0, "ensemble": 3, "seed": -4,
    "x0": {"mode": "explicit", "values": [0.1, 0.5], "spacing": 1.0},
    "policy": {"dt_max": 1e-3, "dt_min": 1e-9, "safety": 0.1,
               "explosion_radius": 1e6, "max_rejects": 60},
    "eps_grid": [0.1, 0.01], "dim_eps": None, "scales": [0.1, 0.2], "weights": "norm",
    "output_dir": "out", "workers": 2, "record_trajectories": True, "thin_stride": 3,
    "sweep": {"parameter": "k1", "values": [0.1, 0.2], "parameter2": "k2",
              "values2": [0.3]},
}
# Accepted documents the tests build, and both oneOf branches of ``scales``
# and all four of ``weights``.
DOCS = [
    minimal_doc(), SMALL_DOC, FULL_DOC,
    minimal_doc(preset="jacobi", k=0.5, p=6.0, q=7.0, x0={"mode": "equispaced"}),
    dict(SMALL_DOC, sweep={"parameter": "k", "values": [0.2, 0.6]}),
    dict(FULL_DOC, scales={}, weights=None, dim_eps=0.005),
    dict(FULL_DOC, scales={"j_min": 0, "n_scales": 2}, weights=2.0),
    dict(FULL_DOC, weights=[1.0, 2.0, 3.0, 4.0]),
]
# wrong types, bools for numbers, 0 and negative bounds, empty arrays
SUBSTITUTES = ["x", True, False, None, 0, -1, 0.0, 0.5, 2, 2.0, [], [0], [0.1, 0.2], {}]


def _mutations(doc):
    """Copies of ``doc`` with one leaf or container replaced, one key
    removed or one unknown key added, at every depth."""
    yield doc
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        nested = _mutations(value) if isinstance(value, (dict, list)) else ()
        for sub in [*SUBSTITUTES, *nested]:
            copy = dict(doc) if isinstance(doc, dict) else list(doc)
            copy[key] = sub
            yield copy
        if isinstance(doc, dict):
            yield {k: v for k, v in doc.items() if k != key}
    if isinstance(doc, dict):
        yield dict(doc, unknown_key=1)


def test_schema_interpreter_matches_jsonschema():
    """``_schema_errors`` accepts exactly the documents that jsonschema's
    Draft7Validator accepts, and reports errors at the same paths."""
    schema = _schema()
    reference = jsonschema.Draft7Validator(schema)
    checked = rejected = 0
    for base in DOCS:
        assert not _schema_errors(schema, base)
        for doc in _mutations(base):
            want = sorted("/".join(map(str, e.absolute_path)) or "<root>"
                          for e in reference.iter_errors(doc))
            got = sorted(line.split(": ", 1)[0] for line in _schema_errors(schema, doc))
            assert got == want, (doc, _schema_errors(schema, doc))
            checked, rejected = checked + 1, rejected + bool(want)
    assert rejected > 500 and checked - rejected > 100


def test_schema_uses_only_handled_keywords():
    """Every keyword of the shipped schema is one ``_schema_errors`` handles;
    any other raises instead of passing silently."""
    def keywords(node):
        yield from node
        for sub in [*node.get("properties", {}).values(), *node.get("oneOf", []),
                    *([node["items"]] if "items" in node else [])]:
            yield from keywords(sub)

    assert set(keywords(_schema())) <= _KEYWORDS
    for schema in ({"maxItems": 2}, {"additionalProperties": {"type": "number"}}):
        with pytest.raises(NotImplementedError):
            _schema_errors(schema, [1])
