"""Run configuration: JSON schema validation and object construction.

A run config is a plain JSON document.  ``load_config`` checks it against
the shipped ``schemas/run_config_v1.json``, the single source of truth for
its keys, types and bounds, and reports every violation at once, including
the constraints the schema cannot express.  Preset parameter presence and
the sweep parameters are checked against ``models.PRESETS``.  The rules of
the root system and of the preset on it (D needs N >= 3, the preset's
family, the Jacobi wall condition, the ``bessel_general`` value count) are
reported as ``build_root_system`` and ``make_preset`` raise them, with the
x0 checks (the closed chamber, and the preset's state interval in
``models.PRESETS``) and the weight check, once the schema holds; each of
these checks runs on its own, beside the rules on keys, so one fault hides
no other.

The schema is read by ``_schema_errors``, a small draft-07 interpreter of
the keywords the schema uses (``_KEYWORDS``), so validation needs no
``jsonschema`` at run time; the test suite checks it against
``jsonschema.Draft7Validator``.  It raises ``NotImplementedError`` on any
other keyword, so a schema edit cannot drop a rule silently.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass
from importlib import resources
from typing import Any, Optional

import numpy as np

from .collisions import dyadic_scales
from .engine import StepPolicy
from .models import PRESETS, CoefficientModel, make_preset
from .roots import RootSystem, build_root_system, resolve_weights

SCHEMA_VERSION = 1

_X0_DEFAULT = {"mode": "equispaced"}


class ConfigError(ValueError):
    """Invalid run configuration; carries the full list of violations."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("invalid run config:\n  - " + "\n  - ".join(self.violations))


def _schema() -> dict:
    text = resources.files("weylgas.schemas").joinpath("run_config_v1.json").read_text()
    return json.loads(text)


# draft-07 keywords _schema_errors checks, plus the annotations it skips
_KEYWORDS = frozenset({
    "$schema", "$id", "title", "type", "enum", "const", "minimum", "exclusiveMinimum",
    "required", "properties", "additionalProperties", "items", "minItems", "oneOf"})
_JSON_TYPES = {"null": type(None), "boolean": bool, "string": str, "object": dict,
               "array": list}


def _is_type(value, name: str) -> bool:
    """Draft-07 ``type``: a bool is no number, an integral float is an integer."""
    if name in ("number", "integer"):
        if isinstance(value, bool) or not isinstance(value, numbers.Number):
            return False
        return name == "number" or isinstance(value, int) or (
            isinstance(value, float) and value.is_integer())
    return isinstance(value, _JSON_TYPES[name])


def _equal(a, b) -> bool:
    """Draft-07 equality of scalars for ``enum`` and ``const``: True is not 1."""
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    return a == b


def _schema_errors(schema: dict, value, path: str = "") -> list[str]:
    """Every rule of the draft-07 ``schema`` that ``value`` breaks, as
    ``"path: message"`` lines (path ``<root>`` for the document itself)."""
    unknown = sorted(set(schema) - _KEYWORDS)
    if unknown:
        raise NotImplementedError(f"schema keywords {unknown} are not handled")
    errors: list[str] = []
    where = path or "<root>"
    is_object, is_array = isinstance(value, dict), isinstance(value, list)
    is_number = _is_type(value, "number")
    for key, rule in schema.items():
        if key == "type":
            names = [rule] if isinstance(rule, str) else rule
            if not any(_is_type(value, n) for n in names):
                errors.append(f"{where}: {value!r} is not of type {', '.join(map(repr, names))}")
        elif key == "enum" and not any(_equal(value, v) for v in rule):
            errors.append(f"{where}: {value!r} is not one of {rule!r}")
        elif key == "const" and not _equal(value, rule):
            errors.append(f"{where}: {rule!r} was expected")
        elif key == "minimum" and is_number and value < rule:
            errors.append(f"{where}: {value!r} is less than the minimum of {rule!r}")
        elif key == "exclusiveMinimum" and is_number and value <= rule:
            errors.append(f"{where}: {value!r} is less than or equal to the minimum of {rule!r}")
        elif key == "required" and is_object:
            errors += [f"{where}: {name!r} is a required property"
                       for name in rule if name not in value]
        elif key == "properties" and is_object:
            for name, sub in rule.items():
                if name in value:
                    errors += _schema_errors(sub, value[name], f"{path}/{name}".lstrip("/"))
        elif key == "additionalProperties":
            if rule is not False:
                raise NotImplementedError("only additionalProperties: false is handled")
            extra = sorted(set(value) - set(schema.get("properties", {}))) if is_object else []
            if extra:
                errors.append(f"{where}: additional properties are not allowed "
                              f"({', '.join(map(repr, extra))} unexpected)")
        elif key == "items" and is_array:
            for i, item in enumerate(value):
                errors += _schema_errors(rule, item, f"{path}/{i}".lstrip("/"))
        elif key == "minItems" and is_array and len(value) < rule:
            errors.append(f"{where}: {value!r} should have at least {rule} items")
        elif key == "oneOf":
            matched = sum(not _schema_errors(sub, value, path) for sub in rule)
            if matched != 1:
                errors.append(f"{where}: {value!r} is valid under {matched} of the "
                              f"{len(rule)} schemas in oneOf, not exactly one")
    return errors


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration plus the raw document it came from;
    ``parse_config`` builds it and supplies every field."""

    raw: dict
    family: str
    N: int
    preset: str
    params: dict
    T: float
    ensemble: int
    seed: int
    x0_mode: str
    x0_values: Optional[tuple]
    x0_spacing: float
    policy: StepPolicy
    eps_grid: tuple
    dim_eps: Optional[float]
    scales_spec: Any
    weights: Any
    output_dir: Optional[str]
    workers: int
    record_trajectories: bool
    thin_stride: int
    sweep: Optional[dict]

    # ----- derived objects -----

    def root_system(self) -> RootSystem:
        return build_root_system(self.family, self.N)

    def model(self) -> CoefficientModel:
        return make_preset(self.preset, self.root_system(), **self.params)

    def x0_array(self, R: RootSystem) -> np.ndarray:
        if self.x0_mode != "equispaced":
            return np.asarray(self.x0_values, dtype=float)
        if self.family == "A":
            x = self.x0_spacing * (np.arange(self.N) - (self.N - 1) / 2.0)
        else:
            x = self.x0_spacing * np.arange(1, self.N + 1, dtype=float)
        interval = PRESETS[self.preset][2]  # the open interval of the coordinates
        if interval is None:
            return x
        # into the interval, keeping the order: squeezed about the centre of
        # a bounded one (x / (max|x| + 1) on (-1, 1)), or moved to start one
        # spacing above a lower bound
        lo, hi = interval
        if np.isfinite(hi):
            return (lo + hi) / 2.0 + (hi - lo) / 2.0 * (x / (np.abs(x).max() + 1.0))
        return x - x.min() + (lo + self.x0_spacing)

    def resolved_dim_eps(self) -> float:
        # default 0.1 sqrt(dt_max), a rule of thumb that no check in the
        # repository calibrates: larger thresholds inflate the box-counting
        # slope, much smaller ones are limited by the step resolution
        if self.dim_eps is not None:
            return float(self.dim_eps)
        return float(0.1 * np.sqrt(self.policy.dt_max))

    def scale_list(self) -> list[float]:
        spec = self.scales_spec
        if isinstance(spec, (list, tuple)):
            return sorted(float(s) for s in spec)
        j_min, n_scales = 3, 9
        if isinstance(spec, dict):
            j_min = int(spec.get("j_min", j_min))
            n_scales = int(spec.get("n_scales", n_scales))
        return sorted(dyadic_scales(self.T, n_scales, j_min))


def _collect_violations(doc: dict) -> list[str]:
    """Every violation of ``doc``.  Once the schema holds, the cross-key
    rules run, then the checks on the objects the document builds, each in
    its own ``try``, so that no fault hides another."""
    violations = _schema_errors(_schema(), doc)
    try:  # Python's json reads NaN and Infinity, and the number type admits them
        json.dumps(doc, allow_nan=False, default=float)
    except ValueError:
        violations.append("document holds a NaN or infinite number, which JSON cannot hold")
    if violations:
        return violations

    preset = doc["preset"]
    N = doc["N"]
    allowed = PRESETS[preset][1]
    missing = [p for p in allowed if p not in doc]
    violations += [f"preset {preset!r} requires parameter {p!r}" for p in missing]
    x0 = doc.get("x0", _X0_DEFAULT)
    x0_ok = True
    if x0["mode"] in ("explicit", "boundary"):
        vals = x0.get("values")
        x0_ok = vals is not None and len(vals) == N
        if vals is None:
            violations.append(f"x0 mode {x0['mode']!r} requires 'values'")
        elif len(vals) != N:
            violations.append(f"x0 values must have length N = {N}")
    sweep = doc.get("sweep")
    if sweep is not None:
        for key in ("parameter", "parameter2"):
            if key in sweep and sweep[key] not in allowed:
                violations.append(
                    f"sweep {key} {sweep[key]!r} is not a parameter of preset {preset!r}")
        if ("parameter2" in sweep) != ("values2" in sweep):
            violations.append("sweep parameter2 and values2 must be given together")
    policy = doc.get("policy", {})
    if policy.get("dt_min", StepPolicy.dt_min) > policy.get("dt_max", StepPolicy.dt_max):
        violations.append("policy.dt_min must not exceed policy.dt_max")

    # checks on the objects the document builds; they read no policy
    cfg = _build(dict(doc, policy={}))
    try:
        R = cfg.root_system()
    except ValueError as exc:
        return violations + [str(exc)]
    if x0_ok:
        x0_arr = cfg.x0_array(R)
        if np.min(R.positive_matrix @ x0_arr) < 0:
            violations.append(f"{cfg.x0_mode} x0 lies outside the closed Weyl chamber")
        interval = PRESETS[cfg.preset][2]
        if interval is not None and not np.all((interval[0] < x0_arr) & (x0_arr < interval[1])):
            violations.append(f"{cfg.preset} x0 coordinates must lie in "
                              f"({interval[0]:g}, {interval[1]:g})")
    checks = [lambda: resolve_weights(R, cfg.weights)]
    if not missing:
        checks.append(cfg.model)
    for check in checks:
        try:
            check()
        except (ValueError, KeyError) as exc:
            violations.append(str(exc))
    return violations


def _build(doc: dict) -> RunConfig:
    """The RunConfig of a document that passes the schema; a preset
    parameter the document lacks is left out of ``params``."""
    x0 = doc.get("x0", _X0_DEFAULT)
    return RunConfig(
        raw=doc,
        family=doc["family"], N=int(doc["N"]), preset=doc["preset"],
        params={p: doc[p] for p in PRESETS[doc["preset"]][1] if p in doc},
        T=float(doc["T"]), ensemble=int(doc["ensemble"]), seed=int(doc["seed"]),
        x0_mode=x0["mode"],
        x0_values=tuple(x0["values"]) if "values" in x0 else None,
        x0_spacing=float(x0.get("spacing", 1.0)),
        policy=StepPolicy(**doc.get("policy", {})),
        eps_grid=tuple(sorted(doc.get("eps_grid", (1e-2, 1e-3, 1e-4)), reverse=True)),
        dim_eps=doc.get("dim_eps"),
        scales_spec=doc.get("scales"),
        weights=doc.get("weights"),
        output_dir=doc.get("output_dir"),
        workers=int(doc.get("workers", 1)),
        record_trajectories=bool(doc.get("record_trajectories", False)),
        thin_stride=int(doc.get("thin_stride", 1)),
        sweep=doc.get("sweep"),
    )


def parse_config(doc: dict) -> RunConfig:
    """Validate a config document and build a RunConfig.

    Raises ConfigError listing every violation, not just the first.
    """
    violations = _collect_violations(doc)
    if violations:
        raise ConfigError(violations)
    return _build(doc)


def load_config(path) -> RunConfig:
    """Read, validate, and parse a JSON run config file."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError([f"JSON parse error: {exc}"]) from exc
    if not isinstance(doc, dict):
        raise ConfigError(["top-level config must be a JSON object"])
    return parse_config(doc)
