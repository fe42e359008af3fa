"""Run configuration: JSON schema validation and object construction.

A run config is a plain JSON document (schema shipped as
``schemas/run_config_v1.json``).  ``load_config`` validates it and reports
every violation at once, including the numeric constraints the schema
cannot express (preset parameter presence, family compatibility, the
Jacobi wall condition).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources
from typing import Any, Optional

import jsonschema
import numpy as np

from .engine import StepPolicy
from .models import CoefficientModel, make_preset
from .roots import RootSystem, build_root_system, chamber_classify

SCHEMA_VERSION = 1

_PRESET_PARAMS = {
    "dyson": ("k",),
    "bessel_general": ("k_values",),
    "bessel_b": ("k1", "k2"),
    "wishart": ("kappa", "a"),
    "jacobi": ("k", "p", "q"),
}

_PRESET_FAMILY = {
    "dyson": "A",
    "bessel_b": "B",
    "wishart": "A",
    "jacobi": "A",
}


class ConfigError(ValueError):
    """Invalid run configuration; carries the full list of violations."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("invalid run config:\n  - " + "\n  - ".join(self.violations))


def _schema() -> dict:
    text = resources.files("weylgas.schemas").joinpath("run_config_v1.json").read_text()
    return json.loads(text)


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration plus the raw document it came from."""

    raw: dict
    family: str
    N: int
    preset: str
    params: dict
    T: float
    ensemble: int
    seed: int
    x0_mode: str = "equispaced"
    x0_values: Optional[tuple] = None
    x0_spacing: float = 1.0
    policy: StepPolicy = field(default_factory=StepPolicy)
    eps_grid: tuple = (1e-2, 1e-3, 1e-4)
    dim_eps: Optional[float] = None
    scales_spec: Any = None
    weights: Any = None
    output_dir: Optional[str] = None
    workers: int = 1
    record_trajectories: bool = False
    thin_stride: int = 1
    sweep: Optional[dict] = None

    # ----- derived objects -----

    def root_system(self) -> RootSystem:
        return build_root_system(self.family, self.N)

    def model(self) -> CoefficientModel:
        params = dict(self.params)
        if self.preset == "jacobi":
            params.setdefault("N", self.N)
        return make_preset(self.preset, **params)

    def x0_array(self, R: RootSystem) -> np.ndarray:
        if self.x0_mode == "equispaced":
            if self.family == "A":
                x = self.x0_spacing * (np.arange(self.N) - (self.N - 1) / 2.0)
            else:
                x = self.x0_spacing * np.arange(1, self.N + 1, dtype=float)
            if self.preset == "jacobi":
                # squeeze into (-1, 1) keeping the ordering
                x = x / (np.abs(x).max() + 1.0)
            return x
        return np.asarray(self.x0_values, dtype=float)

    def resolved_dim_eps(self) -> float:
        # default calibrated against exact squared-Bessel zero sets: larger
        # thresholds inflate the box-counting slope, much smaller ones are
        # limited by the step resolution
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
        return sorted(self.T / 2**j for j in range(j_min, j_min + n_scales))


def _collect_violations(doc: dict) -> list[str]:
    validator = jsonschema.Draft7Validator(_schema())
    violations = [
        f"{'/'.join(str(p) for p in err.absolute_path) or '<root>'}: {err.message}"
        for err in sorted(validator.iter_errors(doc), key=lambda e: list(e.absolute_path))
    ]
    if violations:
        return violations

    preset = doc["preset"]
    family = doc["family"]
    N = doc["N"]
    for p in _PRESET_PARAMS[preset]:
        if p not in doc:
            violations.append(f"preset {preset!r} requires parameter {p!r}")
    want = _PRESET_FAMILY.get(preset)
    if want is not None and family != want:
        violations.append(f"preset {preset!r} requires root system family {want!r}")
    if family == "D" and N < 3:
        violations.append("family D requires N >= 3")
    if preset == "jacobi" and all(p in doc for p in ("k", "p", "q")):
        wall = N - 1 + 2.0 / doc["k"]
        if min(doc["p"], doc["q"]) < wall:
            violations.append(
                f"jacobi wall condition violated: min(p, q) >= N - 1 + 2/k = {wall:g} "
                "is required for a unique strong solution"
            )
    x0 = doc.get("x0", {"mode": "equispaced"})
    if x0["mode"] in ("explicit", "boundary"):
        vals = x0.get("values")
        if vals is None:
            violations.append(f"x0 mode {x0['mode']!r} requires 'values'")
        elif len(vals) != N:
            violations.append(f"x0 values must have length N = {N}")
    sweep = doc.get("sweep")
    if sweep is not None:
        allowed = _PRESET_PARAMS[preset]
        for key in ("parameter", "parameter2"):
            if key in sweep and sweep[key] not in allowed:
                violations.append(
                    f"sweep {key} {sweep[key]!r} is not a parameter of preset {preset!r}")
        if ("parameter2" in sweep) != ("values2" in sweep):
            violations.append("sweep parameter2 and values2 must be given together")
    policy = doc.get("policy", {})
    if policy.get("dt_min", 1e-9) > policy.get("dt_max", 1e-3):
        violations.append("policy.dt_min must not exceed policy.dt_max")
    return violations


def parse_config(doc: dict) -> RunConfig:
    """Validate a config document and build a RunConfig.

    Raises ConfigError listing every violation, not just the first.
    """
    violations = _collect_violations(doc)
    if violations:
        raise ConfigError(violations)

    params = {p: doc[p] for p in _PRESET_PARAMS[doc["preset"]]}
    x0 = doc.get("x0", {"mode": "equispaced"})
    policy = StepPolicy(**doc.get("policy", {}))

    cfg = RunConfig(
        raw=doc,
        family=doc["family"], N=int(doc["N"]), preset=doc["preset"], params=params,
        T=float(doc["T"]), ensemble=int(doc["ensemble"]), seed=int(doc["seed"]),
        x0_mode=x0["mode"],
        x0_values=tuple(x0["values"]) if "values" in x0 else None,
        x0_spacing=float(x0.get("spacing", 1.0)),
        policy=policy,
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

    # late checks needing constructed objects
    late: list[str] = []
    try:
        R = cfg.root_system()
        x0_arr = cfg.x0_array(R)
        if cfg.x0_mode in ("explicit", "boundary"):
            loc = chamber_classify(x0_arr, R, tol=0.0)
            if loc.region == "outside":
                late.append(f"{cfg.x0_mode} x0 lies outside the closed Weyl chamber")
        if cfg.preset == "jacobi" and np.any(np.abs(x0_arr) >= 1.0):
            late.append("jacobi x0 coordinates must lie in (-1, 1)")
        cfg.model()
    except ConfigError:
        raise
    except (ValueError, KeyError) as exc:
        late.append(str(exc))
    if late:
        raise ConfigError(late)
    return cfg


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
