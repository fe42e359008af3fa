"""Command line interface: simulate, sweep, verify, dimension, besq.

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 verification failure.  The default output root comes from the
WEYLGAS_OUTPUT_ROOT environment variable (falling back to ./runs).
"""

from __future__ import annotations

import json
import math
import sys

import click

from . import __version__
from .besq import BesqSpec, besq_hit_probability, besq_zero_dimension
from .config import ConfigError, load_config
from .runner import (EXIT_CONFIG, EXIT_NUMERICAL, EXIT_VERIFY, reanalyze_dimension,
                     run_simulate, run_sweep, run_verify, write_json)


@click.group()
@click.version_option(__version__)
def main():
    """Interacting particle simulation and verification toolkit."""


def _load(config_path):
    try:
        return load_config(config_path)
    except ConfigError as exc:
        click.echo(str(exc), err=True)
        sys.exit(EXIT_CONFIG)


@main.command()
@click.argument("config", type=click.Path(exists=True))
@click.option("--out", type=click.Path(), default=None,
              help="Run directory (default: <output root>/run_<digest>).")
@click.option("--workers", type=int, default=None,
              help="Override the worker count from the config.")
def simulate(config, out, workers):
    """Run one ensemble from a JSON CONFIG and persist the run directory."""
    cfg = _load(config)
    try:
        manifest = run_simulate(cfg, out_dir=out, workers=workers)
    except (FloatingPointError, RuntimeError, ZeroDivisionError) as exc:
        click.echo(f"numerical failure: {exc}", err=True)
        sys.exit(EXIT_NUMERICAL)
    s = manifest["summary"]
    click.echo(json.dumps({
        "dimension": s["dimension"]["value"],
        "stderr": s["dimension"]["stderr"],
        "predictor": s["predictor"],
        "event_rates": s["event_rates"],
    }, indent=1, sort_keys=True))


@main.command()
@click.argument("config", type=click.Path(exists=True))
@click.option("--out", type=click.Path(), default=None, help="Output directory.")
@click.option("--workers", type=int, default=None,
              help="Override the worker count from the config.")
def sweep(config, out, workers):
    """Run a parameter sweep from a JSON CONFIG with a 'sweep' section."""
    cfg = _load(config)
    try:
        table = run_sweep(cfg, out_dir=out, workers=workers)
    except ConfigError as exc:
        click.echo(str(exc), err=True)
        sys.exit(EXIT_CONFIG)
    except (FloatingPointError, RuntimeError, ZeroDivisionError) as exc:
        click.echo(f"numerical failure: {exc}", err=True)
        sys.exit(EXIT_NUMERICAL)
    for row in table["rows"]:
        click.echo(json.dumps(row, sort_keys=True))


@main.command()
@click.option("--scope", type=click.Choice(["algebra", "drift", "oracle", "all"]),
              default="all", show_default=True,
              help="Which verification suite to run.")
@click.option("--report", type=click.Path(), default=None,
              help="Write the machine-readable report to this JSON file.")
def verify(scope, report):
    """Run the exact-identity, drift, and oracle verification suites."""
    result = run_verify(scope)
    if report:
        write_json(report, result)
    click.echo(json.dumps(
        {k: v["passed"] for k, v in result["sections"].items()},
        sort_keys=True))
    if not result["passed"]:
        for name, sec in result["sections"].items():
            for f in sec.get("failures", []):
                click.echo(f"{name}: {f}", err=True)
        sys.exit(EXIT_VERIFY)


@main.command()
@click.argument("run_dir", type=click.Path(exists=True, file_okay=False))
@click.option("--eps", type=float, default=None,
              help="Event threshold; must be one the run recorded.")
@click.option("--scales", type=str, default=None,
              help="Comma-separated list of box scales.")
def dimension(run_dir, eps, scales):
    """Re-analyze the persisted events of RUN_DIR at new eps/scales."""
    try:
        scale_list = [float(s) for s in scales.split(",")] if scales else None
        result = reanalyze_dimension(run_dir, eps=eps, scales=scale_list)
    except (ValueError, FileNotFoundError) as exc:
        click.echo(str(exc), err=True)
        sys.exit(EXIT_CONFIG)
    click.echo(json.dumps(result, indent=1, sort_keys=True))


@main.command()
@click.option("--delta", type=float, required=True, help="BESQ dimension.")
@click.option("--x0", type=float, required=True, help="Starting value.")
@click.option("--t", type=float, required=True, help="Time horizon.")
def besq(delta, x0, t):
    """Query the squared-Bessel oracle (hitting law, zero-set dimension)."""
    try:
        spec = BesqSpec(delta=delta, x0=x0)  # rejects a negative, infinite or NaN value
        if not 0 < t < math.inf:  # at every delta; False on NaN
            raise ValueError("t must be finite and positive")
        mean = x0 + delta * t
        if mean == math.inf:  # JSON has no Infinity
            raise ValueError("x0 + delta * t overflows")
        out = {
            "delta": delta,
            "x0": x0,
            "t": t,
            "mean": mean,
            "zero_set_dimension": besq_zero_dimension(delta),
            "hit_probability": besq_hit_probability(spec, t) if delta < 2 else 0.0,
        }
    except ValueError as exc:
        click.echo(str(exc), err=True)
        sys.exit(EXIT_CONFIG)
    click.echo(json.dumps(out, indent=1, sort_keys=True))


if __name__ == "__main__":
    main()
