#!/usr/bin/env bash
# Exercise the installed `weylgas` console script end to end.
#   bash .github/scripts/console_script.sh OUT_DIR
# Runs besq, verify, simulate and dimension, and checks that invalid besq
# input and each invalid config exit with code 2, the latter before any run
# directory is made.
set -euo pipefail
out=$1
mkdir -p "$out"

weylgas --version
weylgas besq --delta 1.0 --x0 1.0 --t 1.0
# expect_besq_error ARGS...: `weylgas besq` exits 2 on a time that is not
# positive and finite (at every delta), on an infinite or NaN delta or x0,
# and on a mean x0 + delta * t that overflows
expect_besq_error() {
  local code=0
  weylgas besq "$@" || code=$?
  test "$code" -eq 2
}
expect_besq_error --delta 3 --x0 1 --t -1
expect_besq_error --delta 3 --x0 1 --t nan
expect_besq_error --delta 1 --x0 1 --t nan
expect_besq_error --delta nan --x0 1 --t 1
expect_besq_error --delta 1 --x0 nan --t 1
expect_besq_error --delta 3 --x0 1 --t inf
expect_besq_error --delta inf --x0 1 --t 1
expect_besq_error --delta 1 --x0 inf --t 1
expect_besq_error --delta 1e308 --x0 1 --t 10
# x0 / 2t underflows to 0: the hitting probability is Q(1/2, 0) = 1
weylgas besq --delta 1 --x0 1e-320 --t 1e10 > "$out/besq_underflow.json"
grep -q '"hit_probability": 1.0' "$out/besq_underflow.json"
weylgas verify --scope all --report "$out/verify.json"
# the oracle checks its hitting law on both sides of x0/(2t) = 2 - delta/2
python -c '
import json, sys
checks = json.load(open(sys.argv[1]))["sections"]["oracle"]["checks"]
assert sorted(c["x0"] / (2 * c["t"]) < 2 - c["delta"] / 2 for c in checks) == [False, True], checks
assert all(c["passed"] for c in checks), checks
' "$out/verify.json"
cat > "$out/a2.json" <<'JSON'
{"family": "A", "N": 2, "preset": "dyson", "k": 0.2, "T": 0.5,
 "ensemble": 8, "seed": 7, "x0": {"mode": "equispaced", "spacing": 0.4},
 "policy": {"dt_max": 1e-3}, "eps_grid": [0.1, 0.01]}
JSON
weylgas simulate "$out/a2.json" --out "$out/a2_run"
weylgas dimension "$out/a2_run" --eps 0.01
code=0
weylgas dimension "$out/a2_run" --scales 0 || code=$?
test "$code" -eq 2

# expect_config_error NAME JSON: `weylgas simulate` exits 2 and makes no run directory
expect_config_error() {
  echo "$2" > "$out/$1.json"
  local code=0
  weylgas simulate "$out/$1.json" --out "$out/$1_run" || code=$?
  test "$code" -eq 2
  test ! -e "$out/$1_run"
}
expect_config_error project '{"family": "A", "N": 2, "preset": "dyson", "k": 0.2, "T": 0.5,
  "ensemble": 8, "seed": 7, "policy": {"wall_mode": "project"}}'
expect_config_error outside '{"family": "A", "N": 3, "preset": "dyson", "k": 0.2, "T": 0.5,
  "ensemble": 8, "seed": 7, "x0": {"mode": "boundary", "values": [3.0, 0.5, -2.0]}}'
expect_config_error zero_T '{"family": "A", "N": 2, "preset": "dyson", "k": 0.2, "T": 0,
  "ensemble": 8, "seed": 7}'
expect_config_error weights '{"family": "A", "N": 3, "preset": "dyson", "k": 0.2, "T": 0.5,
  "ensemble": 8, "seed": 7, "weights": [1.0, 2.0]}'
expect_config_error nan_T '{"family": "A", "N": 2, "preset": "dyson", "k": 0.2, "T": NaN,
  "ensemble": 8, "seed": 7}'
expect_config_error infinite_T '{"family": "A", "N": 2, "preset": "dyson", "k": 0.2, "T": Infinity,
  "ensemble": 8, "seed": 7}'
expect_config_error minus_infinite_dt_max '{"family": "A", "N": 2, "preset": "dyson", "k": 0.2,
  "T": 0.5, "ensemble": 8, "seed": 7, "policy": {"dt_max": -Infinity}}'
expect_config_error k_values_count '{"family": "B", "N": 3, "preset": "bessel_general",
  "k_values": [0.3, 0.4], "T": 0.5, "ensemble": 8, "seed": 7}'
expect_config_error wishart_outside '{"family": "A", "N": 3, "preset": "wishart", "kappa": 0.5,
  "a": 7.0, "T": 0.5, "ensemble": 8, "seed": 7,
  "x0": {"mode": "explicit", "values": [-0.5, 1.0, 2.0]}}'
expect_config_error wrong_family '{"family": "B", "N": 3, "preset": "dyson", "k": 0.2, "T": 0.5,
  "ensemble": 8, "seed": 7}'
