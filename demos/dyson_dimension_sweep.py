"""Collision-set dimension of the Dyson model versus the coupling.

Three particles with inverse-distance repulsion of strength k collide
for k < 1/2, and the set of collision times has fractal dimension
1/2 - k.  This script integrates a modest ensemble for a few couplings
and compares the pooled box-counting estimate with that prediction.
With the small ensemble here expect agreement to within roughly 0.1;
the acceptance suite runs the full-size version.

Run:  python3 demos/dyson_dimension_sweep.py   (about 2 minutes)
"""

import numpy as np

from weylgas import (EnsembleCollector, StepPolicy, build_root_system,
                     dimension_bound_predictor, make_preset,
                     simulate_ensemble)

R = build_root_system("A", 3)
T, n_paths = 5.0, 120
scales = [T / 2**j for j in range(3, 12)]
x0 = 0.5 * (np.arange(3) - 1.0)

print(f"{'k':>5} {'predicted':>10} {'estimated':>10} {'stderr':>8}")
for k in (0.1, 0.25, 0.4):
    model = make_preset("dyson", R, k=k)
    bounds = dimension_bound_predictor(model, R)
    col = EnsembleCollector(R, None, n_paths, T, eps_list=[1e-3],
                            dim_eps=1e-3, scales=scales)
    simulate_ensemble(model, R, x0, T, StepPolicy(dt_max=1e-4),
                      master_seed=11, n_paths=n_paths, collector=col)
    col.finalize()
    est = col.pooled_dimension()
    print(f"{k:5.2f} {bounds.upper:10.3f} {est.value:10.3f} {est.stderr:8.3f}")

print("\nat k >= 1/2 the repulsion wins and collisions stop entirely")
print("(well-separated start, so any event would be a genuine collision):")
model = make_preset("dyson", R, k=0.5)
col = EnsembleCollector(R, None, n_paths, T, eps_list=[1e-4],
                        dim_eps=1e-4, scales=scales)
simulate_ensemble(model, R, 16.0 * x0, T, StepPolicy(dt_max=1e-3),
                  master_seed=12, n_paths=n_paths, collector=col)
col.finalize()
print(f"  k=0.50: fraction of paths ever below eps=1e-4: "
      f"{col.event_rates(1e-4)['any']:.3f}")
