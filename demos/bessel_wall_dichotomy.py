"""Two walls, two couplings: the type-B dichotomy.

A B_2 system has two kinds of walls: the origin wall x_1 = 0 (short
roots, coupling k1) and the diagonal wall x_1 = x_2 (long roots,
coupling k2).  Whichever coupling is smaller governs the collision-set
dimension, 1/2 - min(k1, k2).  And when k1 < 1/2 <= k2 only the origin
wall is ever hit: the short root carries essentially all events.

Run:  python3 demos/bessel_wall_dichotomy.py   (about 2 minutes)
"""

import numpy as np

from weylgas import (EnsembleCollector, StepPolicy, build_root_system,
                     make_preset, simulate_ensemble)

R = build_root_system("B", 2)
T, n_paths = 5.0, 80
scales = [T / 2**j for j in range(3, 12)]
e1 = R.positive_roots.index((1, 0))

for k1, k2 in [(0.1, 0.4), (0.4, 0.1), (0.1, 0.6)]:
    model = make_preset("bessel_b", R, k1=k1, k2=k2)
    col = EnsembleCollector(R, None, n_paths, T, eps_list=[1e-3],
                            dim_eps=1e-3, scales=scales)
    simulate_ensemble(model, R, np.array([0.3, 0.8]), T,
                      StepPolicy(dt_max=1e-4), master_seed=21,
                      n_paths=n_paths, collector=col)
    col.finalize()
    est = col.pooled_dimension()
    frac = col.argmin_fraction(1e-3, e1)
    print(f"(k1, k2) = ({k1}, {k2}):")
    print(f"  predicted dimension 1/2 - min = {0.5 - min(k1, k2):.2f}, "
          f"estimated {est.value:.3f} +/- {est.stderr:.3f}")
    print(f"  fraction of events deepest at the origin wall: {frac:.3f}")
