"""Squaring a type-B Bessel ensemble gives a Wishart ensemble.

The coordinate map y = x^2 sends the B-type multivariate Bessel process
with couplings (k1, k2) to the Wishart dynamics with parameters
(kappa, a) = wishart_param_map(k1, k2, N).  This script simulates both
sides from matched initial conditions and compares the distribution of
the largest coordinate at t = 1 with a two-sample Kolmogorov-Smirnov
distance.

Run:  python3 demos/wishart_map_check.py   (about 30 seconds)
"""

import numpy as np
from scipy import stats

from weylgas import (StepPolicy, build_root_system, make_preset,
                     simulate_ensemble, wishart_param_map)

k1, k2, N = 0.75, 0.5, 3
kappa, a = wishart_param_map(k1, k2, N)
print(f"(k1, k2, N) = ({k1}, {k2}, {N})  ->  (kappa, a) = ({kappa}, {a})")

n_paths, T = 4000, 1.0
pol = StepPolicy(dt_max=2.5e-4)
x0 = np.array([0.5, 1.0, 1.5])

RB, RA = build_root_system("B", N), build_root_system("A", N)
bessel = make_preset("bessel_b", RB, k1=k1, k2=k2)
res_b = simulate_ensemble(bessel, RB, x0, T, pol, master_seed=31, n_paths=n_paths)

wishart = make_preset("wishart", RA, kappa=kappa, a=a)
res_w = simulate_ensemble(wishart, RA, x0**2, T, pol, master_seed=32, n_paths=n_paths)

top_b = np.max(res_b.final_states**2, axis=1)
top_w = np.max(res_w.final_states, axis=1)
ks = stats.ks_2samp(top_b, top_w)
print(f"largest coordinate at t={T}: "
      f"mean {top_b.mean():.3f} (squared Bessel) vs {top_w.mean():.3f} (Wishart)")
print(f"two-sample KS distance: {ks.statistic:.4f}  (p = {ks.pvalue:.3f})")
