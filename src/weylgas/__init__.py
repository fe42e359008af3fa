"""weylgas: interacting particle systems with root-system repulsion.

Simulation and verification toolkit for the SDE
dx_i = sigma(x_i) dB_i + b(x_i) dt + sum_{alpha in R+} k_alpha(x)
alpha_i / <x, alpha> dt on the Weyl chambers of the A, B, and D root
systems: exact root algebra, symmetric-polynomial identities, adaptive
Euler-Maruyama ensembles, collision statistics, box-counting dimension
estimates, and an exact squared-Bessel oracle.
"""

__version__ = "0.1.0"

from .besq import (BesqSpec, besq_exact_transition, besq_hit_probability,
                   besq_zero_dimension)
from .collisions import (CollisionEvent, DimensionEstimate, EnsembleCollector,
                         box_counts, detect_collision_events, dyadic_scales,
                         fit_box_dimension)
from .config import ConfigError, RunConfig, load_config, parse_config
from .engine import (EnsembleResult, StepPolicy, TrajectoryRecord,
                     boundary_entry_push, e_poly_drift, log_e_drift_components,
                     mc_drift_estimate, simulate_ensemble, simulate_trajectory)
from .models import (BoundConstants, CoefficientModel, DimensionBounds,
                     chamber_grid, compute_bound_constants,
                     dimension_bound_predictor, make_preset, wishart_param_map)
from .roots import (ChamberLocation, RootSystem, build_root_system,
                    chamber_classify, reflect, resolve_weights)
from .rng import derive_key, trajectory_generator
from .runner import reanalyze_dimension, run_simulate, run_sweep, run_verify
from .sympoly import (elementary, elementary_excluding, elementary_rows,
                      residual_e_form2, residual_reflection_identities)
