"""Design of experiments (DoE) — paper Section 2.4.

The central piece is the Box-Wilson :func:`central_composite` design (CCD)
used by NAPEL to pick the application-input configurations to simulate for
training data.  Box-Behnken, D-optimal, Latin-hypercube and uniform-random
designs are provided as baselines for the DoE ablation benchmarks.
"""

from .space import ParameterSpace, cross_backends
from .box_behnken import box_behnken
from .ccd import central_composite, ccd_run_count
from .doptimal import d_optimal, quadratic_basis
from .lhs import latin_hypercube
from .random_sampling import random_design

__all__ = [
    "ParameterSpace",
    "cross_backends",
    "central_composite",
    "ccd_run_count",
    "box_behnken",
    "d_optimal",
    "quadratic_basis",
    "latin_hypercube",
    "random_design",
]
