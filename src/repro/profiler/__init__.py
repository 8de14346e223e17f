"""Microarchitecture-independent kernel analysis (PISA analog).

This package is phase 1 of NAPEL training and prediction: it turns a dynamic
instruction trace into a fixed-length, hardware-independent application
profile ``p(k, d)`` of exactly :data:`~repro.profiler.features.TOTAL_FEATURES`
(= 395) features, matching the feature families of paper Table 1:

* instruction mix (category and per-opcode fractions),
* instruction-level parallelism on an ideal machine (full and windowed),
* data and instruction reuse-distance distributions,
* memory traffic that escapes caches of a range of sizes,
* register traffic,
* memory footprint,
* spatial locality / stride behaviour,
* branch behaviour and working-set growth.
"""

from .features import FEATURE_NAMES, TOTAL_FEATURES, feature_groups
from .profile import ApplicationProfile, analyze_trace
from .ilp import ilp_features
from .instruction_mix import instruction_mix_features
from .reuse_distance import (
    ReuseDistanceHistogram,
    data_reuse_features,
    instruction_reuse_features,
    reuse_distances,
)
from .memory_traffic import memory_traffic_features
from .register_traffic import register_traffic_features
from .footprint import footprint_features
from .stride import stride_features
from .branching import branch_features
from .working_set import working_set_features

__all__ = [
    "ApplicationProfile",
    "analyze_trace",
    "FEATURE_NAMES",
    "TOTAL_FEATURES",
    "feature_groups",
    "ReuseDistanceHistogram",
    "reuse_distances",
    "data_reuse_features",
    "instruction_reuse_features",
    "ilp_features",
    "instruction_mix_features",
    "memory_traffic_features",
    "register_traffic_features",
    "footprint_features",
    "stride_features",
    "branch_features",
    "working_set_features",
]
