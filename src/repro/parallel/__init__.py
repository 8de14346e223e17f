"""Parallel execution engine for campaigns, LOOCV and ensemble training.

Every expensive stage of the reproduction — DoE simulation campaigns,
leave-one-application-out retraining, bootstrap-tree fitting and
hyper-parameter grid search — is an embarrassingly parallel loop over
independent jobs.  This subpackage provides the one abstraction they all
share: :func:`map_jobs`, an ordered, deterministic, exception-annotating
map over a job list, run either in the calling process or in a pool of
worker processes.

Determinism is a hard guarantee: callers pre-compute any random state
(per-job seeds, bootstrap samples) *before* dispatch, workers are pure
functions of their job payload, and results are merged back in job order
— so a parallel run produces bit-identical output to a serial one.
"""

from .executor import (
    ParallelError,
    in_worker,
    map_jobs,
    process_pool_available,
    resolve_jobs,
)

__all__ = [
    "ParallelError",
    "in_worker",
    "map_jobs",
    "process_pool_available",
    "resolve_jobs",
]
