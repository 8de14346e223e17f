"""Random forest regression (Breiman 2001) — NAPEL's learner.

Bootstrap-aggregated CART trees with per-split random feature subsets.
Besides prediction, the forest exposes out-of-bag (OOB) error — used by
the hyper-parameter tuner as a cheap internal validation signal — and
aggregated feature importances for analysis.

A fitted forest keeps its trees' node arrays as one node table
(:func:`~repro.ml.tree.node_table`), so a prediction or the OOB score
is one :func:`~repro.ml.tree.descend` of every tree at once.

Tree fitting parallelizes over worker processes (``jobs``): every tree's
RNG seed and bootstrap sample are pre-drawn from the forest RNG in tree
order *before* dispatch, so serial and parallel fits consume the random
stream identically and produce bit-identical forests.
"""

from __future__ import annotations

import numpy as np

from ..errors import MLError
from ..obs import metrics
from ..parallel import map_jobs, resolve_jobs
from .tree import (
    RegressionTree, _check_fit_data, _check_rows, _dense_ranks, descend,
    node_table,
)


def _fit_tree_chunk(job) -> list[RegressionTree]:
    """Worker-side body: fit one chunk of pre-planned trees in order.

    ``X`` is transposed and ranked once per chunk; each tree gathers its
    bootstrap samples' columns and ranks, so no tree sorts from scratch.
    """
    X, y, params, plans = job
    columns = np.ascontiguousarray(X.T)
    ranks = _dense_ranks(columns)
    trees = []
    for seed, sample in plans:
        tree = RegressionTree(
            max_depth=params["max_depth"],
            min_samples_leaf=params["min_samples_leaf"],
            max_features=params["max_features"],
            rng=np.random.default_rng(seed),
        )
        if sample is None:
            tree._fit(columns, y, ranks)
        else:
            tree._fit(
                columns.take(sample, axis=1), y[sample],
                ranks.take(sample, axis=1),
            )
        trees.append(tree)
    metrics().inc("ml.trees.fitted", len(trees))
    metrics().inc("ml.tree.nodes", sum(tree.n_nodes for tree in trees))
    return trees


class RandomForestRegressor:
    """Bagged ensemble of :class:`~repro.ml.tree.RegressionTree`.

    Parameters
    ----------
    n_estimators:
        Number of trees.
    max_features:
        Per-split feature subsample; default "third" (the classic
        regression-forest setting of p/3).
    max_depth, min_samples_leaf:
        Passed to the base trees.
    bootstrap:
        Draw a bootstrap resample per tree (True for a proper forest).
    random_state:
        Seed for reproducibility.
    jobs:
        Worker processes for tree fitting (1 = serial, 0 = all CPUs,
        None = honour ``REPRO_JOBS``).  Serial and parallel fits are
        bit-identical.
    """

    def __init__(
        self,
        n_estimators: int = 100,
        max_features="third",
        max_depth: int | None = None,
        min_samples_leaf: int = 1,
        bootstrap: bool = True,
        random_state: int | None = None,
        jobs: int | None = None,
    ) -> None:
        if n_estimators < 1:
            raise MLError("n_estimators must be >= 1")
        self.n_estimators = n_estimators
        self.max_features = max_features
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.bootstrap = bootstrap
        self.random_state = random_state
        self.jobs = jobs
        self.trees_: list[RegressionTree] = []
        self.n_features_: int | None = None
        self.oob_prediction_: np.ndarray | None = None
        self.feature_importances_: np.ndarray | None = None

    def get_params(self) -> dict:
        """Constructor parameters (for tuning / cloning)."""
        return {
            "n_estimators": self.n_estimators,
            "max_features": self.max_features,
            "max_depth": self.max_depth,
            "min_samples_leaf": self.min_samples_leaf,
            "bootstrap": self.bootstrap,
            "random_state": self.random_state,
            "jobs": self.jobs,
        }

    def clone(self, **overrides) -> "RandomForestRegressor":
        params = self.get_params()
        params.update(overrides)
        return RandomForestRegressor(**params)

    def fit(self, X, y) -> "RandomForestRegressor":
        X, y = _check_fit_data(X, y)
        n = len(y)
        rng = np.random.default_rng(self.random_state)
        # Pre-draw every tree's seed and bootstrap sample in tree order:
        # the RNG stream is consumed exactly as a serial loop would, so
        # the fitted forest is independent of the worker count.
        plans: list[tuple[int, np.ndarray | None]] = []
        for _ in range(self.n_estimators):
            seed = int(rng.integers(0, 2**63))
            sample = rng.integers(0, n, size=n) if self.bootstrap else None
            plans.append((seed, sample))
        self.trees_ = self._fit_trees(X, y, plans)
        self.n_features_ = X.shape[1]
        self.nodes_, self.roots_, self.values_ = node_table(self.trees_)
        importances = np.zeros(X.shape[1])
        for tree in self.trees_:
            importances += tree.feature_importances_
        self.feature_importances_ = importances / self.n_estimators
        self._aggregate_oob(X, [sample for _, sample in plans])
        return self

    def _fit_trees(
        self, X: np.ndarray, y: np.ndarray,
        plans: list[tuple[int, np.ndarray | None]],
    ) -> list[RegressionTree]:
        jobs_n = resolve_jobs(self.jobs)
        params = {
            "max_depth": self.max_depth,
            "min_samples_leaf": self.min_samples_leaf,
            "max_features": self.max_features,
        }
        if jobs_n <= 1 or len(plans) <= 1:
            return _fit_tree_chunk((X, y, params, plans))
        # One contiguous chunk per worker keeps X/y pickling to jobs_n
        # round trips; chunk order is restored by map_jobs, so the tree
        # list comes back in plan order.
        jobs_n = min(jobs_n, len(plans))
        bounds = np.linspace(0, len(plans), jobs_n + 1).astype(int)
        chunks = [
            (X, y, params, plans[lo:hi])
            for lo, hi in zip(bounds[:-1], bounds[1:])
            if hi > lo
        ]
        fitted = map_jobs(_fit_tree_chunk, chunks, jobs_n=jobs_n, chunk=1)
        return [tree for chunk_trees in fitted for tree in chunk_trees]

    def _tree_predictions(self, X: np.ndarray) -> np.ndarray:
        """(n_trees, n_samples) matrix of per-tree predictions, from one
        descent of every tree over the forest's node table."""
        return self.values_[descend(self.nodes_, self.roots_, X)]

    def _aggregate_oob(
        self, X: np.ndarray, samples: list[np.ndarray | None]
    ) -> None:
        """Per-sample OOB prediction from the per-tree predictions."""
        if not self.bootstrap:
            self.oob_prediction_ = None
            return
        n = len(X)
        oob_mask = np.ones((len(self.trees_), n), dtype=bool)
        for t, sample in enumerate(samples):
            oob_mask[t, np.unique(sample)] = False
        if not oob_mask.any():
            self.oob_prediction_ = None
            return
        preds = self._tree_predictions(X)
        oob_count = oob_mask.sum(axis=0)
        oob_sum = np.where(oob_mask, preds, 0.0).sum(axis=0)
        oob = np.full(n, np.nan)
        seen = oob_count > 0
        oob[seen] = oob_sum[seen] / oob_count[seen]
        self.oob_prediction_ = oob

    def predict(self, X) -> np.ndarray:
        X = _check_rows(X, self.n_features_, "RandomForestRegressor")
        return self._tree_predictions(X).mean(axis=0)

    def oob_error(self, y) -> float:
        """Out-of-bag RMSE against the training targets.

        RMSE (not relative error) so the criterion stays well-defined for
        log-transformed targets that cross zero.  Samples never left out
        (possible with few trees) are skipped.
        """
        if self.oob_prediction_ is None:
            raise MLError("OOB error requires bootstrap=True and a fit")
        y = np.asarray(y, dtype=np.float64).ravel()
        mask = ~np.isnan(self.oob_prediction_)
        if not mask.any():
            raise MLError("no out-of-bag samples available")
        err = self.oob_prediction_[mask] - y[mask]
        return float(np.sqrt(np.mean(err**2)))
