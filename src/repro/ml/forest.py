"""Random forest regression (Breiman 2001) — NAPEL's learner.

Bootstrap-aggregated CART trees with per-split random feature subsets.
Besides prediction, the forest exposes out-of-bag (OOB) error — used by
the hyper-parameter tuner as a cheap internal validation signal — and
aggregated feature importances for analysis.

A fitted forest is its trees' node arrays as one node table
(:func:`~repro.ml.tree.node_table`), their mean importances and the OOB
prediction; no tree object outlives the fit.  A prediction or the OOB
score is one :func:`~repro.ml.tree.descend` of every tree at once (the
compiled ``descend`` kernel where it is built).

Every fit goes through :func:`fit_forests`, which fits any number of
forests on the same data in one pass: a plain ``fit`` is the one-forest
case, and the OOB grid search (:func:`~repro.ml.tuning.grid_search`)
fits all of its combinations at once.  Every tree's RNG seed and
bootstrap sample (its *plan*) are pre-drawn from the forest RNG in tree
order before any tree is fitted, so serial and parallel fits consume
the random stream identically and produce bit-identical forests.
Forests with equal ``random_state``, ``bootstrap`` and ``n_estimators``
draw equal plans, so they share one set: each plan's trees, one per
forest, are fitted by one ``build_trees`` kernel call over the ranks
and rank classes of the columns, computed once per fit, and their
generators come from one ``SeedSequence`` of the plan's seed.  The
compiled kernel keeps each class's presorted order per tree and brings
it up to date only at the nodes that draw the class (a node of at most
16 rows sorts its rows directly).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .. import native
from ..errors import MLError
from ..obs import metrics
from ..parallel import map_jobs, resolve_jobs
from .tree import (
    RegressionTree, _check_fit_data, _check_rows, _rank_classes, descend,
    node_table,
)

#: A tree's *plan*: its RNG seed and bootstrap sample (None without
#: bootstrap).
Plan = tuple[int, np.ndarray | None]


def _fit_tree_chunk(job) -> list[list[tuple]]:
    """Worker-side body: fit one chunk of plans in order.

    Each unit of the chunk is a plan and the tree settings of every
    forest that shares it, fitted by one ``build_trees`` call: its
    trees share one presort of the plan's rows, so no tree sorts from
    scratch.
    """
    columns, y, ranks, classes, units = job
    build, _backend = native.resolve("build_trees")
    fitted = []
    for (seed, sample), unit in units:
        # default_rng(seed)'s construction, its seed expanded once for
        # all of the plan's trees.
        entropy = np.random.SeedSequence(seed)
        fitted.append(build(columns, y, ranks, classes, sample, [
            (*settings, np.random.Generator(np.random.PCG64(entropy)))
            for settings in unit
        ]))
    metrics().inc("ml.trees.fitted", sum(len(unit) for unit in fitted))
    metrics().inc("ml.tree.nodes", sum(
        len(tree[4]) for unit in fitted for tree in unit
    ))
    return fitted


def _draw_plans(forest: "RandomForestRegressor", n: int) -> list[Plan]:
    """Every tree's plan, drawn in tree order as a serial loop would."""
    rng = np.random.default_rng(forest.random_state)
    plans: list[Plan] = []
    for _ in range(forest.n_estimators):
        seed = int(rng.integers(0, 2**63))
        sample = rng.integers(0, n, size=n) if forest.bootstrap else None
        plans.append((seed, sample))
    return plans


def _oob_mask(plans: list[Plan], n: int) -> np.ndarray | None:
    """(trees, samples) mask of the samples each plan leaves out of bag,
    or None without bootstrap."""
    if plans[0][1] is None:
        return None
    mask = np.ones((len(plans), n), dtype=bool)
    for t, (_seed, sample) in enumerate(plans):
        mask[t, sample] = False
    return mask


def fit_forests(
    forests: Sequence["RandomForestRegressor"], X, y, jobs: int | None = None
) -> None:
    """Fit every forest in ``forests`` on the same ``X``, ``y`` in one pass.

    ``X`` is transposed, ranked and grouped into rank classes once.
    Forests that share ``random_state``, ``bootstrap`` and
    ``n_estimators`` share one set of plans (one draw from
    ``random_state``, also when it is None) and one out-of-bag mask.
    Each forest comes out bit-identical to its own ``fit`` from a fresh
    draw of its ``random_state``.  ``jobs`` spreads contiguous chunks of
    plans, across all forests, over worker processes (1 = serial, 0 = all
    CPUs, None = honour ``REPRO_JOBS``).
    """
    X, y = _check_fit_data(X, y)
    columns = np.ascontiguousarray(X.T)
    ranks, classes = _rank_classes(columns)
    groups: dict[tuple, list[RandomForestRegressor]] = {}
    for forest in forests:
        key = (forest.random_state, forest.bootstrap, forest.n_estimators)
        groups.setdefault(key, []).append(forest)
    shared = [
        (members, _draw_plans(members[0], len(y)))
        for members in groups.values()
    ]
    units = []
    for members, plans in shared:
        settings = [
            RegressionTree(**forest._tree_params())._settings(len(columns))
            for forest in members
        ]
        units += [(plan, settings) for plan in plans]
    # One contiguous chunk per worker keeps the data's pickling to one
    # round trip each; map_jobs returns the chunks in order, so the
    # trees come back in plan order.
    jobs_n = max(1, min(resolve_jobs(jobs), len(units)))
    bounds = np.linspace(0, len(units), jobs_n + 1).astype(int)
    chunks = [
        (columns, y, ranks, classes, units[lo:hi])
        for lo, hi in zip(bounds[:-1], bounds[1:])
    ]
    fitted = [
        unit
        for chunk in map_jobs(_fit_tree_chunk, chunks, jobs_n=jobs_n)
        for unit in chunk
    ]
    start = 0
    for members, plans in shared:
        per_plan = fitted[start:start + len(plans)]
        start += len(plans)
        oob_mask = _oob_mask(plans, len(y))
        for i, forest in enumerate(members):
            trees = [unit[i] for unit in per_plan]
            forest.n_features_ = X.shape[1]
            forest.nodes_, forest.roots_, forest.values_ = node_table(trees)
            # Each tree's gains as shares of its total (``_normalized``,
            # all trees at once), summed tree by tree.
            gains = np.array([tree[5] for tree in trees])
            totals = gains.sum(axis=1, keepdims=True)
            shares = np.divide(gains, totals, out=gains, where=totals > 0)
            forest.feature_importances_ = sum(shares) / forest.n_estimators
            forest._aggregate_oob(X, oob_mask)


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
        None = honour ``REPRO_JOBS``; an OOB grid search uses its own
        ``jobs``).  Serial and parallel fits are bit-identical.
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
        fit_forests([self], X, y, self.jobs)
        return self

    def _tree_params(self) -> dict:
        """Constructor arguments of every base tree but its RNG."""
        return {
            "max_depth": self.max_depth,
            "min_samples_leaf": self.min_samples_leaf,
            "max_features": self.max_features,
        }

    def _tree_predictions(self, X: np.ndarray) -> np.ndarray:
        """(n_trees, n_samples) matrix of per-tree predictions, from one
        descent of every tree over the forest's node table."""
        return self.values_[descend(self.nodes_, self.roots_, X)]

    def _aggregate_oob(self, X: np.ndarray, oob_mask: np.ndarray | None) -> None:
        """Per-sample OOB prediction from the per-tree predictions."""
        if oob_mask is None or not oob_mask.any():
            self.oob_prediction_ = None
            return
        preds = self._tree_predictions(X)
        oob_count = oob_mask.sum(axis=0)
        oob_sum = np.where(oob_mask, preds, 0.0).sum(axis=0)
        oob = np.full(len(X), np.nan)
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
