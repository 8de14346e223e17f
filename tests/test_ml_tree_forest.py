"""Tests for the CART tree and random forest (repro.ml.tree / .forest).

Running this file as a script rewrites ``tests/data/golden_forests.json``
(a sha256 per fitted tree of a few fixed-seed forests, a model tree and
the forest an OOB grid search returns, with that search's scores; each
forest tree is refitted alone from its forest's plan, and the forest's
node table must hold exactly those trees); do so only for a change that
is meant to alter fitted trees.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import forest_trees
from repro.core.pipeline import DEFAULT_RF_GRID
from repro.errors import MLError, NotFittedError
from repro.ml import (
    ModelTree, RandomForestRegressor, RegressionTree, grid_search, r2_score,
)
from repro.ml.forest import _draw_plans
from repro.ml.tree import _dense_ranks

GOLDEN_FORESTS = Path(__file__).parent / "data" / "golden_forests.json"


def step_data(n=200, seed=0):
    """y is a step function of x0 — trivially learnable by one split."""
    rng = np.random.default_rng(seed)
    X = rng.random((n, 5))
    y = np.where(X[:, 0] > 0.5, 10.0, 1.0)
    return X, y


def smooth_data(n=300, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.random((n, 8))
    y = 3 * X[:, 0] + np.sin(6 * X[:, 1]) + 0.5 * X[:, 2] * X[:, 3]
    return X, y


class TestRegressionTree:
    def test_learns_step_function_exactly(self):
        X, y = step_data()
        tree = RegressionTree().fit(X, y)
        assert r2_score(y, tree.predict(X)) > 0.999

    def test_single_leaf_for_constant_target(self):
        X = np.random.default_rng(0).random((50, 3))
        tree = RegressionTree().fit(X, np.full(50, 7.0))
        assert tree.n_nodes == 1
        assert (tree.predict(X) == 7.0).all()

    def test_max_depth_respected(self):
        X, y = smooth_data()
        tree = RegressionTree(max_depth=3).fit(X, y)
        assert tree.depth <= 3

    def test_min_samples_leaf(self):
        X, y = smooth_data(100)
        tree = RegressionTree(min_samples_leaf=20).fit(X, y)
        leaves = tree.apply(X)
        _, counts = np.unique(leaves, return_counts=True)
        assert counts.min() >= 20

    def test_prediction_is_training_mean_at_leaves(self):
        X, y = smooth_data(80)
        tree = RegressionTree(max_depth=2).fit(X, y)
        leaves = tree.apply(X)
        preds = tree.predict(X)
        for leaf in np.unique(leaves):
            mask = leaves == leaf
            assert preds[mask][0] == pytest.approx(y[mask].mean())

    def test_unfitted_raises(self):
        with pytest.raises(NotFittedError):
            RegressionTree().predict(np.zeros((1, 3)))

    def test_feature_count_checked(self):
        X, y = step_data()
        tree = RegressionTree().fit(X, y)
        with pytest.raises(MLError):
            tree.predict(np.zeros((2, 99)))

    def test_empty_rejected(self):
        with pytest.raises(MLError):
            RegressionTree().fit(np.zeros((0, 3)), np.zeros(0))

    def test_vectorized_batch_matches_per_row_walk(self):
        """A whole matrix descends to the same leaves as each of its rows
        alone — what makes served batch predictions equal single-row
        ones — and a pickled tree predicts what it did."""
        import pickle

        X, y = smooth_data(400)
        tree = RegressionTree(max_depth=10).fit(X, y)
        batch = tree.predict(X)
        scalar = np.array(
            [tree.predict(row[np.newaxis, :])[0] for row in X]
        )
        assert np.array_equal(batch, scalar)
        leaves_batch = tree.apply(X)
        leaves_scalar = np.array(
            [tree.apply(row[np.newaxis, :])[0] for row in X]
        )
        assert np.array_equal(leaves_batch, leaves_scalar)
        clone = pickle.loads(pickle.dumps(tree))
        assert np.array_equal(clone.predict(X), batch)

    def test_feature_importances_identify_signal(self):
        X, y = step_data(400)
        tree = RegressionTree(rng=np.random.default_rng(1)).fit(X, y)
        assert int(np.argmax(tree.feature_importances_)) == 0
        assert tree.feature_importances_.sum() == pytest.approx(1.0)

    def test_max_features_variants(self):
        X, y = smooth_data(100)
        for mf in ("sqrt", "third", "log2", 3, 0.5, None):
            RegressionTree(max_features=mf, rng=np.random.default_rng(0)).fit(X, y)

    def test_bad_max_features(self):
        X, y = step_data(50)
        with pytest.raises(MLError):
            RegressionTree(max_features="bogus").fit(X, y)

    @pytest.mark.parametrize(
        "rng", [0, 5, np.random.RandomState(0), np.random.PCG64(0)],
        ids=["zero", "int", "RandomState", "BitGenerator"],
    )
    def test_rng_must_be_a_generator(self, rng):
        # An int is not a seed here (rng=0 would be falsy, rng=5 has no
        # choice), and a RandomState draws from another stream.
        with pytest.raises(MLError, match="numpy.random.Generator"):
            RegressionTree(rng=rng)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 1000))
    def test_predictions_within_target_range(self, seed):
        X, y = smooth_data(60, seed=seed)
        tree = RegressionTree(rng=np.random.default_rng(seed)).fit(X, y)
        preds = tree.predict(np.random.default_rng(seed + 1).random((30, 8)))
        assert preds.min() >= y.min() - 1e-9
        assert preds.max() <= y.max() + 1e-9


class TestRandomForest:
    def test_beats_single_tree_on_noise(self):
        rng = np.random.default_rng(3)
        X = rng.random((250, 10))
        y = 3 * X[:, 0] + np.sin(6 * X[:, 1]) + 0.3 * rng.normal(size=250)
        Xt = rng.random((100, 10))
        yt = 3 * Xt[:, 0] + np.sin(6 * Xt[:, 1])
        tree = RegressionTree(rng=np.random.default_rng(0)).fit(X, y)
        # Same feature policy as the single tree (all features) so the
        # comparison isolates the variance reduction of bagging.
        forest = RandomForestRegressor(
            n_estimators=50, max_features=None, random_state=0
        ).fit(X, y)
        tree_err = np.abs(tree.predict(Xt) - yt).mean()
        forest_err = np.abs(forest.predict(Xt) - yt).mean()
        assert forest_err < tree_err

    def test_reproducible_with_seed(self):
        X, y = smooth_data()
        a = RandomForestRegressor(n_estimators=10, random_state=42).fit(X, y)
        b = RandomForestRegressor(n_estimators=10, random_state=42).fit(X, y)
        Xt = np.random.default_rng(1).random((20, 8))
        assert np.array_equal(a.predict(Xt), b.predict(Xt))

    def test_different_seeds_differ(self):
        X, y = smooth_data()
        a = RandomForestRegressor(n_estimators=10, random_state=1).fit(X, y)
        b = RandomForestRegressor(n_estimators=10, random_state=2).fit(X, y)
        Xt = np.random.default_rng(1).random((20, 8))
        assert not np.array_equal(a.predict(Xt), b.predict(Xt))

    def test_oob_prediction_available(self):
        X, y = smooth_data()
        forest = RandomForestRegressor(n_estimators=25, random_state=0).fit(X, y)
        assert forest.oob_prediction_ is not None
        # OOB RMSE should be well below the target spread.
        assert forest.oob_error(y) < y.std()

    def test_no_bootstrap_has_no_oob(self):
        X, y = smooth_data(100)
        forest = RandomForestRegressor(
            n_estimators=5, bootstrap=False, random_state=0
        ).fit(X, y)
        with pytest.raises(MLError):
            forest.oob_error(y)

    def test_clone_overrides(self):
        forest = RandomForestRegressor(n_estimators=10)
        clone = forest.clone(min_samples_leaf=4)
        assert clone.min_samples_leaf == 4
        assert clone.n_estimators == 10

    def test_unfitted_raises(self):
        with pytest.raises(NotFittedError):
            RandomForestRegressor().predict(np.zeros((1, 3)))

    def test_invalid_n_estimators(self):
        with pytest.raises(MLError):
            RandomForestRegressor(n_estimators=0)

    def test_feature_importances_identify_signal(self):
        X, y = step_data(300)
        forest = RandomForestRegressor(n_estimators=20, random_state=0).fit(X, y)
        assert int(np.argmax(forest.feature_importances_)) == 0


@pytest.mark.parametrize(
    "make", [RegressionTree, lambda: RandomForestRegressor(n_estimators=3)],
    ids=["tree", "forest"],
)
@pytest.mark.parametrize("target", ["X", "y"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_training_data_rejected(make, target, bad):
    X, y = step_data(40)
    if target == "X":
        X[5, 2] = bad
    else:
        y[3] = bad
    with pytest.raises(MLError, match="finite"):
        make().fit(X, y)


# ------------------------------------------------- one descent, many trees

def walk(tree, row) -> int:
    """Leaf reached by one row, walked node by node (the oracle)."""
    feature, threshold, left, right = tree.nodes_
    node = 0
    while left[node] >= 0:
        node = left[node] if row[feature[node]] <= threshold[node] else right[node]
    return node


FOREST_CASES = {
    "bootstrap": {},
    "no-bootstrap": {"bootstrap": False},
    "stumps": {"max_depth": 1},
    "constant-y": {},
}


@pytest.mark.parametrize("case", sorted(FOREST_CASES))
@pytest.mark.parametrize("rows", [0, 1, 15, 16, 17, 64])
def test_forest_descent_matches_per_tree_predictions(monkeypatch, case, rows):
    """One descent over the forest's node table predicts what its trees
    predict one by one, stacked: at every row count, for ``predict`` and
    for the out-of-bag score."""
    X, y = smooth_data(max(rows, 1), seed=rows)
    if case == "constant-y":
        y = np.full(len(y), 3.0)
    params = dict(n_estimators=7, random_state=rows, jobs=1, **FOREST_CASES[case])
    forest = RandomForestRegressor(**params).fit(X, y)
    Xq = np.random.default_rng(99).random((rows, X.shape[1]))
    trees = forest_trees(forest)
    stacked = np.stack([tree.predict(Xq) for tree in trees])
    assert np.array_equal(forest.predict(Xq), stacked.mean(axis=0))
    for tree in trees:
        assert tree.apply(Xq).tolist() == [walk(tree, row) for row in Xq]

    monkeypatch.setattr(
        RandomForestRegressor, "_tree_predictions",
        lambda self, X: np.stack([t.predict(X) for t in forest_trees(self)]),
    )
    oob = RandomForestRegressor(**params).fit(X, y).oob_prediction_
    if oob is None:
        assert forest.oob_prediction_ is None
    else:
        assert np.array_equal(forest.oob_prediction_, oob, equal_nan=True)


def test_descent_spans_row_blocks():
    """Matrices longer than one block of rows descend as their rows do
    alone: a forest's across block edges that its single trees' walks do
    not share, for C- and Fortran-ordered rows alike."""
    from repro.ml.tree import _DESCEND_BLOCK

    X, y = smooth_data(200)
    forest = RandomForestRegressor(n_estimators=7, random_state=0, jobs=1)
    forest.fit(X, y)
    rng = np.random.default_rng(1)
    Xq = rng.random((2 * (_DESCEND_BLOCK // 7) + 5, X.shape[1]))
    trees = forest_trees(forest)
    stacked = np.stack([tree.predict(Xq) for tree in trees])
    for order in "CF":
        assert np.array_equal(
            forest.predict(np.asarray(Xq, order=order)), stacked.mean(axis=0)
        )
    tree = trees[0]
    Xq = rng.random((_DESCEND_BLOCK + 5, X.shape[1]))
    assert tree.apply(Xq).tolist() == [walk(tree, row) for row in Xq]


@pytest.mark.parametrize("rows", [0, 1, 15, 16, 17, 64])
def test_model_tree_apply_matches_row_walk(rows):
    X, y = smooth_data(120)
    model = ModelTree(max_depth=3, random_state=5).fit(X, y)
    Xq = np.random.default_rng(rows).random((rows, X.shape[1]))
    assert model.tree_.apply(Xq).tolist() == [
        walk(model.tree_, row) for row in Xq
    ]
    assert model.predict(Xq).shape == (rows,)


# ---------------------------------------------------------- golden forests

def golden_data(n=90, p=24, seed=4):
    """Tie-heavy columns (small integers) beside continuous ones."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p))
    X[:, ::3] = rng.integers(0, 4, size=(n, len(range(0, p, 3))))
    y = X[:, 0] * X[:, 1] + np.sin(3 * X[:, 2]) + 0.1 * rng.normal(size=n)
    return X, y


def tree_digest(tree) -> str:
    """sha256 of a fitted tree's node arrays, importances and RNG end state."""
    h = hashlib.sha256()
    for array, dtype in zip(
        (*tree.nodes_, tree.value_),
        (np.int64, np.float64, np.int64, np.int64, np.float64),
    ):
        assert array.dtype == dtype
        h.update(array.tobytes())
    h.update(tree.feature_importances_.tobytes())
    h.update(json.dumps(tree.rng.bit_generator.state, sort_keys=True).encode())
    return h.hexdigest()


def replay_trees(forest, X, y) -> list[RegressionTree]:
    """A fitted forest's trees, refitted one by one from its plans.

    Each plan's tree is fitted alone on the plan's bootstrap gather, with
    the plan's RNG seed; the forest's node table slices and importances
    must equal those trees', byte for byte.
    """
    columns = np.ascontiguousarray(X.T)
    ranks = _dense_ranks(columns)
    trees = []
    for seed, sample in _draw_plans(forest, len(y)):
        data = (columns, y, ranks) if sample is None else (
            columns.take(sample, axis=1), y[sample], ranks.take(sample, axis=1)
        )
        trees.append(
            RegressionTree(**forest._tree_params(), rng=np.random.default_rng(seed))
            ._fit(*data)
        )
    sliced = forest_trees(forest)
    assert len(sliced) == len(trees)
    for got, want in zip(sliced, trees):
        assert [(a.dtype.str, a.tobytes()) for a in (*got.nodes_, got.value_)] == [
            (a.dtype.str, a.tobytes()) for a in (*want.nodes_, want.value_)
        ]
    importances = sum(tree.feature_importances_ for tree in trees) / len(trees)
    assert forest.feature_importances_.tobytes() == importances.tobytes()
    return trees


def golden_forest_digests() -> dict[str, object]:
    """Every tree's digest, per fixed-seed fit, from each forest's
    replayed trees; for the default RF grid's OOB search also its
    selection and every score's ``repr``."""
    X, y = golden_data()
    fits = {
        f"forest-{mf}": RandomForestRegressor(
            n_estimators=4, max_features=mf, random_state=7, jobs=1
        )
        for mf in ("third", "sqrt", None)
    }
    digests = {
        name: [tree_digest(tree) for tree in replay_trees(model.fit(X, y), X, y)]
        for name, model in fits.items()
    }
    model_tree = ModelTree(max_depth=3, random_state=7).fit(X, y)
    digests["model-tree"] = [tree_digest(model_tree.tree_)]
    search = grid_search(
        RandomForestRegressor(n_estimators=6, random_state=7, jobs=1),
        DEFAULT_RF_GRID, X, y, jobs=1,
    )
    digests["grid-oob"] = {
        "best_params": search.best_params,
        "scores": [repr(score) for _, score in search.scores],
        "trees": [
            tree_digest(tree) for tree in replay_trees(search.best_model, X, y)
        ],
    }
    return digests


def test_forests_match_golden_digests(kernel_form):
    # Every tree's nodes, importances and RNG end state, bit for bit, as
    # recorded in the golden file, under both forms of the tree kernel:
    # the tree builder's internals may change, the trees it fits may not.
    assert golden_forest_digests() == json.loads(GOLDEN_FORESTS.read_text())


if __name__ == "__main__":
    GOLDEN_FORESTS.write_text(
        json.dumps(golden_forest_digests(), indent=1, sort_keys=True) + "\n"
    )
