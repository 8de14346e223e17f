"""Tests for permutation importance."""

import numpy as np
import pytest

from repro.errors import MLError
from repro.ml import (
    PermutationImportance,
    RandomForestRegressor,
    permutation_importance,
)


def step_data(n=200, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.random((n, 6))
    y = np.where(X[:, 0] > 0.5, 10.0, 1.0) + 0.05 * rng.normal(size=n)
    return X, y


class TestPermutationImportance:
    def test_signal_feature_dominates(self):
        X, y = step_data(300)
        model = RandomForestRegressor(n_estimators=15, random_state=0).fit(X, y)
        pi = permutation_importance(model, X, y, random_state=0)
        assert int(np.argmax(pi.importances)) == 0
        assert pi.importances[0] > 5 * max(pi.importances[1:])

    def test_noise_features_near_zero(self):
        X, y = step_data(300)
        model = RandomForestRegressor(n_estimators=15, random_state=0).fit(X, y)
        pi = permutation_importance(model, X, y, random_state=0)
        assert abs(pi.importances[3]) < 0.2 * pi.importances[0]

    def test_does_not_mutate_inputs(self):
        X, y = step_data(100)
        model = RandomForestRegressor(n_estimators=5, random_state=0).fit(X, y)
        X_before = X.copy()
        permutation_importance(model, X, y, n_repeats=2, random_state=0)
        assert np.array_equal(X, X_before)

    def test_top_names(self):
        X, y = step_data(150)
        model = RandomForestRegressor(n_estimators=10, random_state=0).fit(X, y)
        pi = permutation_importance(model, X, y, random_state=0)
        names = [f"f{i}" for i in range(6)]
        top = pi.top(names, k=2)
        assert top[0][0] == "f0"
        assert len(top) == 2

    def test_top_rejects_wrong_name_count(self):
        pi = PermutationImportance(
            importances=np.zeros(3), std=np.zeros(3), base_score=0.0
        )
        with pytest.raises(MLError):
            pi.top(["a", "b"])

    def test_invalid_repeats(self):
        X, y = step_data(50)
        model = RandomForestRegressor(n_estimators=3, random_state=0).fit(X, y)
        with pytest.raises(MLError):
            permutation_importance(model, X, y, n_repeats=0)
