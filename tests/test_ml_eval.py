"""Tests for metrics, cross-validation and tuning."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MLError
from repro.ml import (
    KFold,
    RandomForestRegressor,
    RidgeRegression,
    cross_val_score,
    grid_search,
    mean_relative_error,
    r2_score,
    rmse,
)


class TestMetrics:
    def test_mre_paper_equation(self):
        # MRE = mean(|y' - y| / y): hand-computed example.
        y = np.array([1.0, 2.0, 4.0])
        p = np.array([1.1, 1.8, 5.0])
        expected = (0.1 / 1 + 0.2 / 2 + 1.0 / 4) / 3
        assert mean_relative_error(y, p) == pytest.approx(expected)

    def test_mre_perfect(self):
        y = np.array([3.0, 5.0])
        assert mean_relative_error(y, y) == 0.0

    def test_mre_rejects_zero_truth(self):
        with pytest.raises(MLError):
            mean_relative_error([0.0, 1.0], [1.0, 1.0])

    def test_rmse(self):
        y = np.array([0.0, 0.0])
        p = np.array([3.0, 4.0])
        assert rmse(y, p) == pytest.approx(np.sqrt(12.5))

    def test_r2(self):
        y = np.array([1.0, 2.0, 3.0])
        assert r2_score(y, y) == 1.0
        assert r2_score(y, np.full(3, 2.0)) == pytest.approx(0.0)

    def test_r2_constant_truth(self):
        # SST == 0: perfect predictions score 1, anything else scores 0
        # (rather than dividing by zero).
        y = np.full(4, 5.0)
        assert r2_score(y, y) == 1.0
        assert r2_score(y, y + 1.0) == 0.0

    def test_shape_mismatch(self):
        for metric in (mean_relative_error, rmse, r2_score):
            with pytest.raises(MLError):
                metric([1.0], [1.0, 2.0])

    def test_empty(self):
        with pytest.raises(MLError):
            rmse([], [])

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(0.1, 100), min_size=1, max_size=50))
    def test_mre_nonnegative_and_zero_iff_exact(self, values):
        y = np.asarray(values)
        assert mean_relative_error(y, y) == 0.0
        assert mean_relative_error(y, y * 1.1) == pytest.approx(0.1)


class TestKFold:
    def test_partition_properties(self):
        kf = KFold(n_splits=4, shuffle=False)
        seen = []
        for train, test in kf.split(20):
            assert len(set(train) & set(test)) == 0
            assert len(train) + len(test) == 20
            seen.extend(test.tolist())
        assert sorted(seen) == list(range(20))

    def test_shuffle_reproducible(self):
        a = list(KFold(3, random_state=5).split(12))
        b = list(KFold(3, random_state=5).split(12))
        for (ta, sa), (tb, sb) in zip(a, b):
            assert np.array_equal(ta, tb) and np.array_equal(sa, sb)

    def test_too_few_samples(self):
        with pytest.raises(MLError):
            list(KFold(5).split(3))

    def test_invalid_splits(self):
        with pytest.raises(MLError):
            KFold(1)


class TestCrossValScore:
    def test_scores_per_fold(self):
        rng = np.random.default_rng(0)
        X = rng.random((60, 3))
        y = 1 + X @ np.array([1.0, 2.0, 3.0])
        scores = cross_val_score(
            lambda: RidgeRegression(alpha=1e-6), X, y, cv=KFold(3, random_state=0)
        )
        assert len(scores) == 3
        assert all(s < 0.01 for s in scores)


class TestGridSearch:
    def make_data(self):
        rng = np.random.default_rng(0)
        X = rng.random((80, 6))
        y = np.where(X[:, 0] > 0.5, 10.0, 1.0) + 0.1 * rng.normal(size=80)
        return X, y

    def test_oob_search_returns_best(self):
        X, y = self.make_data()
        result = grid_search(
            RandomForestRegressor(n_estimators=15, random_state=0),
            {"min_samples_leaf": [1, 30]},
            X, y,
        )
        # A 30-sample leaf floor cannot isolate the step: leaf=1 must win.
        assert result.best_params == {"min_samples_leaf": 1}
        assert len(result.scores) == 2
        assert result.best_score <= min(s for _, s in result.scores) + 1e-12

    def test_cv_search_with_ridge(self):
        X, y = self.make_data()
        result = grid_search(
            RidgeRegression(), {"alpha": [1e-6, 1e3]}, X, y,
            cv=KFold(3, random_state=0),
        )
        assert "alpha" in result.best_params

    def test_empty_grid(self):
        X, y = self.make_data()
        with pytest.raises(MLError):
            grid_search(
                RandomForestRegressor(), {"min_samples_leaf": []}, X, y
            )

    def test_best_model_is_fitted(self):
        X, y = self.make_data()
        result = grid_search(
            RandomForestRegressor(n_estimators=5, random_state=0),
            {"min_samples_leaf": [1]}, X, y,
        )
        assert np.isfinite(result.best_model.predict(X[:3])).all()
