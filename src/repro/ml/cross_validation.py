"""Cross-validation splitters and scoring (paper Sections 2.5 and 3.3)."""

from __future__ import annotations

from typing import Callable, Iterator

import numpy as np

from ..errors import MLError
from .metrics import mean_relative_error


class KFold:
    """Classic k-fold splitter with optional shuffling."""

    def __init__(
        self, n_splits: int = 5, shuffle: bool = True,
        random_state: int | None = None,
    ) -> None:
        if n_splits < 2:
            raise MLError("n_splits must be >= 2")
        self.n_splits = n_splits
        self.shuffle = shuffle
        self.random_state = random_state

    def split(self, n_samples: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        if n_samples < self.n_splits:
            raise MLError(
                f"cannot split {n_samples} samples into {self.n_splits} folds"
            )
        idx = np.arange(n_samples)
        if self.shuffle:
            np.random.default_rng(self.random_state).shuffle(idx)
        folds = np.array_split(idx, self.n_splits)
        for i in range(self.n_splits):
            test = folds[i]
            train = np.concatenate([folds[j] for j in range(self.n_splits) if j != i])
            yield train, test


def cross_val_score(
    model_factory: Callable[[], object],
    X,
    y,
    *,
    cv: KFold | None = None,
    metric: Callable = mean_relative_error,
) -> list[float]:
    """Fit/evaluate ``model_factory()`` across folds; returns fold scores."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).ravel()
    cv = cv or KFold(n_splits=5)
    scores: list[float] = []
    for train, test in cv.split(len(y)):
        model = model_factory()
        model.fit(X[train], y[train])
        scores.append(float(metric(y[test], model.predict(X[test]))))
    return scores
