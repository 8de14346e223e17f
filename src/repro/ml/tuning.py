"""Hyper-parameter grid search (paper Section 2.5, "Train+Tune").

"First, we perform as many iterations of the cross-validation process as
hyper-parameter combinations.  Second, we compare all the generated models
... and select the best one."  :func:`grid_search` does exactly that: one
score per combination, and the best combination's model is returned.

A random forest is scored by its out-of-bag error instead of k-fold CV,
which is substantially cheaper and statistically equivalent for bagged
ensembles.  Every combination's forest is fitted on all the data in one
pass (:func:`~repro.ml.forest.fit_forests`: combinations that share
``random_state``, ``bootstrap`` and ``n_estimators`` share each tree's
bootstrap sample), scored by its OOB error, and the winner is returned
as it was scored, not refitted.  With k-fold CV each combination is
scored on its folds and the winner is then refitted on everything.

With ``jobs > 1`` the OOB search fits contiguous chunks of trees, across
all combinations, in worker processes; the k-fold search scores whole
combinations there.  Scores are deterministic functions of (params,
data, seeds) and the best combination is picked by strict improvement
in grid order, so parallel and serial searches select the same model.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from ..errors import MLError
from ..obs import get_logger, metrics, tracer
from ..parallel import map_jobs, resolve_jobs
from .cross_validation import KFold, cross_val_score
from .forest import RandomForestRegressor, fit_forests

log = get_logger("repro.ml")


@dataclass
class GridSearchResult:
    """Outcome of a grid search: best model plus the full score table."""

    best_model: object
    best_params: dict
    best_score: float
    scores: list[tuple[dict, float]] = field(default_factory=list)


def _combinations(grid: Mapping[str, Sequence]) -> list[dict]:
    keys = list(grid)
    out = []
    for values in itertools.product(*(grid[k] for k in keys)):
        out.append(dict(zip(keys, values)))
    return out


def _score_combo(job) -> float:
    """k-fold score of one hyper-parameter combination (module-level:
    picklable)."""
    base_model, params, X, y, cv = job
    metrics().inc("ml.tuning.combinations")
    with tracer().span(
        "ml.tuning.combo", params={k: str(v) for k, v in params.items()}
    ):
        folds = cross_val_score(
            lambda: base_model.clone(**params), X, y,
            cv=cv or KFold(n_splits=3, random_state=0),
        )
        return float(np.mean(folds))


def grid_search(
    base_model,
    grid: Mapping[str, Sequence],
    X,
    y,
    *,
    cv: KFold | None = None,
    jobs: int | None = None,
) -> GridSearchResult:
    """Exhaustive search over ``grid``; lower score (MRE) is better.

    ``base_model`` must expose ``clone(**params)``.  A
    :class:`~repro.ml.forest.RandomForestRegressor` is scored out of bag:
    every combination's forest is fitted once on the full data and the
    winner is returned as scored.  Any other estimator is scored by
    k-fold CV (``cv``) and the winner is refitted on the full data.
    ``jobs`` spreads the work over worker processes (1 = serial, 0 = all
    CPUs, None = honour ``REPRO_JOBS``): tree chunks across all
    combinations for a forest, whole combinations for k-fold CV.  Neither
    changes the selection.
    """
    combos = _combinations(grid)
    if not combos:
        raise MLError("empty hyper-parameter grid")
    use_oob = isinstance(base_model, RandomForestRegressor)
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).ravel()
    log.info(
        "grid search start",
        extra={"ctx": {
            "combinations": len(combos),
            "scoring": "oob" if use_oob else "kfold",
            "rows": len(y),
        }},
    )
    with metrics().timer("ml.grid_search"):
        if use_oob:
            forests = [base_model.clone(**params) for params in combos]
            fit_forests(forests, X, y, jobs)
            metrics().inc("ml.tuning.combinations", len(combos))
            combo_scores = [forest.oob_error(y) for forest in forests]
        else:
            combo_scores = map_jobs(
                _score_combo,
                [(base_model, params, X, y, cv) for params in combos],
                jobs_n=resolve_jobs(jobs),
            )
    scores: list[tuple[dict, float]] = []
    best = None
    best_score = np.inf
    for i, (params, score) in enumerate(zip(combos, combo_scores)):
        scores.append((params, score))
        log.debug(
            "tuning iteration",
            extra={"ctx": {"params": params, "score": round(score, 6)}},
        )
        if score < best_score:
            best_score = score
            best = i
    assert best is not None
    best_params = combos[best]
    log.info(
        "grid search done",
        extra={"ctx": {
            "best_params": best_params,
            "best_score": round(best_score, 6),
        }},
    )
    if use_oob:
        best_model = forests[best]
    else:
        best_model = base_model.clone(**best_params)
        best_model.fit(X, y)
    return GridSearchResult(
        best_model=best_model,
        best_params=best_params,
        best_score=best_score,
        scores=scores,
    )
