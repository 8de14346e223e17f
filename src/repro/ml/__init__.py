"""From-scratch ensemble machine learning (paper Section 2.5).

The environment has no scikit-learn, so every learner NAPEL's evaluation
needs is implemented here on top of numpy:

* :class:`RandomForestRegressor` — NAPEL's model (Breiman 2001),
* :class:`MLPRegressor` — the ANN baseline (Ipek et al. [17]),
* :class:`ModelTree` — the linear decision tree baseline (Guo et al. [13]),
* :class:`RegressionTree`, :class:`RidgeRegression` — building blocks,
* cross-validation, grid-search hyper-parameter tuning, preprocessing and
  the paper's MRE metric (Equation 1).
"""

from .ann import MLPRegressor
from .cross_validation import KFold, cross_val_score
from .forest import RandomForestRegressor
from .linear import RidgeRegression
from .linear_model_tree import ModelTree
from .metrics import mean_relative_error, r2_score, rmse
from .preprocessing import StandardScaler, VarianceThreshold
from .tree import RegressionTree
from .tuning import GridSearchResult, grid_search

__all__ = [
    "RandomForestRegressor",
    "RegressionTree",
    "MLPRegressor",
    "ModelTree",
    "RidgeRegression",
    "KFold",
    "cross_val_score",
    "grid_search",
    "GridSearchResult",
    "StandardScaler",
    "VarianceThreshold",
    "mean_relative_error",
    "rmse",
    "r2_score",
]
