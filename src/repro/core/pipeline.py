"""NAPEL training (paper phase 3): tuned random forests for IPC and energy.

:class:`NapelTrainer` fits one :class:`~repro.ml.RandomForestRegressor` per
target (IPC, energy-per-instruction) on a training set, with grid-search
hyper-parameter tuning scored by out-of-bag error — the cheap, statistically
sound internal validation for bagged ensembles (the paper's "as many
iterations of the cross-validation process as hyper-parameter
combinations").

Alternative learners (the ANN of Ipek et al. and the linear model tree of
Guo et al., used in Figure 5) can be trained through the same interface by
passing ``model="ann"`` / ``model="tree"``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from ..errors import MLError
from ..obs import get_logger, metrics, tracer
from ..parallel import resolve_jobs
from ..ml import (
    KFold,
    MLPRegressor,
    ModelTree,
    RandomForestRegressor,
    grid_search,
)
from .dataset import TrainingSet
from .predictor import NapelModel

log = get_logger("repro.ml")

#: Default hyper-parameter grid for the random forest (paper: tuning).
DEFAULT_RF_GRID: dict = {
    "max_features": ["sqrt", "third"],
    "min_samples_leaf": [1, 2],
}

#: Small grids for the baselines keep Figure 5 benchmark time sane.
DEFAULT_ANN_GRID: dict = {"hidden_layers": [(64, 32), (32, 16)]}
DEFAULT_TREE_GRID: dict = {"max_depth": [2, 3]}

MODEL_NAMES = ("rf", "ann", "tree")


@dataclass
class TrainedNapel:
    """A trained NAPEL model plus training metadata (Table 4 columns).

    ``stage_seconds`` breaks ``train_tune_seconds`` down by stage
    (``fit_ipc`` / ``fit_energy`` wall-clock) and ``jobs`` records the
    worker count the training ran with, so benchmarks can report
    parallel speedup per stage.
    """

    model: NapelModel
    model_name: str
    train_tune_seconds: float
    ipc_tuning: object | None = None
    energy_tuning: object | None = None
    n_training_rows: int = 0
    stage_seconds: dict = field(default_factory=dict)
    jobs: int = 1


class NapelTrainer:
    """Trains NAPEL (or a Figure 5 baseline) from a training set."""

    def __init__(
        self,
        *,
        model: str = "rf",
        n_estimators: int = 60,
        grid: Mapping[str, Sequence] | None = None,
        tune: bool = True,
        random_state: int = 0,
        jobs: int | None = None,
    ) -> None:
        if model not in MODEL_NAMES:
            raise MLError(f"unknown model {model!r}; pick from {MODEL_NAMES}")
        self.model = model
        self.n_estimators = n_estimators
        self.tune = tune
        self.random_state = random_state
        #: Worker processes for tuning and forest fitting (1 = serial,
        #: 0 = all CPUs, None = honour ``REPRO_JOBS``); parallel training
        #: produces bit-identical models (see :mod:`repro.parallel`).
        self.jobs = resolve_jobs(jobs)
        if grid is not None:
            self.grid = dict(grid)
        elif model == "rf":
            self.grid = dict(DEFAULT_RF_GRID)
        elif model == "ann":
            self.grid = dict(DEFAULT_ANN_GRID)
        else:
            self.grid = dict(DEFAULT_TREE_GRID)

    # ------------------------------------------------------------ pieces

    def _base_model(self):
        if self.model == "rf":
            return RandomForestRegressor(
                n_estimators=self.n_estimators,
                random_state=self.random_state,
                jobs=self.jobs,
            )
        if self.model == "ann":
            return MLPRegressor(random_state=self.random_state)
        return ModelTree(random_state=self.random_state)

    @staticmethod
    def _log_targets(y: np.ndarray) -> np.ndarray:
        if (y <= 0).any():
            raise MLError("log-space training requires positive targets")
        return np.log(y)

    def _fit_target(self, X: np.ndarray, y: np.ndarray):
        """Fit (and optionally tune) one pre-transformed target."""
        base = self._base_model()
        if not self.tune:
            base.fit(X, y)
            return base, None
        # A forest is scored out of bag and ignores ``cv``.
        cv = KFold(
            n_splits=min(3, max(2, len(y) // 4)),
            random_state=self.random_state,
        )
        result = grid_search(base, self.grid, X, y, cv=cv, jobs=self.jobs)
        return result.best_model, result

    # -------------------------------------------------------------- main

    def train(self, training_set: TrainingSet) -> TrainedNapel:
        """Train IPC and energy models (paper phase 3, "Train+Tune")."""
        if len(training_set) < 4:
            raise MLError("training needs at least a handful of rows")
        X = training_set.X()
        # Targets are log-residuals to the mechanistic priors (see
        # NapelModel): the forests learn only the correction.
        ipc_off, epi_off = NapelModel.prior_offsets(X, training_set.schema)
        y_ipc = self._log_targets(training_set.y_ipc_per_pe()) - ipc_off
        y_epi = (
            self._log_targets(training_set.y_energy_per_instruction())
            - epi_off
        )
        log.info(
            "training start",
            extra={"ctx": {
                "model": self.model,
                "rows": len(training_set),
                "tune": self.tune,
                "jobs": self.jobs,
            }},
        )
        start = time.perf_counter()
        with metrics().timer("phase.train"):
            with tracer().span("ml.fit_ipc", model=self.model):
                ipc_model, ipc_tuning = self._fit_target(X, y_ipc)
            ipc_seconds = time.perf_counter() - start
            with tracer().span("ml.fit_energy", model=self.model):
                energy_model, energy_tuning = self._fit_target(X, y_epi)
        elapsed = time.perf_counter() - start
        metrics().inc("ml.models.trained")
        stage_seconds = {
            "fit_ipc": ipc_seconds,
            "fit_energy": elapsed - ipc_seconds,
        }
        log.info(
            "training done",
            extra={"ctx": {
                "model": self.model,
                "seconds": round(elapsed, 3),
                "fit_ipc_s": round(ipc_seconds, 3),
                "fit_energy_s": round(elapsed - ipc_seconds, 3),
            }},
        )
        model = NapelModel(
            ipc_model,
            energy_model,
            schema=training_set.schema,
            ipc_bounds=(float(y_ipc.min()), float(y_ipc.max())),
            energy_bounds=(float(y_epi.min()), float(y_epi.max())),
        )
        return TrainedNapel(
            model=model,
            model_name=self.model,
            train_tune_seconds=elapsed,
            ipc_tuning=ipc_tuning,
            energy_tuning=energy_tuning,
            n_training_rows=len(training_set),
            stage_seconds=stage_seconds,
            jobs=self.jobs,
        )
