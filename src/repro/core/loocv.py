"""Leave-one-application-out accuracy evaluation (paper Section 3.3).

"To evaluate the prediction accuracy for a particular application, our
training data comprises all the collected data for all applications
*except* the application for which the prediction will be made."

:func:`evaluate_loocv` implements exactly that protocol over a combined
training set, for NAPEL's random forest and the two Figure 5 baselines,
reporting per-application MRE for performance (IPC) and energy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import MLError
from ..ml import mean_relative_error
from ..obs import get_logger, metrics, tracer
from ..parallel import map_jobs, resolve_jobs
from .dataset import TrainingSet
from .pipeline import NapelTrainer

log = get_logger("repro.ml")


@dataclass
class LoocvResult:
    """Per-application MRE of one model under leave-one-app-out CV."""

    model_name: str
    perf_mre: dict[str, float] = field(default_factory=dict)
    energy_mre: dict[str, float] = field(default_factory=dict)
    train_seconds: dict[str, float] = field(default_factory=dict)

    @property
    def mean_perf_mre(self) -> float:
        return float(np.mean(list(self.perf_mre.values())))

    @property
    def mean_energy_mre(self) -> float:
        return float(np.mean(list(self.energy_mre.values())))


def _loocv_fold_job(job) -> tuple[str, float, float, float]:
    """Train-and-score one held-out application (module-level: picklable)."""
    training_set, app, model, tune, n_estimators, random_state = job
    metrics().inc("loocv.folds")
    with tracer().span("loocv.fold", held_out=app, model=model):
        train_set = training_set.exclude(app)
        test_set = training_set.filter(app)
        trainer = NapelTrainer(
            model=model,
            tune=tune,
            n_estimators=n_estimators,
            random_state=random_state,
        )
        trained = trainer.train(train_set)
        X_test = test_set.X()
        ipc_true = test_set.y_ipc_per_pe()
        epi_true = test_set.y_energy_per_instruction()
        ipc_pred, epi_pred = trained.model.predict_labels(
            X_test, schema=test_set.schema
        )
    return (
        app,
        mean_relative_error(ipc_true, ipc_pred),
        mean_relative_error(epi_true, epi_pred),
        trained.train_tune_seconds,
    )


def evaluate_loocv(
    training_set: TrainingSet,
    *,
    model: str = "rf",
    tune: bool = True,
    n_estimators: int = 60,
    random_state: int = 0,
    jobs: int | None = None,
) -> LoocvResult:
    """Leave-one-application-out MRE for ``model`` ("rf", "ann", "tree").

    ``jobs > 1`` retrains the held-out folds in worker processes (one job
    per application); training is a deterministic function of the fold's
    data and seed, so the reported MREs match a serial run exactly.
    """
    apps = training_set.workloads()
    if len(apps) < 2:
        raise MLError("LOOCV needs at least two applications")
    result = LoocvResult(model_name=model)
    fold_jobs = [
        (training_set, app, model, tune, n_estimators, random_state)
        for app in apps
    ]
    log.info(
        "loocv start",
        extra={"ctx": {
            "model": model,
            "folds": len(apps),
            "jobs": resolve_jobs(jobs),
        }},
    )
    for app, perf, energy, seconds in map_jobs(
        _loocv_fold_job, fold_jobs, jobs_n=resolve_jobs(jobs)
    ):
        result.perf_mre[app] = perf
        result.energy_mre[app] = energy
        result.train_seconds[app] = seconds
        log.info(
            "loocv fold done",
            extra={"ctx": {
                "held_out": app,
                "perf_mre": round(perf, 6),
                "energy_mre": round(energy, 6),
                "train_seconds": round(seconds, 3),
            }},
        )
    return result
