"""NMC-suitability analysis (paper Section 3.4, Figure 7).

For each application at its *test* input (Table 2):

* **host EDP** — from the POWER9 host model (the paper's measured host),
* **actual NMC EDP** — from the cycle-level NMC simulator (the paper's
  Ramulator "Actual" bars),
* **predicted NMC EDP** — from a NAPEL model trained *without* that
  application (leave-one-out, so the prediction is for a previously-unseen
  application, as in the paper).

An application is NMC-suitable when its EDP reduction (host EDP / NMC EDP)
exceeds 1.

:func:`analyze_backend_suitability` extends the analysis with the memory
backend as a design axis: every requested backend is simulated at each
application's test input and the backends are ranked per kernel by actual
EDP reduction, with the held-out model — trained on the multi-backend
campaign data, so one model spans backends — predicting the same ranking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from ..config import HostConfig
from ..errors import ReproError
from ..hostsim import HostSimulator
from ..obs import get_logger, metrics
from ..workloads import Workload
from .campaign import SimulationCampaign
from .dataset import TrainingSet
from .pipeline import NapelTrainer
from .reporting import format_table

log = get_logger("repro.campaign")


def _require_positive(workload: str, component: str, value: float) -> float:
    """Fail loud on zero/negative/non-finite EDP components.

    A zero simulated or predicted time/energy would otherwise surface as a
    bare ``ZeroDivisionError`` deep inside an EDP ratio; name the workload
    and the offending component instead.
    """
    if not math.isfinite(value) or value <= 0.0:
        raise ReproError(
            f"suitability analysis for {workload!r}: {component} is "
            f"{value!r}; EDP ratios need finite, positive times and "
            "energies"
        )
    return value


@dataclass(frozen=True)
class SuitabilityResult:
    """Figure 7 data for one application."""

    workload: str
    host_time_s: float
    host_energy_j: float
    nmc_time_actual_s: float
    nmc_energy_actual_j: float
    nmc_time_pred_s: float
    nmc_energy_pred_j: float

    @property
    def host_edp(self) -> float:
        return self.host_energy_j * self.host_time_s

    @property
    def edp_reduction_actual(self) -> float:
        """Host EDP / simulated NMC EDP (the paper's "Actual" bar)."""
        _require_positive(
            self.workload, "simulated NMC time (nmc_time_actual_s)",
            self.nmc_time_actual_s,
        )
        _require_positive(
            self.workload, "simulated NMC energy (nmc_energy_actual_j)",
            self.nmc_energy_actual_j,
        )
        return self.host_edp / (self.nmc_energy_actual_j * self.nmc_time_actual_s)

    @property
    def edp_reduction_pred(self) -> float:
        """Host EDP / NAPEL-predicted NMC EDP (the paper's "NAPEL" bar)."""
        _require_positive(
            self.workload, "predicted NMC time (nmc_time_pred_s)",
            self.nmc_time_pred_s,
        )
        _require_positive(
            self.workload, "predicted NMC energy (nmc_energy_pred_j)",
            self.nmc_energy_pred_j,
        )
        return self.host_edp / (self.nmc_energy_pred_j * self.nmc_time_pred_s)

    @property
    def suitable_actual(self) -> bool:
        return self.edp_reduction_actual > 1.0

    @property
    def suitable_pred(self) -> bool:
        return self.edp_reduction_pred > 1.0

    @property
    def edp_mre(self) -> float:
        """Relative error of NAPEL's EDP estimate vs the simulator's."""
        _require_positive(
            self.workload, "simulated NMC time (nmc_time_actual_s)",
            self.nmc_time_actual_s,
        )
        _require_positive(
            self.workload, "simulated NMC energy (nmc_energy_actual_j)",
            self.nmc_energy_actual_j,
        )
        actual = self.nmc_energy_actual_j * self.nmc_time_actual_s
        pred = self.nmc_energy_pred_j * self.nmc_time_pred_s
        return abs(pred - actual) / actual


def analyze_suitability(
    workloads: list[Workload],
    campaign: SimulationCampaign,
    *,
    training_set: TrainingSet | None = None,
    host_config: HostConfig | None = None,
    trainer_kwargs: dict | None = None,
) -> list[SuitabilityResult]:
    """Run the full Figure 7 analysis over ``workloads``.

    ``training_set`` defaults to the CCD campaigns of all the workloads
    (reusing the campaign's cache).  For each application the NAPEL model
    is retrained without that application's data.
    """
    host = HostSimulator(host_config)
    if training_set is None:
        training_set = campaign.run_all(workloads)
    # "Our training data comprises all the collected data for all
    # applications except the application for which the prediction will be
    # made" (paper Section 3.3) — the collected data includes every
    # application's test-input simulation (they are what Figure 7's
    # "Actual" bars are made of), so the held-out model trains on the
    # other applications' test rows too.
    test_rows = {
        w.name: campaign.run_point(w, w.test_config()) for w in workloads
    }
    # One combined set (campaign rows + every test row) built ONCE: each
    # held-out fold is then a row-index *view* over its shared feature
    # matrix (see TrainingSet._view), not a per-application rebuild.
    combined = TrainingSet.concat(
        [training_set, TrainingSet(list(test_rows.values()))]
    )
    results: list[SuitabilityResult] = []
    for workload in workloads:
        test_row = test_rows[workload.name]
        host_result = host.evaluate(test_row.profile)
        trainer = NapelTrainer(**(trainer_kwargs or {}))
        train_rows = combined.exclude(workload.name)
        assert train_rows._root is combined or train_rows._root is combined._root, (
            "suitability fold must stay a columnar view of the combined set"
        )
        trained = trainer.train(train_rows)
        prediction = trained.model.predict(test_row.profile, campaign.arch)
        metrics().inc("suitability.apps")
        for component, value in (
            ("simulated NMC time (nmc_time_actual_s)", test_row.result.time_s),
            ("simulated NMC energy (nmc_energy_actual_j)", test_row.result.energy_j),
            ("predicted NMC time (nmc_time_pred_s)", prediction.time_s),
            ("predicted NMC energy (nmc_energy_pred_j)", prediction.energy_j),
        ):
            _require_positive(workload.name, component, value)
        result = SuitabilityResult(
            workload=workload.name,
            host_time_s=host_result.time_s,
            host_energy_j=host_result.energy_j,
            nmc_time_actual_s=test_row.result.time_s,
            nmc_energy_actual_j=test_row.result.energy_j,
            nmc_time_pred_s=prediction.time_s,
            nmc_energy_pred_j=prediction.energy_j,
        )
        log.info(
            "suitability app done",
            extra={"ctx": {
                "workload": workload.name,
                "edp_reduction_actual": round(result.edp_reduction_actual, 4),
                "edp_reduction_pred": round(result.edp_reduction_pred, 4),
                "edp_mre": round(result.edp_mre, 4),
            }},
        )
        results.append(result)
    return results


@dataclass(frozen=True)
class BackendSuitability:
    """One (workload, backend) cell of the backend × kernel ranking."""

    workload: str
    backend: str
    edp_reduction_actual: float
    edp_reduction_pred: float
    #: 1 = best backend for this workload by actual EDP reduction.
    rank: int

    @property
    def suitable_actual(self) -> bool:
        return self.edp_reduction_actual > 1.0


def analyze_backend_suitability(
    workloads: list[Workload],
    campaigns: Sequence[SimulationCampaign],
    *,
    host_config: HostConfig | None = None,
    trainer_kwargs: dict | None = None,
) -> list[BackendSuitability]:
    """Rank memory backends per kernel by EDP reduction over the host.

    ``campaigns`` holds one CCD campaign per backend, named by its
    ``arch.backend``; they should share one cache (profiles are
    backend-independent, so only the simulations repeat).  The campaigns
    concatenate into a single multi-backend training set (the
    ``arch.backend.*`` one-hot keeps the backends apart), and for each
    workload a held-out model predicts the EDP of every backend.  Results
    come back grouped by workload, best backend first.
    """
    host = HostSimulator(host_config)
    backends = [c.arch.backend for c in campaigns]
    by_backend = dict(zip(backends, campaigns))
    training = TrainingSet.concat(c.run_all(workloads) for c in campaigns)
    # Test rows per (workload, backend): the Figure 7 "Actual" data,
    # which also joins the training pool (see analyze_suitability).
    test_rows = {
        (w.name, name): by_backend[name].run_point(w, w.test_config())
        for w in workloads
        for name in backends
    }
    combined = TrainingSet.concat(
        [training, TrainingSet(list(test_rows.values()))]
    )
    results: list[BackendSuitability] = []
    for workload in workloads:
        host_result = host.evaluate(
            test_rows[(workload.name, backends[0])].profile
        )
        host_edp = host_result.energy_j * host_result.time_s
        trainer = NapelTrainer(**(trainer_kwargs or {}))
        trained = trainer.train(combined.exclude(workload.name))
        per_backend: list[tuple[str, float, float]] = []
        for name in backends:
            test_row = test_rows[(workload.name, name)]
            prediction = trained.model.predict(
                test_row.profile, by_backend[name].arch
            )
            for component, value in (
                ("simulated NMC time", test_row.result.time_s),
                ("simulated NMC energy", test_row.result.energy_j),
                ("predicted NMC time", prediction.time_s),
                ("predicted NMC energy", prediction.energy_j),
            ):
                _require_positive(
                    f"{workload.name}@{name}", component, value
                )
            actual = host_edp / (
                test_row.result.energy_j * test_row.result.time_s
            )
            pred = host_edp / (prediction.energy_j * prediction.time_s)
            per_backend.append((name, actual, pred))
        per_backend.sort(key=lambda t: -t[1])
        metrics().inc("suitability.backend_cells", len(per_backend))
        for rank, (name, actual, pred) in enumerate(per_backend, 1):
            results.append(BackendSuitability(
                workload=workload.name,
                backend=name,
                edp_reduction_actual=actual,
                edp_reduction_pred=pred,
                rank=rank,
            ))
        log.info(
            "backend suitability app done",
            extra={"ctx": {
                "workload": workload.name,
                "best_backend": per_backend[0][0],
            }},
        )
    return results


def format_backend_suitability(
    results: Sequence[BackendSuitability],
) -> str:
    """Backend × kernel ranking table, best backend first per kernel."""
    rows = [
        [
            r.workload if r.rank == 1 else "",
            str(r.rank),
            r.backend,
            f"{r.edp_reduction_actual:10.4f}",
            f"{r.edp_reduction_pred:10.4f}",
            "yes" if r.suitable_actual else "no",
        ]
        for r in results
    ]
    return format_table(
        ["kernel", "rank", "backend", "EDP gain (sim)",
         "EDP gain (NAPEL)", "suitable"],
        rows,
        title="NMC suitability by memory backend "
              "(EDP reduction vs host; rank 1 = best backend)",
    )
