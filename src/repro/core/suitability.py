"""NMC-suitability analysis (paper Section 3.4, Figure 7).

For each application at its *test* input (Table 2), on each memory
backend asked for:

* **host EDP** — from the POWER9 host model (the paper's measured host),
* **actual NMC EDP** — from the cycle-level NMC simulator (the paper's
  Ramulator "Actual" bars),
* **predicted NMC EDP** — from a NAPEL model trained *without* that
  application (leave-one-out, so the prediction is for a previously-unseen
  application, as in the paper).

An application is NMC-suitable on a backend when its EDP reduction (host
EDP / NMC EDP) exceeds 1.  The paper's Figure 7 is the one-backend case.
With several backends the campaigns' data form one training set (the
``arch.backend.*`` one-hot keeps the backends apart), so one held-out
model predicts every backend, and each application's backends are
ranked by actual EDP reduction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

from ..config import HostConfig
from ..errors import ReproError
from ..hostsim import HostSimulator
from ..obs import get_logger, metrics
from ..workloads import Workload
from .campaign import SimulationCampaign
from .dataset import TrainingSet
from .pipeline import NapelTrainer

log = get_logger("repro.campaign")


@dataclass(frozen=True)
class SuitabilityResult:
    """Figure 7 data for one (application, memory backend) cell."""

    workload: str
    backend: str
    #: 1 = best backend for this workload by actual EDP reduction.
    rank: int
    host_time_s: float
    host_energy_j: float
    nmc_time_actual_s: float
    nmc_energy_actual_j: float
    nmc_time_pred_s: float
    nmc_energy_pred_j: float

    def _nmc_edp(self, kind: str) -> float:
        """NMC EDP from the ``actual`` (simulated) or ``pred`` fields.

        A zero, negative or non-finite time or energy would otherwise
        surface as a bare ``ZeroDivisionError`` (or a silent NaN) in an
        EDP ratio; name the cell and the offending field instead.
        """
        time_s = getattr(self, f"nmc_time_{kind}_s")
        energy_j = getattr(self, f"nmc_energy_{kind}_j")
        for field, value in (
            (f"nmc_time_{kind}_s", time_s), (f"nmc_energy_{kind}_j", energy_j)
        ):
            if not math.isfinite(value) or value <= 0.0:
                raise ReproError(
                    f"suitability analysis for {self.workload!r} on "
                    f"{self.backend}: {field} is {value!r}; EDP ratios need "
                    "finite, positive times and energies"
                )
        return energy_j * time_s

    @property
    def host_edp(self) -> float:
        return self.host_energy_j * self.host_time_s

    @property
    def edp_reduction_actual(self) -> float:
        """Host EDP / simulated NMC EDP (the paper's "Actual" bar)."""
        return self.host_edp / self._nmc_edp("actual")

    @property
    def edp_reduction_pred(self) -> float:
        """Host EDP / NAPEL-predicted NMC EDP (the paper's "NAPEL" bar)."""
        return self.host_edp / self._nmc_edp("pred")

    @property
    def suitable_actual(self) -> bool:
        return self.edp_reduction_actual > 1.0

    @property
    def suitable_pred(self) -> bool:
        return self.edp_reduction_pred > 1.0

    @property
    def edp_mre(self) -> float:
        """Relative error of NAPEL's EDP estimate vs the simulator's."""
        actual = self._nmc_edp("actual")
        return abs(self._nmc_edp("pred") - actual) / actual


def analyze_suitability(
    workloads: list[Workload],
    campaigns: Sequence[SimulationCampaign],
    *,
    training_set: TrainingSet | None = None,
    host_config: HostConfig | None = None,
    trainer_kwargs: dict | None = None,
) -> list[SuitabilityResult]:
    """Run the Figure 7 analysis over ``workloads`` on every backend.

    ``campaigns`` holds one CCD campaign per memory backend, named by its
    ``arch.backend``; several should share one cache (profiles are
    backend-independent, so only the simulations repeat).
    ``training_set`` defaults to their concatenated ``run_all`` over the
    workloads.  For each application one NAPEL model is retrained
    without that application's data and predicts every backend.  Rows
    come back grouped by workload in input order, best actual EDP
    reduction (rank 1) first.
    """
    host = HostSimulator(host_config)
    if training_set is None:
        training_set = TrainingSet.concat(c.run_all(workloads) for c in campaigns)
    # "Our training data comprises all the collected data for all
    # applications except the application for which the prediction will be
    # made" (paper Section 3.3) — the collected data includes every
    # application's test-input simulation (they are what Figure 7's
    # "Actual" bars are made of), so the held-out model trains on the
    # other applications' test rows too.
    test_rows = {
        (w.name, c.arch.backend): c.run_point(w, w.test_config())
        for w in workloads
        for c in campaigns
    }
    # One combined set (campaign rows + every test row) built ONCE: each
    # held-out fold is then a row-index *view* over its shared feature
    # matrix (see TrainingSet._view), not a per-application rebuild.
    combined = TrainingSet.concat(
        [training_set, TrainingSet(list(test_rows.values()))]
    )
    results: list[SuitabilityResult] = []
    for workload in workloads:
        trainer = NapelTrainer(**(trainer_kwargs or {}))
        train_rows = combined.exclude(workload.name)
        assert train_rows._root is combined or train_rows._root is combined._root, (
            "suitability fold must stay a columnar view of the combined set"
        )
        trained = trainer.train(train_rows)
        metrics().inc("suitability.apps")
        # Profiles are backend-independent: one host evaluation each.
        host_result = host.evaluate(
            test_rows[(workload.name, campaigns[0].arch.backend)].profile
        )
        cells = []
        for campaign in campaigns:
            test_row = test_rows[(workload.name, campaign.arch.backend)]
            prediction = trained.model.predict(test_row.profile, campaign.arch)
            cells.append(SuitabilityResult(
                workload=workload.name,
                backend=campaign.arch.backend,
                rank=0,
                host_time_s=host_result.time_s,
                host_energy_j=host_result.energy_j,
                nmc_time_actual_s=test_row.result.time_s,
                nmc_energy_actual_j=test_row.result.energy_j,
                nmc_time_pred_s=prediction.time_s,
                nmc_energy_pred_j=prediction.energy_j,
            ))
        cells.sort(key=lambda r: -r.edp_reduction_actual)
        for rank, cell in enumerate(cells, 1):
            result = replace(cell, rank=rank)
            log.info(
                "suitability cell done",
                extra={"ctx": {
                    "workload": result.workload,
                    "backend": result.backend,
                    "rank": rank,
                    "edp_reduction_actual": round(result.edp_reduction_actual, 4),
                    "edp_reduction_pred": round(result.edp_reduction_pred, 4),
                    "edp_mre": round(result.edp_mre, 4),
                }},
            )
            results.append(result)
    return results
