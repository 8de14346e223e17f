"""NAPEL itself: training pipeline, predictor, and evaluation flows.

* :mod:`dataset` / :mod:`campaign` — phase 2: run the DoE-selected
  simulations and assemble the training set;
* :mod:`pipeline` — phase 3: hyper-parameter-tuned random-forest training;
* :mod:`predictor` — the trained model: profile + architecture -> IPC,
  energy, execution time;
* :mod:`loocv` — the paper's leave-one-application-out accuracy protocol
  (Section 3.3, Figure 5);
* :mod:`suitability` — the NMC-suitability (EDP) use case (Section 3.4,
  Figure 7);
* :mod:`reporting` — plain-text renderings of every paper table/figure.
"""

from .campaign import CampaignCache, SimulationCampaign
from .dataset import TrainingRow, TrainingSet
from .loocv import LoocvResult, evaluate_loocv
from .pipeline import NapelTrainer, TrainedNapel
from .predictor import NapelModel, NapelPrediction
from .suitability import SuitabilityResult, analyze_suitability
from .reporting import format_table
from .serialization import load_model, save_model
from .dse import (
    DesignPoint,
    explore,
    format_exploration,
    grid_space,
    pareto_front,
)

__all__ = [
    "SimulationCampaign",
    "CampaignCache",
    "TrainingSet",
    "TrainingRow",
    "NapelTrainer",
    "TrainedNapel",
    "NapelModel",
    "NapelPrediction",
    "evaluate_loocv",
    "LoocvResult",
    "analyze_suitability",
    "SuitabilityResult",
    "format_table",
    "save_model",
    "load_model",
    "explore",
    "grid_space",
    "pareto_front",
    "format_exploration",
    "DesignPoint",
]
