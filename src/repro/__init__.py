"""NAPEL reproduction: NMC performance/energy prediction via ensemble
learning (Singh et al., DAC 2019).

Quickstart
----------
>>> from repro import (
...     get_workload, SimulationCampaign, NapelTrainer, analyze_trace,
... )
>>> atax = get_workload("atax")
>>> campaign = SimulationCampaign()           # Table 3 NMC system
>>> training = campaign.run(atax)             # CCD campaign (11 configs)
>>> trained = NapelTrainer().train(training)  # tuned random forests
>>> profile = analyze_trace(
...     atax.generate(atax.test_config()), workload="atax"
... )
>>> pred = trained.model.predict(profile, campaign.arch)
>>> pred.ipc > 0 and pred.time_s > 0
True

See README.md for the architecture overview, DESIGN.md for the system
inventory and per-experiment index, and ``benchmarks/`` for the harness
that regenerates every table and figure of the paper.
"""

# Defined before the subpackage imports below: repro.obs reads it while the
# package is still initialising (manifests record the package version).
__version__ = "1.1.0"

from .backends import (
    BackendDescriptor,
    LinkParams,
    backend_names,
    backend_summaries,
    get_backend,
    register_backend,
)
from .config import (
    DRAMTiming,
    HostConfig,
    HostEnergyParams,
    NMCConfig,
    NMCEnergyParams,
    default_host_config,
    default_nmc_config,
)
from .core import (
    CampaignCache,
    load_model,
    save_model,
    NapelModel,
    NapelPrediction,
    NapelTrainer,
    SimulationCampaign,
    SuitabilityResult,
    TrainedNapel,
    TrainingSet,
    analyze_suitability,
    evaluate_loocv,
)
from .doe import ParameterSpace, central_composite, ccd_run_count
from .errors import ReproError, SchemaMismatchError
from .hostsim import HostSimulator
from .obs import RunManifest, configure_logging, get_logger, metrics
from .schema import FeatureBlock, FeatureSchema, active_schema
from .nmcsim import NMCSimulator, SimulationResult
from .profiler import ApplicationProfile, analyze_trace
from .workloads import WORKLOAD_NAMES, all_workloads, get_workload

__all__ = [
    "__version__",
    # configuration
    "NMCConfig",
    "HostConfig",
    "DRAMTiming",
    "NMCEnergyParams",
    "HostEnergyParams",
    "default_nmc_config",
    "default_host_config",
    # workloads & analysis
    "get_workload",
    "all_workloads",
    "WORKLOAD_NAMES",
    "analyze_trace",
    "ApplicationProfile",
    # simulators
    "NMCSimulator",
    "SimulationResult",
    "HostSimulator",
    # DoE
    "ParameterSpace",
    "central_composite",
    "ccd_run_count",
    # NAPEL core
    "SimulationCampaign",
    "CampaignCache",
    "TrainingSet",
    "NapelTrainer",
    "TrainedNapel",
    "NapelModel",
    "NapelPrediction",
    "evaluate_loocv",
    "analyze_suitability",
    "SuitabilityResult",
    "save_model",
    "load_model",
    # memory backends
    "BackendDescriptor",
    "LinkParams",
    "get_backend",
    "register_backend",
    "backend_names",
    "backend_summaries",
    # feature schema
    "FeatureSchema",
    "FeatureBlock",
    "active_schema",
    # observability
    "configure_logging",
    "get_logger",
    "metrics",
    "RunManifest",
    # errors
    "ReproError",
    "SchemaMismatchError",
]
