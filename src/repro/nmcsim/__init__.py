"""Trace-driven cycle-level simulator of the NMC system (Ramulator-PIM
analog).

Models the paper's Table 3 NMC platform: single-issue in-order processing
elements (PEs) at 1.25 GHz in the logic layer of a 3D-stacked DRAM cube
(32 vaults, 8 layers, 256 B row buffers, closed-row policy), each PE with a
tiny private 2-way L1 of two 64 B lines.  Produces the IPC and energy
labels used to train NAPEL (paper phase 2) and the "Actual" results of
Figure 7.
"""

from .cache import Cache, CacheStats
from .classify import LRUClassification, classify_steps, classify_streams
from .energy import EnergyBreakdown, compute_energy
from ..native import jit_status
from .results import SimulationResult
from .simulator import NMCSimulator, simulate_batch, simulation_memo_bytes

from .dram import StackedMemory, VaultStats
from .interconnect import LinkModel, OffloadCost, offload_adjusted_edp
from .stats import SimulationStats, derive_stats, format_stats

__all__ = [
    "NMCSimulator",
    "jit_status",
    "simulate_batch",
    "simulation_memo_bytes",
    "LRUClassification",
    "classify_steps",
    "classify_streams",
    "SimulationResult",
    "Cache",
    "CacheStats",
    "StackedMemory",
    "VaultStats",
    "EnergyBreakdown",
    "compute_energy",
    "LinkModel",
    "OffloadCost",
    "offload_adjusted_edp",
    "SimulationStats",
    "derive_stats",
    "format_stats",
]
