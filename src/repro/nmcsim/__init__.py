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
from .classify import (
    LRUClassification,
    classify_lru,
    classify_steps,
    classify_vectorized,
)
from .energy import EnergyBreakdown, compute_energy
from ..store import MemoStore
from .results import SimulationResult
from .simulator import (
    ENGINES,
    MEMO_COUNTER_NAMES,
    NMCSimulator,
    active_store,
    configure_store,
    jit_status,
    resolve_engine,
    simulate,
    simulate_batch,
    simulation_batch_summary,
    simulation_memo_bytes,
    simulation_memo_summary,
    store_dir,
    store_status,
)

from .dram import StackedMemory, VaultStats
from .interconnect import LinkModel, OffloadCost, offload_adjusted_edp
from .stats import SimulationStats, derive_stats, format_stats

__all__ = [
    "NMCSimulator",
    "simulate",
    "ENGINES",
    "resolve_engine",
    "MEMO_COUNTER_NAMES",
    "jit_status",
    "simulate_batch",
    "simulation_batch_summary",
    "simulation_memo_bytes",
    "simulation_memo_summary",
    "MemoStore",
    "active_store",
    "configure_store",
    "store_dir",
    "store_status",
    "LRUClassification",
    "classify_lru",
    "classify_steps",
    "classify_vectorized",
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
