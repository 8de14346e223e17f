"""Training-set container: (profile, architecture) -> labels.

One :class:`TrainingRow` per simulated DoE configuration.  The feature
matrix layout is owned by the active :class:`~repro.schema.FeatureSchema`
(blocks ``profile`` / ``app`` / ``arch`` / ``prior``); this module
registers the ``app`` and ``prior`` blocks and assembles rows in schema
order.

Energy is learned *per instruction* (J/instr): total kernel energy scales
trivially with the dynamic instruction count, so normalising by it lets the
model focus on the architecture/locality interaction, and the predictor
multiplies back by ``I_offload`` — the same unit change the paper's
execution-time formula applies to IPC.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ..config import NMCConfig
from ..errors import CampaignError
from ..ir import OPCODE_LATENCY
from ..nmcsim import SimulationResult
from ..profiler import ApplicationProfile
from ..profiler.features import TRAFFIC_CACHE_SIZES
from ..schema import FeatureSchema, active_schema, register_block

#: Software-level features known at prediction time.  The thread count is
#: carried alongside the profile because the profile statistics themselves
#: are thread-count-agnostic.
APP_FEATURE_NAMES = ("app.threads",)

#: Mechanistic interaction features: first-order in-order CPI and energy
#: estimates computed from the profile x architecture pair.  They give every
#: learner (NAPEL's forest *and* the Figure 5 baselines, identically) a
#: physically grounded prior that transfers across applications, so the
#: models learn corrections rather than absolute scales.
DERIVED_FEATURE_NAMES = (
    "prior.cpi_exec",
    "prior.miss_per_instr",
    "prior.stall_per_instr",
    "prior.ipc_estimate",
    "prior.log_epi_estimate",
    "prior.bytes_per_instr",
)

register_block(
    "app",
    APP_FEATURE_NAMES,
    description="software-level features known at prediction time",
)
register_block(
    "prior",
    DERIVED_FEATURE_NAMES,
    description="first-order mechanistic (profile x arch) estimates",
)


def derived_features(profile: ApplicationProfile, arch: NMCConfig) -> list[float]:
    """First-order mechanistic estimates for one (profile, arch) pair."""
    cpi_exec = sum(
        profile[f"opcode.{int(op)}"] * lat for op, lat in OPCODE_LATENCY.items()
    )
    # Fraction of memory accesses escaping the PE's L1 (profile traffic
    # feature at the largest profiled size not exceeding the L1 capacity).
    eligible = [s for s in TRAFFIC_CACHE_SIZES if s <= arch.l1_bytes]
    size = eligible[-1] if eligible else TRAFFIC_CACHE_SIZES[0]
    l1_escape = profile[f"traffic.bytes_{size}"]
    miss_per_instr = profile["mix.mem_all"] * l1_escape
    # Sequential misses land in the already-open DRAM row (several lines
    # share a row buffer) and skip the activation: the unit-stride fraction
    # of the access stream sees only CAS + burst latency.
    seq_frac = profile["stride.frac_le_1"]
    lines_per_row = max(1, arch.row_buffer_bytes // arch.line_bytes)
    row_hit_frac = seq_frac * (1.0 - 1.0 / lines_per_row)
    timing = arch.timing
    miss_ns = (
        (1.0 - row_hit_frac) * timing.closed_row_access_ns()
        + row_hit_frac * (timing.t_cl_ns + timing.t_bl_ns)
    )
    miss_cycles = miss_ns * arch.frequency_ghz
    # Write-allocate caches fetch on store misses and later write the dirty
    # line back: the write share of the miss stream roughly doubles its
    # DRAM traffic, and the extra bank occupancy delays subsequent misses.
    mem_all = max(profile["mix.mem_all"], 1e-12)
    write_frac = (profile["mix.store"] + profile["mix.atomic"]) / mem_all
    dram_per_instr = miss_per_instr * (1.0 + write_frac)
    stall_per_instr = (
        miss_per_instr * miss_cycles * (1.0 + 0.5 * write_frac)
    )
    # Multi-issue cores retire compute faster; out-of-order cores also
    # overlap misses across their MSHRs (in-order cores block: mshr = 1).
    ipc_estimate = 1.0 / (
        cpi_exec / arch.issue_width
        + stall_per_instr / arch.mshr_entries
    )
    # Energy per instruction: dynamic core energy + DRAM traffic + static
    # power integrated over the estimated cycles (per PE share).  Row hits
    # skip the activation energy too.
    e = arch.energy
    line_bits = arch.line_bytes * 8
    epi_pj = (
        8.0  # mean core op energy (pJ), first order
        + profile["mix.mem_all"] * e.l1_access_pj
        + dram_per_instr * (
            (1.0 - row_hit_frac) * e.dram_activate_pj
            + line_bits * e.dram_rw_pj_per_bit
        )
        + (e.pe_static_w + e.dram_static_w / arch.n_pes)
        * (cpi_exec + stall_per_instr)
        / arch.frequency_ghz  # W * ns = nJ -> x1000 pJ
        * 1000.0
    )
    bytes_per_instr = miss_per_instr * arch.line_bytes
    return [
        cpi_exec,
        miss_per_instr,
        stall_per_instr,
        ipc_estimate,
        math.log(max(epi_pj, 1e-9)),
        bytes_per_instr,
    ]


def assemble_features(
    profile: ApplicationProfile, arch: NMCConfig
) -> np.ndarray:
    """One model-input row in the canonical block order of the schema.

    This is the single place where the ``profile``/``app``/``arch``/
    ``prior`` blocks are concatenated; both training rows and the
    predictor's serving path go through it, so the two can never drift.
    """
    return np.concatenate([
        profile.values,
        [float(profile.thread_count)],
        np.asarray(arch.feature_vector()),
        np.asarray(derived_features(profile, arch)),
    ])


@dataclass(frozen=True)
class TrainingRow:
    """One simulated (workload-input, architecture) point."""

    workload: str
    parameters: dict
    profile: ApplicationProfile
    arch: NMCConfig
    result: SimulationResult

    @property
    def features(self) -> np.ndarray:
        """The assembled (schema-ordered) feature vector, memoised.

        LOOCV and tuning call :meth:`TrainingSet.X` many times over the
        same rows; the vector (including the ``derived_features`` math) is
        computed once per row and cached on the frozen instance.
        """
        cached = self.__dict__.get("_features")
        if cached is None:
            cached = assemble_features(self.profile, self.arch)
            cached.setflags(write=False)
            object.__setattr__(self, "_features", cached)
        return cached

    @property
    def ipc(self) -> float:
        return self.result.ipc

    @property
    def ipc_per_pe(self) -> float:
        """IPC divided by the PEs actually used — the learned label.

        Aggregate IPC scales with the number of active PEs, which is an
        input parameter, not a learned quantity; normalising by it lets the
        model learn the locality/architecture interaction.
        """
        return self.result.ipc / self.result.n_pes_used

    @property
    def energy_per_instruction(self) -> float:
        return self.result.energy_j / self.result.instructions


class TrainingSet:
    """An ordered collection of training rows with matrix views.

    Feature assembly is *columnar*: the full matrix is built once (one
    ``np.stack`` over the memoised row vectors) and cached; ``filter`` /
    ``exclude`` / ``concat`` produce row-index views over the shared
    matrix instead of reassembling per subset — the repeated-subset
    pattern LOOCV and the suitability analysis hit on every fold.
    """

    def __init__(
        self,
        rows: Sequence[TrainingRow],
        *,
        schema: FeatureSchema | None = None,
    ) -> None:
        self.rows = list(rows)
        self.schema = schema if schema is not None else active_schema()
        #: Root set owning the shared feature matrix (None = self is root).
        self._root: TrainingSet | None = None
        #: Root-relative row indices (None = identity).
        self._row_index: np.ndarray | None = None
        self._X_cache: np.ndarray | None = None

    @classmethod
    def _view(
        cls, parent: "TrainingSet", indices: Sequence[int]
    ) -> "TrainingSet":
        """A subset sharing the parent's (root's) feature matrix."""
        root = parent._root if parent._root is not None else parent
        idx = np.asarray(indices, dtype=np.intp)
        if parent._row_index is not None:
            idx = parent._row_index[idx]
        ts = cls.__new__(cls)
        ts.rows = [root.rows[i] for i in idx]
        ts.schema = root.schema
        ts._root = root
        ts._row_index = idx
        ts._X_cache = None
        return ts

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def __getstate__(self) -> dict:
        # Views don't survive pickling as views: workers get a plain set
        # (rows carry their memoised vectors, so nothing is recomputed).
        return {"rows": self.rows, "schema": self.schema}

    def __setstate__(self, state: dict) -> None:
        self.rows = state["rows"]
        self.schema = state["schema"]
        self._root = None
        self._row_index = None
        self._X_cache = None

    # ----------------------------------------------------------- matrices

    def _matrix(self) -> np.ndarray:
        """The root's full feature matrix, assembled once."""
        root = self._root if self._root is not None else self
        if root._X_cache is None:
            M = np.stack([row.features for row in root.rows])
            root.schema.validate_matrix(M, context="training set")
            M.setflags(write=False)
            root._X_cache = M
        return root._X_cache

    def X(self) -> np.ndarray:
        """(n, len(schema)) feature matrix (read-only; copy to mutate)."""
        if not self.rows:
            raise CampaignError("training set is empty")
        if self._root is None:
            return self._matrix()
        if self._X_cache is None:
            sub = self._matrix()[self._row_index]
            sub.setflags(write=False)
            self._X_cache = sub
        return self._X_cache

    def y_ipc(self) -> np.ndarray:
        return np.asarray([row.ipc for row in self.rows])

    def y_ipc_per_pe(self) -> np.ndarray:
        return np.asarray([row.ipc_per_pe for row in self.rows])

    def n_pes_used(self) -> np.ndarray:
        return np.asarray([row.result.n_pes_used for row in self.rows])

    def y_energy_per_instruction(self) -> np.ndarray:
        return np.asarray([row.energy_per_instruction for row in self.rows])

    def groups(self) -> np.ndarray:
        """Workload name of every row (for leave-one-application-out)."""
        return np.asarray([row.workload for row in self.rows])

    # -------------------------------------------------------- combinators

    def workloads(self) -> list[str]:
        """Distinct workload names, in first-appearance order."""
        seen: dict[str, None] = {}
        for row in self.rows:
            seen.setdefault(row.workload, None)
        return list(seen)

    def filter(self, workload: str) -> "TrainingSet":
        return TrainingSet._view(
            self,
            [i for i, r in enumerate(self.rows) if r.workload == workload],
        )

    def exclude(self, workload: str) -> "TrainingSet":
        return TrainingSet._view(
            self,
            [i for i, r in enumerate(self.rows) if r.workload != workload],
        )

    def _root_indices(self) -> np.ndarray:
        if self._row_index is not None:
            return self._row_index
        return np.arange(len(self.rows), dtype=np.intp)

    @classmethod
    def concat(cls, sets: Iterable["TrainingSet"]) -> "TrainingSet":
        sets = list(sets)
        if sets:
            roots = {s._root if s._root is not None else s for s in sets}
            if len(roots) == 1:
                # All pieces view one shared matrix: stay columnar.
                root = roots.pop()
                return cls._view(
                    root, np.concatenate([s._root_indices() for s in sets])
                )
        rows: list[TrainingRow] = []
        for s in sets:
            rows.extend(s.rows)
        return cls(rows)
