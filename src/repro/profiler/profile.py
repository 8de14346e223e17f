"""The application profile ``p(k, d)`` and its extraction.

:func:`analyze_trace` runs every analysis family over a dynamic trace and
assembles the results into an :class:`ApplicationProfile` — the
395-dimensional, microarchitecture-independent workload description NAPEL
feeds to its random-forest model (paper Sections 2.3 and 2.5).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import TraceError
from ..ir import InstructionTrace, TraceColumns
from ..obs import metrics
from .branching import branch_features
from .features import FEATURE_NAMES, TOTAL_FEATURES
from .footprint import footprint_features
from .ilp import ilp_features
from .instruction_mix import instruction_mix_features
from .memory_traffic import memory_traffic_features
from .register_traffic import register_traffic_features
from .reuse_distance import data_reuse_features, instruction_reuse_features
from .stride import stride_features
from .working_set import working_set_features


@dataclass(frozen=True)
class ApplicationProfile:
    """A hardware-independent profile of one (kernel, dataset) execution.

    ``values`` is aligned with :data:`~repro.profiler.features.FEATURE_NAMES`
    (395 entries).  ``instruction_count`` is the dynamic instruction count of
    the kernel region (``I_offload`` in the paper's execution-time formula)
    and ``thread_count`` the number of software threads in the trace; both
    are carried alongside the feature vector because the NAPEL predictor
    needs them to convert predicted IPC into execution time.
    """

    values: np.ndarray
    instruction_count: int
    thread_count: int
    workload: str = ""
    parameters: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        arr = np.ascontiguousarray(self.values, dtype=np.float64)
        if arr.shape != (TOTAL_FEATURES,):
            raise TraceError(
                f"profile must have {TOTAL_FEATURES} features, "
                f"got shape {arr.shape}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    def __getitem__(self, name: str) -> float:
        return float(self.values[_FEATURE_INDEX[name]])

    def as_dict(self) -> dict[str, float]:
        """Feature name -> value mapping."""
        return dict(zip(FEATURE_NAMES, self.values.tolist()))

    def to_json_dict(self) -> dict:
        """JSON-serialisable representation (for campaign caching)."""
        return {
            "values": self.values.tolist(),
            "instruction_count": self.instruction_count,
            "thread_count": self.thread_count,
            "workload": self.workload,
            "parameters": dict(self.parameters),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "ApplicationProfile":
        return cls(
            values=np.asarray(data["values"], dtype=np.float64),
            instruction_count=int(data["instruction_count"]),
            thread_count=int(data["thread_count"]),
            workload=str(data.get("workload", "")),
            parameters={k: float(v) for k, v in data.get("parameters", {}).items()},
        )


_FEATURE_INDEX = {name: i for i, name in enumerate(FEATURE_NAMES)}


def analyze_trace(
    trace: InstructionTrace,
    *,
    workload: str = "",
    parameters: dict[str, float] | None = None,
) -> ApplicationProfile:
    """Extract the full 395-feature profile from a dynamic trace.

    This is NAPEL phase 1 (both for training and prediction): the analysis
    is purely a function of the instruction stream and contains no
    NMC-architecture knowledge.

    The families read one :class:`~repro.ir.trace.TraceColumns`
    table, built first in one ``trace_columns`` kernel call as
    ``phase.profile.columns`` and dropped on return.
    The ILP and reuse-distance families are timed as
    ``phase.profile.ilp`` and ``phase.profile.reuse`` (data plus
    instruction), every other family as ``phase.profile.other``.  An
    unknown opcode value raises :class:`~repro.errors.TraceError`.
    """
    trace.check_opcodes()
    m = metrics()
    features: dict[str, float] = {}
    with m.timer("phase.profile.columns"):
        # Every column the families read, and the trace's memoised scalars.
        cols = TraceColumns(trace)
        _ = cols.memory_mask, trace.opcode_counts()
    with m.timer("phase.profile.ilp"):
        features.update(ilp_features(cols))
    with m.timer("phase.profile.reuse"):
        data_feats, hists = data_reuse_features(cols)
        features.update(data_feats)
        features.update(instruction_reuse_features(cols))
    with m.timer("phase.profile.other"):
        features.update(instruction_mix_features(trace))
        features.update(memory_traffic_features(trace, hists))
        features.update(register_traffic_features(cols))
        features.update(footprint_features(cols))
        features.update(stride_features(cols))
        features.update(branch_features(cols))
        features.update(working_set_features(cols))

    missing = [name for name in FEATURE_NAMES if name not in features]
    if missing:
        raise TraceError(f"analysis did not produce features: {missing[:5]}...")
    values = np.array([features[name] for name in FEATURE_NAMES], dtype=np.float64)
    return ApplicationProfile(
        values=values,
        instruction_count=len(trace),
        thread_count=max(1, trace.thread_count),
        workload=workload,
        parameters=dict(parameters or {}),
    )
