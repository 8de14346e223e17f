"""The application profile ``p(k, d)`` and its extraction.

:func:`analyze_trace` runs every analysis family over a dynamic trace,
each writing its block of the feature vector of an
:class:`ApplicationProfile` — the
395-dimensional, microarchitecture-independent workload description NAPEL
feeds to its random-forest model (paper Sections 2.3 and 2.5).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import TraceError
from ..ir import InstructionTrace, TraceColumns
from ..obs import metrics
from .branching import write_branch
from .features import FEATURE_NAMES, TOTAL_FEATURES
from .footprint import write_footprint
from .ilp import write_ilp
from .instruction_mix import write_mix
from .memory_traffic import write_traffic
from .register_traffic import write_register_traffic
from .reuse_distance import reuse_matrix, write_data_reuse, write_instr_reuse
from .stride import write_stride
from .working_set import write_working_set


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

#: The families that read only the column table.
_SCALAR_FAMILIES = (
    write_mix, write_register_traffic, write_footprint, write_stride,
    write_branch, write_working_set,
)


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
    ``phase.profile.columns`` and dropped on return; that scan also
    tallies the integer counts the scalar families divide.  Each family
    writes its block of one preallocated 395-float vector in place, at
    its slice of :func:`~repro.profiler.features.feature_groups`.  The
    ILP and reuse-distance families are timed as ``phase.profile.ilp``
    and ``phase.profile.reuse`` (data plus instruction), every other
    family as ``phase.profile.other``.  An unknown opcode value raises
    :class:`~repro.errors.TraceError`.
    """
    trace.check_opcodes()
    m = metrics()
    values = np.empty(TOTAL_FEATURES)
    with m.timer("phase.profile.columns"):
        cols = TraceColumns(trace)
        _ = cols.tallies
    with m.timer("phase.profile.ilp"):
        write_ilp(values, cols)
    with m.timer("phase.profile.reuse"):
        matrix = reuse_matrix(cols)
        write_data_reuse(values, matrix)
        write_instr_reuse(values, matrix)
    with m.timer("phase.profile.other"):
        write_traffic(values, matrix)
        for write in _SCALAR_FAMILIES:
            write(values, cols)
    return ApplicationProfile(
        values=values,
        instruction_count=len(trace),
        thread_count=max(1, trace.thread_count),
        workload=workload,
        parameters=dict(parameters or {}),
    )
