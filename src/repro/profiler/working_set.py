"""Working-set growth features.

The memory accesses are split into
:data:`~repro.profiler.features.WORKING_SET_CHECKPOINTS` equal segments
(access ``j`` of ``m`` is in segment ``j * 8 // m`` for 8 checkpoints);
after each segment we record the fraction of the kernel's final data
footprint (distinct cache lines) that has already been touched.
Streaming kernels grow their working set linearly; kernels with a small hot
set saturate early.  This curve is a compact signature of temporal phase
behaviour that complements the reuse-distance CDF.
"""

from __future__ import annotations

import numpy as np

from ..ir import InstructionTrace, TraceColumns, columns_of
from .features import GROUP_SLICES, block_view

_SLICE = GROUP_SLICES["working_set"]


def write_working_set(out: np.ndarray, cols: TraceColumns) -> None:
    """Write the working-set block into ``out`` from the column scan's
    first-touch counts at the segment ends."""
    n_lines = len(cols.lines[0])
    if n_lines:
        out[_SLICE] = cols.tallies.first_touches / n_lines
    else:
        out[_SLICE] = 0.0


def working_set_features(trace: InstructionTrace | TraceColumns) -> dict[str, float]:
    return block_view(_SLICE, write_working_set, columns_of(trace))
