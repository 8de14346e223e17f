"""Branch-behaviour features.

Control-flow statistics: branch density, mean basic-block length, number of
distinct static branch sites, and branches per memory operation.
"""

from __future__ import annotations

import math

import numpy as np

from ..ir import InstructionTrace, TraceColumns, columns_of
from .features import GROUP_SLICES, block_view

_SLICE = GROUP_SLICES["branch"]


def write_branch(out: np.ndarray, cols: TraceColumns) -> None:
    """Write the branch block into ``out`` from the column scan's
    control-op and control-site counts."""
    n = len(cols.trace)
    if n == 0:
        out[_SLICE] = 0.0
        return
    n_control = cols.tallies.control
    mem_ops = len(cols.accesses[0])
    out[_SLICE] = (
        n_control / n,
        n / n_control if n_control else float(n),
        math.log2(1.0 + cols.tallies.control_sites),
        n_control / mem_ops if mem_ops else 0.0,
    )


def branch_features(trace: InstructionTrace | TraceColumns) -> dict[str, float]:
    return block_view(_SLICE, write_branch, columns_of(trace))
