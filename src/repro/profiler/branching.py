"""Branch-behaviour features.

Control-flow statistics: branch density, mean basic-block length, number of
distinct static branch sites, and branches per memory operation.
"""

from __future__ import annotations

import math

import numpy as np

from ..ir import CONTROL_OPCODES, InstructionTrace, TraceColumns, columns_of
from .features import BRANCH_NAMES

#: Opcode byte -> is a control-flow instruction.
_IS_CONTROL = np.zeros(256, dtype=bool)
_IS_CONTROL[[int(op) for op in CONTROL_OPCODES]] = True


def branch_features(trace: InstructionTrace | TraceColumns) -> dict[str, float]:
    cols = columns_of(trace)
    trace = cols.trace
    n = len(trace)
    if n == 0:
        return dict.fromkeys(BRANCH_NAMES, 0.0)
    is_control = _IS_CONTROL[trace.opcode]
    n_control = int(is_control.sum())
    mem_ops = len(cols.accesses[0])
    pcs, n_pcs = cols.pcs
    unique_sites = np.count_nonzero(np.bincount(pcs[is_control], minlength=n_pcs))
    return {
        "branch.density": n_control / n,
        "branch.avg_basic_block": n / n_control if n_control else float(n),
        "branch.unique_branch_sites": math.log2(1.0 + unique_sites),
        "branch.per_memory_op": n_control / mem_ops if mem_ops else 0.0,
    }
