"""Register-traffic features (paper Table 1, "Register traffic").

Average number of register operands read/written per instruction, plus the
number of distinct virtual registers the kernel uses.
"""

from __future__ import annotations

import numpy as np

from ..ir import InstructionTrace, TraceColumns, columns_of
from .features import GROUP_SLICES, block_view

_SLICE = GROUP_SLICES["register"]


def write_register_traffic(out: np.ndarray, cols: TraceColumns) -> None:
    """Write the register-traffic block into ``out``: operand counts
    of the raw columns (any value but ``NO_REG`` is a register)."""
    n = len(cols.trace)
    if n == 0:
        out[_SLICE] = 0.0
        return
    reads, writes = cols.tallies.reg_reads, cols.tallies.reg_writes
    out[_SLICE] = (reads / n, writes / n, (reads + writes) / n, cols.registers[2])


def register_traffic_features(
    trace: InstructionTrace | TraceColumns,
) -> dict[str, float]:
    return block_view(_SLICE, write_register_traffic, columns_of(trace))
