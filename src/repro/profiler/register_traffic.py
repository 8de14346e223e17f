"""Register-traffic features (paper Table 1, "Register traffic").

Average number of register operands read/written per instruction, plus the
number of distinct virtual registers the kernel uses.
"""

from __future__ import annotations

from ..ir import NO_REG, InstructionTrace, TraceColumns, columns_of
from .features import REGISTER_NAMES


def register_traffic_features(
    trace: InstructionTrace | TraceColumns,
) -> dict[str, float]:
    cols = columns_of(trace)
    trace = cols.trace
    n = len(trace)
    if n == 0:
        return dict.fromkeys(REGISTER_NAMES, 0.0)
    reads = int((trace.src1 != NO_REG).sum()) + int((trace.src2 != NO_REG).sum())
    writes = int((trace.dst != NO_REG).sum())
    unique = cols.registers[2]
    return {
        "reg.reads_per_instr": reads / n,
        "reg.writes_per_instr": writes / n,
        "reg.operands_per_instr": (reads + writes) / n,
        "reg.unique_registers": float(unique),
    }
