"""Structural validation of instruction traces.

Used in tests and by workload generators as a final sanity gate before a
trace is handed to the profiler or the simulators.
"""

from __future__ import annotations

import numpy as np

from ..errors import TraceError
from .instructions import NO_REG
from .trace import InstructionTrace


def validate_trace(trace: InstructionTrace, *, max_register: int = 1 << 20) -> None:
    """Raise :class:`~repro.errors.TraceError` if ``trace`` is malformed.

    Checks performed:

    * every opcode is a known :class:`~repro.ir.Opcode`;
    * every memory instruction has a positive access size;
    * no non-memory instruction carries an address or size;
    * register operands are ``NO_REG`` or small non-negative ids;
    * memory accesses do not wrap around the 64-bit address space.
    """
    if len(trace) == 0:
        return

    trace.check_opcodes()
    mem = trace.memory_mask
    if mem.any():
        sizes = trace.size[mem]
        if int(sizes.min()) <= 0:
            raise TraceError("memory instruction with non-positive size")
        addrs = trace.addr[mem].astype(np.uint64)
        ends = addrs + sizes.astype(np.uint64)
        if (ends < addrs).any():
            raise TraceError("memory access wraps the 64-bit address space")
    nonmem = ~mem
    if nonmem.any():
        if int(trace.size[nonmem].max(initial=0)) != 0:
            raise TraceError("non-memory instruction carries an access size")
        if int(trace.addr[nonmem].max(initial=0)) != 0:
            raise TraceError("non-memory instruction carries an address")

    for name in ("dst", "src1", "src2"):
        col = getattr(trace, name)
        if int(col.min(initial=NO_REG)) < NO_REG:
            raise TraceError(f"register column {name!r} below NO_REG")
        if int(col.max(initial=NO_REG)) > max_register:
            raise TraceError(
                f"register column {name!r} exceeds max_register={max_register}"
            )
