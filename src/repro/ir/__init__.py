"""Dynamic-trace intermediate representation (IR).

This package is the reproduction's stand-in for the paper's LLVM-IR +
instrumentation layer: workload kernels are expressed as *dynamic instruction
traces* — sequences of typed instructions with virtual register operands,
memory addresses and static program counters — which carry exactly the
information the PISA-style analyzer (:mod:`repro.profiler`) and the
trace-driven simulators (:mod:`repro.nmcsim`, :mod:`repro.hostsim`) need.

Public API
----------
:class:`Opcode`            instruction taxonomy
:class:`Instruction`       a single decoded instruction (named tuple view)
:class:`InstructionTrace`  packed numpy trace container
:class:`TraceBuilder`      incremental trace construction
:class:`LoopTemplate`      vectorized emission of loop bodies
:func:`validate_trace`     structural validation
"""

from .instructions import (
    CONTROL_OPCODES,
    FP_OPCODES,
    INT_OPCODES,
    MEMORY_OPCODES,
    NO_REG,
    OPCODE_LATENCY,
    Instruction,
    Opcode,
)
from .trace import InstructionTrace, TraceColumns, columns_of
from .builder import LoopTemplate, TraceBuilder, TemplateOp
from .stackdist import COLD_DISTANCE, reuse_distances
from .validate import validate_trace

__all__ = [
    "Opcode",
    "Instruction",
    "InstructionTrace",
    "TraceColumns",
    "columns_of",
    "TraceBuilder",
    "LoopTemplate",
    "TemplateOp",
    "validate_trace",
    "NO_REG",
    "OPCODE_LATENCY",
    "MEMORY_OPCODES",
    "CONTROL_OPCODES",
    "INT_OPCODES",
    "FP_OPCODES",
    "COLD_DISTANCE",
    "reuse_distances",
]
