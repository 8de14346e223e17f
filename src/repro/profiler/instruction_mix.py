"""Instruction-mix features (paper Table 1, "Instruction Mix").

Fractions of instruction categories plus per-opcode fractions.  All values
are in [0, 1] and hardware-independent.
"""

from __future__ import annotations

import numpy as np

from ..ir import InstructionTrace, Opcode, TraceColumns, columns_of
from .features import MIX_CATEGORIES, N_OPCODES, block_view, group_span

#: Mapping of the scalar mix categories to the opcodes they cover.
_CATEGORY_OPCODES: dict[str, tuple[Opcode, ...]] = {
    "int_alu": (Opcode.IALU,),
    "int_mul": (Opcode.IMUL,),
    "int_div": (Opcode.IDIV,),
    "fp_alu": (Opcode.FALU,),
    "fp_mul": (Opcode.FMUL,),
    "fp_div": (Opcode.FDIV,),
    "fma": (Opcode.FMA,),
    "load": (Opcode.LOAD,),
    "store": (Opcode.STORE,),
    "atomic": (Opcode.ATOMIC,),
    "branch": (Opcode.BRANCH,),
    "cmp": (Opcode.CMP,),
    "move": (Opcode.MOVE,),
    "call_ret": (Opcode.CALL, Opcode.RET),
    "nop": (Opcode.NOP,),
    "int_all": (Opcode.IALU, Opcode.IMUL, Opcode.IDIV, Opcode.CMP),
    "fp_all": (Opcode.FALU, Opcode.FMUL, Opcode.FDIV, Opcode.FMA),
    "mem_all": (Opcode.LOAD, Opcode.STORE, Opcode.ATOMIC),
    "control_all": (Opcode.BRANCH, Opcode.CALL, Opcode.RET),
}


#: The block's rows over the opcode counts: each category's opcodes,
#: then one row per opcode.
_MIX = np.zeros((len(MIX_CATEGORIES) + N_OPCODES, N_OPCODES), dtype=np.int64)
for _row, _category in enumerate(MIX_CATEGORIES):
    _MIX[_row, [int(op) for op in _CATEGORY_OPCODES[_category]]] = 1
_MIX[len(MIX_CATEGORIES):] = np.eye(N_OPCODES, dtype=np.int64)

#: The ``mix`` and ``opcode_mix`` groups of a profile vector.
MIX_SLICE = group_span("mix", "opcode_mix")


def write_mix(out: np.ndarray, cols: TraceColumns) -> None:
    """Write the category and per-opcode fractions into ``out``."""
    n = len(cols.trace)
    if n:
        out[MIX_SLICE] = _MIX @ cols.tallies.opcodes / n
    else:
        out[MIX_SLICE] = 0.0


def instruction_mix_features(
    trace: InstructionTrace | TraceColumns,
) -> dict[str, float]:
    """Category fractions and per-opcode fractions of the trace.

    Returns a dict with keys ``mix.<category>`` and ``opcode.<value>``.
    An empty trace yields all-zero fractions.
    """
    return block_view(MIX_SLICE, write_mix, columns_of(trace))
