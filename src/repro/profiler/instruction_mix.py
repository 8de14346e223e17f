"""Instruction-mix features (paper Table 1, "Instruction Mix").

Fractions of instruction categories plus per-opcode fractions.  All values
are in [0, 1] and hardware-independent.
"""

from __future__ import annotations

from ..ir import InstructionTrace, Opcode
from .features import MIX_CATEGORIES, N_OPCODES

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


def instruction_mix_features(trace: InstructionTrace) -> dict[str, float]:
    """Category fractions and per-opcode fractions of the trace.

    Returns a dict with keys ``mix.<category>`` and ``opcode.<value>``.
    An empty trace yields all-zero fractions.
    """
    n = len(trace)
    counts = trace.opcode_counts()

    out: dict[str, float] = {}
    for category in MIX_CATEGORIES:
        opcodes = _CATEGORY_OPCODES[category]
        total = sum(counts.get(op, 0) for op in opcodes)
        out[f"mix.{category}"] = total / n if n else 0.0
    for code in range(N_OPCODES):
        out[f"opcode.{code}"] = counts.get(Opcode(code), 0) / n if n else 0.0
    return out
