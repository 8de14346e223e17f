"""Instruction taxonomy of the trace IR.

The opcode set is deliberately small: it is the classification PISA-style
microarchitecture-independent analysis needs (paper Table 1 — instruction
mix, register traffic) and the granularity at which the in-order PE model
assigns execution latencies.
"""

from __future__ import annotations

from enum import IntEnum
from typing import NamedTuple

#: Sentinel register id meaning "no operand".
NO_REG: int = -1


class Opcode(IntEnum):
    """Dynamic instruction classes.

    The integer values are stable and compact so traces can store opcodes in
    a ``uint8`` numpy column.
    """

    IALU = 0     #: integer add/sub/logic/shift
    IMUL = 1     #: integer multiply
    IDIV = 2     #: integer divide / modulo
    FALU = 3     #: floating-point add/sub
    FMUL = 4     #: floating-point multiply
    FDIV = 5     #: floating-point divide / sqrt
    LOAD = 6     #: memory read
    STORE = 7    #: memory write
    BRANCH = 8   #: conditional/unconditional branch
    CMP = 9      #: integer/FP compare producing a flag/register
    MOVE = 10    #: register move / immediate load
    CALL = 11    #: function call
    RET = 12     #: function return
    ATOMIC = 13  #: atomic read-modify-write (synchronisation)
    FMA = 14     #: fused multiply-add
    NOP = 15     #: no-op / other

    @property
    def is_memory(self) -> bool:
        return self in MEMORY_OPCODES

    @property
    def is_write(self) -> bool:
        return self in (Opcode.STORE, Opcode.ATOMIC)

    @property
    def is_control(self) -> bool:
        return self in CONTROL_OPCODES


#: Opcodes that access memory.
MEMORY_OPCODES = frozenset({Opcode.LOAD, Opcode.STORE, Opcode.ATOMIC})

#: Opcodes that redirect control flow.
CONTROL_OPCODES = frozenset({Opcode.BRANCH, Opcode.CALL, Opcode.RET})

#: Floating-point compute opcodes.
FP_OPCODES = frozenset({Opcode.FALU, Opcode.FMUL, Opcode.FDIV, Opcode.FMA})

#: Integer compute opcodes.
INT_OPCODES = frozenset({Opcode.IALU, Opcode.IMUL, Opcode.IDIV, Opcode.CMP})

#: Default execution latency (cycles) of each opcode on the in-order PE.
#: Memory opcodes list only the *execute* stage; the cache/DRAM latency is
#: added by the memory subsystem model.
OPCODE_LATENCY: dict[Opcode, int] = {
    Opcode.IALU: 1,
    Opcode.IMUL: 3,
    Opcode.IDIV: 18,
    Opcode.FALU: 3,
    Opcode.FMUL: 4,
    Opcode.FDIV: 22,
    Opcode.LOAD: 1,
    Opcode.STORE: 1,
    Opcode.BRANCH: 1,
    Opcode.CMP: 1,
    Opcode.MOVE: 1,
    Opcode.CALL: 2,
    Opcode.RET: 2,
    Opcode.ATOMIC: 4,
    Opcode.FMA: 4,
    Opcode.NOP: 1,
}


class Instruction(NamedTuple):
    """A single decoded trace instruction.

    ``dst``/``src1``/``src2`` are virtual register ids (``NO_REG`` if
    absent).  ``addr``/``size`` are only meaningful for memory opcodes.
    ``pc`` is the static program counter of the emitting IR statement, used
    for instruction-reuse-distance analysis.  ``tid`` is the software thread
    that executed the instruction.
    """

    opcode: Opcode
    dst: int = NO_REG
    src1: int = NO_REG
    src2: int = NO_REG
    addr: int = 0
    size: int = 0
    pc: int = 0
    tid: int = 0

    @property
    def is_memory(self) -> bool:
        return self.opcode.is_memory
