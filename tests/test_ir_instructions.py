"""Tests for the opcode taxonomy (repro.ir.instructions)."""


from repro.ir import (
    CONTROL_OPCODES,
    FP_OPCODES,
    INT_OPCODES,
    MEMORY_OPCODES,
    NO_REG,
    OPCODE_LATENCY,
    Instruction,
    Opcode,
)


class TestOpcode:
    def test_values_fit_uint8(self):
        assert all(0 <= int(op) < 256 for op in Opcode)

    def test_values_are_unique(self):
        assert len({int(op) for op in Opcode}) == len(list(Opcode))

    def test_memory_classification(self):
        assert Opcode.LOAD.is_memory
        assert Opcode.STORE.is_memory
        assert Opcode.ATOMIC.is_memory
        assert not Opcode.IALU.is_memory
        assert not Opcode.BRANCH.is_memory

    def test_read_write_classification(self):
        assert not Opcode.LOAD.is_write
        assert Opcode.STORE.is_write
        # Atomics both read and write.
        assert Opcode.ATOMIC.is_write

    def test_control_classification(self):
        for op in (Opcode.BRANCH, Opcode.CALL, Opcode.RET):
            assert op.is_control
        assert not Opcode.LOAD.is_control

    def test_float_int_disjoint(self):
        assert not (FP_OPCODES & INT_OPCODES)

    def test_category_sets_consistent_with_properties(self):
        for op in Opcode:
            assert op.is_memory == (op in MEMORY_OPCODES)
            assert op.is_control == (op in CONTROL_OPCODES)

    def test_every_opcode_has_a_latency(self):
        for op in Opcode:
            assert OPCODE_LATENCY[op] >= 1

    def test_divides_are_slowest(self):
        assert OPCODE_LATENCY[Opcode.FDIV] > OPCODE_LATENCY[Opcode.FMUL]
        assert OPCODE_LATENCY[Opcode.IDIV] > OPCODE_LATENCY[Opcode.IMUL]


class TestInstruction:
    def test_defaults(self):
        ins = Instruction(Opcode.NOP)
        assert ins.dst == NO_REG
        assert ins.addr == 0 and ins.size == 0
        assert not ins.is_memory

    def test_memory_property(self):
        assert Instruction(Opcode.LOAD, dst=1, addr=64, size=8).is_memory
