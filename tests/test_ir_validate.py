"""Tests for trace validation (repro.ir.validate)."""

import numpy as np
import pytest

from repro.errors import TraceError
from repro.ir import Instruction, InstructionTrace, Opcode, validate_trace
from repro.ir.trace import TRACE_COLUMNS
from repro.nmcsim import NMCSimulator
from repro.profiler import analyze_trace


def raw_trace(**overrides):
    n = 2
    cols = {}
    for name, dtype in TRACE_COLUMNS.items():
        if name in ("dst", "src1", "src2"):
            cols[name] = np.full(n, -1, dtype=dtype)
        else:
            cols[name] = np.zeros(n, dtype=dtype)
    cols["opcode"][:] = int(Opcode.IALU)
    cols.update(overrides)
    return InstructionTrace(**cols)


class TestValidateTrace:
    def test_empty_trace_ok(self):
        validate_trace(InstructionTrace.empty())

    def test_valid_trace_ok(self):
        trace = InstructionTrace.from_instructions([
            Instruction(Opcode.LOAD, dst=1, addr=64, size=8),
            Instruction(Opcode.FALU, dst=2, src1=1),
        ])
        validate_trace(trace)

    def test_unknown_opcode(self):
        bad = raw_trace(opcode=np.array([200, 0], dtype=np.uint8))
        with pytest.raises(TraceError, match="unknown opcode"):
            validate_trace(bad)

    def test_memory_without_size(self):
        bad = raw_trace(
            opcode=np.array([int(Opcode.LOAD), int(Opcode.IALU)], dtype=np.uint8)
        )
        with pytest.raises(TraceError, match="non-positive size"):
            validate_trace(bad)

    def test_non_memory_with_size(self):
        bad = raw_trace(size=np.array([8, 0], dtype=np.uint16))
        with pytest.raises(TraceError, match="access size"):
            validate_trace(bad)

    def test_non_memory_with_address(self):
        bad = raw_trace(addr=np.array([64, 0], dtype=np.uint64))
        with pytest.raises(TraceError, match="carries an address"):
            validate_trace(bad)

    def test_register_above_limit(self):
        bad = raw_trace(dst=np.array([1 << 21, -1], dtype=np.int32))
        with pytest.raises(TraceError, match="max_register"):
            validate_trace(bad)

    def test_address_wraparound(self):
        top = np.iinfo(np.uint64).max
        bad = raw_trace(
            opcode=np.array([int(Opcode.LOAD)] * 2, dtype=np.uint8),
            addr=np.array([top - 2, 64], dtype=np.uint64),
            size=np.array([8, 8], dtype=np.uint16),
        )
        with pytest.raises(TraceError, match="wraps"):
            validate_trace(bad)

    def test_workload_traces_validate(self, atax):
        trace = atax.generate(atax.central_config(), scale=4.0)
        validate_trace(trace)


class TestUnknownOpcodesFailLoud:
    """An opcode byte past ``Opcode.NOP`` is rejected before any
    opcode-indexed table (latencies, the digest kernel) reads it."""

    @pytest.mark.parametrize("value", [16, 255])
    @pytest.mark.parametrize("run", ["fast", "reference", "profile"])
    def test_rejected(self, kernel_form, run, value):
        bad = raw_trace(
            opcode=np.array([int(Opcode.IALU), value], dtype=np.uint8)
        )
        with pytest.raises(TraceError, match=f"unknown opcode value {value}$"):
            if run == "profile":
                analyze_trace(bad)
            else:
                NMCSimulator(engine=run).run(bad)
