"""Tests for instruction-mix and ILP analysis."""

import numpy as np
import pytest

from repro.ir import (
    Instruction,
    InstructionTrace,
    LoopTemplate,
    Opcode,
    TemplateOp,
    TraceBuilder,
)
from repro.profiler import ilp_features, instruction_mix_features
from repro.profiler import ilp as ilp_module


def trace_of(*opcodes):
    instrs = []
    for op in opcodes:
        if op in (Opcode.LOAD, Opcode.STORE, Opcode.ATOMIC):
            instrs.append(Instruction(op, dst=1, addr=64, size=8))
        else:
            instrs.append(Instruction(op, dst=1))
    return InstructionTrace.from_instructions(instrs)


class TestInstructionMix:
    def test_fractions_sum_to_one_over_opcodes(self):
        trace = trace_of(Opcode.LOAD, Opcode.FALU, Opcode.FALU, Opcode.BRANCH)
        feats = instruction_mix_features(trace)
        total = sum(feats[f"opcode.{i}"] for i in range(16))
        assert total == pytest.approx(1.0)

    def test_category_fractions(self):
        trace = trace_of(Opcode.LOAD, Opcode.STORE, Opcode.FMUL, Opcode.FMUL)
        feats = instruction_mix_features(trace)
        assert feats["mix.load"] == pytest.approx(0.25)
        assert feats["mix.store"] == pytest.approx(0.25)
        assert feats["mix.mem_all"] == pytest.approx(0.5)
        assert feats["mix.fp_mul"] == pytest.approx(0.5)
        assert feats["mix.fp_all"] == pytest.approx(0.5)

    def test_empty_trace_is_all_zero(self):
        feats = instruction_mix_features(InstructionTrace.empty())
        assert all(v == 0.0 for v in feats.values())

    def test_atomic_counts_as_memory(self):
        trace = trace_of(Opcode.ATOMIC, Opcode.IALU)
        feats = instruction_mix_features(trace)
        assert feats["mix.mem_all"] == pytest.approx(0.5)
        assert feats["mix.atomic"] == pytest.approx(0.5)


class TestIlp:
    def _emit(self, ops, n=500):
        b = TraceBuilder()
        t = LoopTemplate(ops)
        addrs = {
            slot: np.arange(n, dtype=np.int64) * 64
            for slot in {op.addr for op in t.ops if op.addr}
        }
        t.emit(b, n, addrs)
        return b.finish()

    def test_serial_chain_has_ilp_one(self):
        # Every op reads the register it writes: fully serial.
        trace = self._emit([TemplateOp(Opcode.FALU, dst=1, src1=1)])
        feats = ilp_features(trace)
        assert feats["ilp.total"] == pytest.approx(1.0, rel=0.01)

    def test_independent_ops_have_high_ilp(self):
        # No dependencies at all (no sources): embarrassingly parallel.
        trace = self._emit([TemplateOp(Opcode.FALU, dst=1)])
        feats = ilp_features(trace)
        assert feats["ilp.total"] > 100

    def test_loop_with_accumulator(self):
        # 3 ops per iteration, one serial accumulator -> ILP ~= 3.
        trace = self._emit([
            TemplateOp(Opcode.LOAD, dst=1, addr="x"),
            TemplateOp(Opcode.FMUL, dst=2, src1=1),
            TemplateOp(Opcode.FALU, dst=8, src1=8, src2=2),
        ])
        feats = ilp_features(trace)
        assert feats["ilp.total"] == pytest.approx(3.0, rel=0.05)

    def test_windowed_ilp_not_above_total(self):
        trace = self._emit([
            TemplateOp(Opcode.LOAD, dst=1, addr="x"),
            TemplateOp(Opcode.FALU, dst=8, src1=8, src2=1),
        ])
        feats = ilp_features(trace)
        for w in (8, 16, 32, 64, 128, 256):
            assert feats[f"ilp.window_{w}"] <= feats["ilp.total"] * 1.01

    def test_windowed_ilp_monotone_in_window(self):
        trace = self._emit([
            TemplateOp(Opcode.LOAD, dst=1, addr="x"),
            TemplateOp(Opcode.FMUL, dst=2, src1=1),
            TemplateOp(Opcode.FALU, dst=3, src1=2),
            TemplateOp(Opcode.BRANCH, src1=3),
        ])
        feats = ilp_features(trace)
        values = [feats[f"ilp.window_{w}"] for w in (8, 32, 128)]
        assert values == sorted(values)

    def test_memory_dependence_through_store_load(self):
        # store to X then load from X creates a RAW edge through memory.
        b = TraceBuilder()
        for i in range(200):
            b.load(2, addr=0x1000, pc=0)   # reads last stored value
            b.store(2, addr=0x1000, pc=1)  # stores what was just loaded
        trace = b.finish()
        feats = ilp_features(trace)
        assert feats["ilp.total"] <= 1.2

    def test_fp_chain_tracks_fp_only(self):
        trace = self._emit([
            TemplateOp(Opcode.FALU, dst=8, src1=8),   # serial FP chain
            TemplateOp(Opcode.IALU, dst=2),           # independent int
        ])
        feats = ilp_features(trace)
        assert feats["ilp.fp_chain"] == pytest.approx(1.0, rel=0.05)

    def test_empty_trace(self):
        feats = ilp_features(InstructionTrace.empty())
        assert feats["ilp.total"] == 0.0

    def test_sample_limit_respected(self, monkeypatch):
        trace = self._emit([TemplateOp(Opcode.FALU, dst=1, src1=1)], n=1000)
        monkeypatch.setattr(ilp_module, "ILP_SAMPLE_LIMIT", 100)
        feats = ilp_features(trace)
        assert feats["ilp.total"] == pytest.approx(1.0, rel=0.05)
