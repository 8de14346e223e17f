"""Tests for the NMC simulator and energy model."""

import numpy as np
import pytest

from repro.config import default_nmc_config
from repro.errors import ConfigError, SimulationError
from repro.ir import (
    Instruction,
    InstructionTrace,
    LoopTemplate,
    Opcode,
    TemplateOp,
    TraceBuilder,
)
from repro.nmcsim import NMCSimulator, compute_energy
from repro.nmcsim.energy import EnergyBreakdown
from _helpers import build_stream_trace


class TestSimulatorBasics:
    def test_empty_trace_rejected(self):
        with pytest.raises(SimulationError):
            NMCSimulator().run(InstructionTrace.empty())

    @pytest.mark.parametrize(
        "line_bytes, ok",
        [(0, False), (-64, False), (48, False), (1, True), (64, True)],
    )
    def test_line_bytes_must_be_a_positive_power_of_two(self, line_bytes, ok):
        if ok:
            cfg = default_nmc_config().replace(line_bytes=line_bytes)
            assert NMCSimulator(cfg).config.line_bytes == line_bytes
        else:
            with pytest.raises(ConfigError, match="line_bytes"):
                default_nmc_config().replace(line_bytes=line_bytes)

    def test_compute_only_trace_ipc_one(self):
        # Single-issue, 1-cycle IALUs on one PE: IPC == 1.
        trace = InstructionTrace.from_instructions(
            [Instruction(Opcode.IALU, dst=1)] * 100
        )
        result = NMCSimulator().run(trace)
        assert result.ipc == pytest.approx(1.0, rel=0.02)
        assert result.cycles == pytest.approx(100, abs=2)

    def test_fdiv_heavy_trace_is_slower(self):
        fast = InstructionTrace.from_instructions(
            [Instruction(Opcode.IALU, dst=1)] * 100
        )
        slow = InstructionTrace.from_instructions(
            [Instruction(Opcode.FDIV, dst=1)] * 100
        )
        sim = NMCSimulator()
        assert sim.run(slow).time_s > sim.run(fast).time_s

    def test_misses_stall_the_pe(self, random_trace, stream_trace):
        irregular = NMCSimulator().run(random_trace)
        regular = NMCSimulator().run(
            build_stream_trace(len(random_trace) // 3)
        )
        assert irregular.cache.miss_ratio > regular.cache.miss_ratio

    def test_result_consistency(self, stream_trace):
        result = NMCSimulator().run(
            stream_trace, workload="s", parameters={"n": 1}
        )
        assert result.instructions == len(stream_trace)
        assert result.ipc == pytest.approx(
            result.instructions / result.cycles
        )
        assert result.time_s > 0
        assert result.workload == "s"
        assert result.parameters == {"n": 1}
        assert result.edp == pytest.approx(result.energy_j * result.time_s)

    def test_deterministic(self, stream_trace):
        a = NMCSimulator().run(stream_trace)
        b = NMCSimulator().run(stream_trace)
        assert a.cycles == b.cycles
        assert a.energy_j == b.energy_j

    def test_cache_accesses_equal_memory_ops(self, stream_trace):
        result = NMCSimulator().run(stream_trace)
        assert result.cache.accesses == stream_trace.memory_op_count


class TestMultiPE:
    def _threaded_trace(self, threads, n_per_thread=500):
        builder = TraceBuilder()
        template = LoopTemplate([
            TemplateOp(Opcode.LOAD, dst=1, addr="x"),
            TemplateOp(Opcode.FALU, dst=2, src1=1),
        ])
        for tid in range(threads):
            base = 0x100000 + tid * (1 << 20)
            addrs = base + np.arange(n_per_thread, dtype=np.int64) * 8
            template.emit(builder, n_per_thread, {"x": addrs}, tid=tid)
        return builder.finish()

    def test_parallel_speedup(self):
        t1 = NMCSimulator().run(self._threaded_trace(1, 2000))
        t8 = NMCSimulator().run(self._threaded_trace(8, 250))
        # Same total work, 8 PEs: substantially faster.
        assert t8.time_s < t1.time_s / 3

    def test_aggregate_ipc_scales_with_pes(self):
        r1 = NMCSimulator().run(self._threaded_trace(1, 1000))
        r8 = NMCSimulator().run(self._threaded_trace(8, 1000))
        assert r8.ipc > 3 * r1.ipc

    def test_threads_beyond_pes_time_multiplex(self):
        cfg = default_nmc_config().replace(n_pes=4)
        result = NMCSimulator(cfg).run(self._threaded_trace(8, 200))
        assert result.n_pes_used == 4

    def test_n_pes_used_reported(self):
        result = NMCSimulator().run(self._threaded_trace(6, 100))
        assert result.n_pes_used == 6


class TestArchitectureSensitivity:
    def test_higher_frequency_is_faster(self, stream_trace):
        base = default_nmc_config()
        fast = base.replace(frequency_ghz=2.5)
        t_base = NMCSimulator(base).run(stream_trace).time_s
        t_fast = NMCSimulator(fast).run(stream_trace).time_s
        assert t_fast < t_base

    def test_bigger_l1_reduces_misses(self, random_trace):
        base = default_nmc_config()
        big = base.replace(l1_lines=1024, l1_ways=8)
        m_base = NMCSimulator(base).run(random_trace).cache.miss_ratio
        m_big = NMCSimulator(big).run(random_trace).cache.miss_ratio
        assert m_big <= m_base

    def test_bigger_l1_helps_reuse_heavy_trace(self):
        # Repeatedly sweep a 4 KiB array: 64 lines >> 2-line L1.
        builder = TraceBuilder()
        template = LoopTemplate([TemplateOp(Opcode.LOAD, dst=1, addr="x")])
        addrs = np.tile(np.arange(64, dtype=np.int64) * 64, 30)
        template.emit(builder, len(addrs), {"x": addrs})
        trace = builder.finish()
        base = default_nmc_config()
        big = base.replace(l1_lines=128, l1_ways=4)
        t_small = NMCSimulator(base).run(trace).time_s
        t_big = NMCSimulator(big).run(trace).time_s
        assert t_big < t_small / 2


class TestEnergy:
    def test_breakdown_total(self):
        b = EnergyBreakdown(1.0, 2.0, 3.0, 4.0, 5.0)
        assert b.total_j == 15.0
        assert b.as_dict()["total_j"] == 15.0

    def test_compute_energy_components(self):
        cfg = default_nmc_config()
        energy = compute_energy(
            cfg,
            {Opcode.FMUL: 1000},
            l1_accesses=500,
            dram_accesses=100,
            exec_time_s=1e-6,
            offload_bytes=1024,
        )
        e = cfg.energy
        assert energy.core_dynamic_j == pytest.approx(1000 * e.fp_mul_pj * 1e-12)
        assert energy.cache_j == pytest.approx(500 * e.l1_access_pj * 1e-12)
        assert energy.link_j == pytest.approx(1024 * 8 * e.link_pj_per_bit * 1e-12)
        static_w = cfg.n_pes * e.pe_static_w + e.dram_static_w
        assert energy.static_j == pytest.approx(static_w * 1e-6)

    def test_dram_heavy_trace_spends_more_dram_energy(
        self, random_trace, stream_trace
    ):
        irregular = NMCSimulator().run(random_trace)
        regular = NMCSimulator().run(stream_trace)
        irr_frac = irregular.energy.dram_dynamic_j / irregular.energy_j
        reg_frac = regular.energy.dram_dynamic_j / regular.energy_j
        assert irr_frac > reg_frac

    def test_result_json_roundtrip(self, stream_trace):
        from repro.nmcsim import SimulationResult

        result = NMCSimulator().run(
            stream_trace, workload="w", parameters={"d": 2}
        )
        restored = SimulationResult.from_json_dict(result.to_json_dict())
        assert restored.ipc == pytest.approx(result.ipc)
        assert restored.energy_j == pytest.approx(result.energy_j)
        assert restored.cache.misses == result.cache.misses
        assert restored.parameters == {"d": 2.0}


class TestFlushAccounting:
    """End-of-kernel dirty-line flushes must be counted exactly once."""

    def _store_sweep_trace(self, n, line_bytes):
        template = LoopTemplate([
            TemplateOp(Opcode.STORE, src1=1, addr="a"),
            TemplateOp(Opcode.IALU, dst=1, src1=1),
        ])
        builder = TraceBuilder()
        addrs = 0x100000 + np.arange(n, dtype=np.int64) * line_bytes
        template.emit(builder, n, {"a": addrs}, tid=0, pc_base=0)
        return builder.finish()

    def test_store_heavy_writebacks_include_flush(self):
        cfg = default_nmc_config()  # tiny 2-line L1, single set
        n = 64
        result = NMCSimulator(cfg).run(
            self._store_sweep_trace(n, cfg.line_bytes)
        )
        # Every distinct stored line returns to DRAM exactly once:
        # n - l1_lines dirty evictions during the sweep, plus the
        # l1_lines still-resident dirty lines flushed at kernel end.
        assert result.cache.writebacks == n
        assert result.cache.flushes == cfg.l1_lines
        # The DRAM write traffic (fills for the write-allocate misses +
        # writebacks + flushes) accounts for the flushed lines too.
        assert result.dram.writes == 2 * n

    def test_flush_counters_survive_json_roundtrip(self):
        from repro.nmcsim import SimulationResult

        cfg = default_nmc_config()
        result = NMCSimulator(cfg).run(
            self._store_sweep_trace(16, cfg.line_bytes)
        )
        restored = SimulationResult.from_json_dict(result.to_json_dict())
        assert restored.cache.flushes == result.cache.flushes > 0
        assert restored.cache.writebacks == result.cache.writebacks

    def test_old_cache_entries_without_flushes_still_load(self):
        from repro.nmcsim import SimulationResult

        cfg = default_nmc_config()
        result = NMCSimulator(cfg).run(
            self._store_sweep_trace(8, cfg.line_bytes)
        )
        data = result.to_json_dict()
        del data["cache"]["flushes"]  # pre-flush-accounting cache file
        restored = SimulationResult.from_json_dict(data)
        assert restored.cache.flushes == 0
        assert restored.cache.writebacks == result.cache.writebacks
