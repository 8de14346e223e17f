"""Hypothesis property tests on cross-module invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import NMCSimulator, default_nmc_config
from repro.ir import (
    Instruction,
    InstructionTrace,
    Opcode,
    TraceBuilder,
    validate_trace,
)
from repro.profiler import analyze_trace
from repro.profiler.features import TOTAL_FEATURES

_COMPUTE_OPS = [Opcode.IALU, Opcode.FALU, Opcode.FMUL, Opcode.CMP, Opcode.MOVE]


@st.composite
def random_traces(draw):
    """Small random—but structurally valid—multi-threaded traces."""
    n_threads = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    builder = TraceBuilder()
    for tid in range(n_threads):
        n = draw(st.integers(5, 60))
        for i in range(n):
            kind = rng.integers(0, 4)
            if kind == 0:
                builder.load(
                    dst=int(rng.integers(1, 8)),
                    addr=int(rng.integers(0, 1 << 20)) * 8,
                    pc=i % 7, tid=tid,
                )
            elif kind == 1:
                builder.store(
                    src=int(rng.integers(1, 8)),
                    addr=int(rng.integers(0, 1 << 20)) * 8,
                    pc=i % 7, tid=tid,
                )
            else:
                op = _COMPUTE_OPS[int(rng.integers(0, len(_COMPUTE_OPS)))]
                builder.emit(
                    op, dst=int(rng.integers(1, 8)),
                    src1=int(rng.integers(1, 8)), pc=i % 7, tid=tid,
                )
    return builder.finish()


class TestSimulatorInvariants:
    @settings(max_examples=25, deadline=None)
    @given(random_traces())
    def test_basic_invariants(self, trace):
        validate_trace(trace)
        result = NMCSimulator().run(trace)
        cfg = default_nmc_config()
        # Aggregate IPC cannot exceed one per active PE (single issue).
        assert result.ipc <= result.n_pes_used + 1e-9
        # The makespan is at least the longest thread's instruction count.
        longest = max(
            len(trace.for_thread(t)) for t in np.unique(trace.tid)
        )
        assert result.cycles >= longest
        # Energy components are non-negative and total consistently.
        e = result.energy
        assert all(
            v >= 0 for v in (e.core_dynamic_j, e.cache_j, e.dram_dynamic_j,
                             e.link_j, e.static_j)
        )
        assert result.energy_j == pytest.approx(
            e.core_dynamic_j + e.cache_j + e.dram_dynamic_j + e.link_j
            + e.static_j
        )
        # Cache bookkeeping covers every memory access.
        assert result.cache.accesses == trace.memory_op_count
        # DRAM traffic = misses + dirty evictions + end-of-kernel flushes
        # (at most every resident line of every active PE's L1 is dirty).
        max_flushes = cfg.l1_lines * result.n_pes_used
        assert result.dram.accesses <= (
            result.cache.misses + result.cache.writebacks + max_flushes
        )
        assert result.dram.accesses >= result.cache.misses

    @settings(max_examples=10, deadline=None)
    @given(random_traces())
    def test_profile_invariants(self, trace):
        profile = analyze_trace(trace)
        assert profile.values.shape == (TOTAL_FEATURES,)
        assert np.isfinite(profile.values).all()
        # Re-analysis is bit-identical (pure function of the trace).
        again = analyze_trace(trace)
        assert np.array_equal(profile.values, again.values)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(1, 2**31 - 1))
    def test_frequency_scaling_compute_bound(self, seed):
        """For a compute-only trace, time scales inversely with frequency."""
        trace = InstructionTrace.from_instructions(
            [Instruction(Opcode.IALU, dst=1)] * 200
        )
        base = default_nmc_config()
        double = base.replace(frequency_ghz=base.frequency_ghz * 2)
        t1 = NMCSimulator(base).run(trace).time_s
        t2 = NMCSimulator(double).run(trace).time_s
        assert t2 == pytest.approx(t1 / 2, rel=0.05)


class TestDerivedFeatureInvariants:
    @settings(max_examples=10, deadline=None)
    @given(random_traces())
    def test_prior_features_finite_and_positive(self, trace):
        from repro.core.dataset import derived_features

        profile = analyze_trace(trace)
        values = derived_features(profile, default_nmc_config())
        assert all(np.isfinite(v) for v in values)
        cpi_exec, miss, stall, ipc_est, log_epi, bpi = values
        assert cpi_exec >= 1.0 - 1e-9   # every instr takes >= 1 cycle
        assert 0 <= miss <= 1.0
        assert stall >= 0
        assert 0 < ipc_est <= default_nmc_config().issue_width
        assert bpi >= 0
