"""Tests for the packed trace container (repro.ir.trace)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TraceError
from repro.ir import Instruction, InstructionTrace, Opcode, TraceColumns
from repro.ir.trace import _TABLE_SPAN, TRACE_COLUMNS, dense_ids


def make_trace(n=10, tid=0):
    instrs = [
        Instruction(Opcode.LOAD, dst=1, addr=64 * i, size=8, pc=i % 3, tid=tid)
        for i in range(n)
    ]
    return InstructionTrace.from_instructions(instrs)


class TestConstruction:
    def test_from_instructions_roundtrip(self):
        ins = Instruction(Opcode.FMUL, dst=2, src1=1, src2=3, pc=7, tid=4)
        trace = InstructionTrace.from_instructions([ins])
        assert trace[0] == ins

    def test_empty(self):
        trace = InstructionTrace.empty()
        assert len(trace) == 0
        assert trace.memory_op_count == 0
        assert trace.thread_count == 0

    def test_unequal_columns_rejected(self):
        cols = {
            name: np.zeros(3, dtype=dt)
            for name, dt in (
                ("opcode", np.uint8), ("dst", np.int32), ("src1", np.int32),
                ("src2", np.int32), ("addr", np.uint64), ("size", np.uint16),
                ("pc", np.uint32),
            )
        }
        cols["tid"] = np.zeros(4, dtype=np.uint16)
        with pytest.raises(TraceError, match="unequal"):
            InstructionTrace(**cols)

    def test_missing_column_rejected(self):
        with pytest.raises(TraceError, match="mismatch"):
            InstructionTrace(opcode=np.zeros(1, dtype=np.uint8))

    def test_immutability(self):
        trace = make_trace()
        with pytest.raises(AttributeError):
            trace.opcode = np.zeros(1, dtype=np.uint8)
        with pytest.raises(ValueError):
            trace.opcode[0] = 3


class TestViews:
    def test_len_and_iter(self):
        trace = make_trace(5)
        assert len(trace) == 5
        assert len(list(trace)) == 5

    def test_slicing_returns_trace(self):
        trace = make_trace(10)
        part = trace[2:5]
        assert isinstance(part, InstructionTrace)
        assert len(part) == 3
        assert part[0].addr == 64 * 2

    def test_memory_mask(self, stream_trace):
        mask = stream_trace.memory_mask
        # The stream template has 2 memory ops out of 6.
        assert mask.sum() == len(stream_trace) // 3

    def test_for_thread(self):
        t0 = make_trace(4, tid=0)
        t1 = make_trace(6, tid=1)
        both = InstructionTrace.from_instructions(list(t0) + list(t1))
        assert both.thread_count == 2
        assert len(both.for_thread(1)) == 6
        assert len(both.for_thread(0)) == 4

    def test_opcode_counts(self, stream_trace):
        counts = stream_trace.opcode_counts()
        n_iter = len(stream_trace) // 6
        assert counts[Opcode.LOAD] == n_iter
        assert counts[Opcode.STORE] == n_iter
        assert counts[Opcode.BRANCH] == n_iter

    def test_memory_accesses_order_and_type(self):
        trace = InstructionTrace.from_instructions([
            Instruction(Opcode.LOAD, dst=1, addr=0, size=8),
            Instruction(Opcode.IALU, dst=2, src1=1),
            Instruction(Opcode.STORE, src1=2, addr=64, size=8),
            Instruction(Opcode.ATOMIC, dst=3, addr=128, size=8),
        ])
        addrs, sizes, is_write = trace.memory_accesses()
        assert addrs.tolist() == [0, 64, 128]
        assert sizes.tolist() == [8, 8, 8]
        assert is_write.tolist() == [False, True, True]


class TestFootprintLines:
    """footprint_lines is len(np.unique(...)) of the accessed lines."""

    @settings(max_examples=200, deadline=None)
    @given(
        accesses=st.lists(st.tuples(
            st.sampled_from(
                [Opcode.LOAD, Opcode.STORE, Opcode.ATOMIC, Opcode.IALU]
            ),
            st.one_of(st.integers(0, 4096), st.integers(0, 2**64 - 1)),
        ), max_size=60),
        shift=st.integers(0, 12),
    )
    def test_matches_np_unique(self, accesses, shift):
        trace = InstructionTrace.from_instructions([
            Instruction(op, addr=addr, size=0 if op == Opcode.IALU else 8)
            for op, addr in accesses
        ])
        want = len(np.unique(trace.addr[trace.memory_mask] >> np.uint64(shift)))
        assert trace.footprint_lines(shift) == want
        # The profiler's line table memoises the same count at its line size.
        fresh = InstructionTrace(
            **{name: getattr(trace, name) for name in TRACE_COLUMNS}
        )
        _ = TraceColumns(fresh).lines
        assert fresh._memo[("footprint_lines", 6)] == trace.footprint_lines(6)


class TestConcat:
    def test_repr(self):
        assert "n=10" in repr(make_trace(10))


#: Column kinds for dense_ids: dtype and the lowest values drawn
#: (registers from NO_REG, pcs, cache-line ids at and above 2**63).
DENSE_COLUMNS = {
    "registers": (np.int32, (-1, 0, 2**31 - 10**6)),
    "pcs": (np.uint32, (0, 4096, 2**32 - 10**6)),
    "lines": (np.uint64, (0, 2**63, 2**64 - 10**6)),
}


@st.composite
def dense_columns(draw):
    """A column whose value range sits on either side of the table /
    sort switch (``_TABLE_SPAN * n`` vs one more), or is far wider."""
    dtype, lows = DENSE_COLUMNS[draw(st.sampled_from(sorted(DENSE_COLUMNS)))]
    low = draw(st.sampled_from(lows))
    n = draw(st.integers(0, 60))
    table = max(1, _TABLE_SPAN * n)
    span = draw(st.sampled_from([1, 2, table, table + 1, 10**6]))
    offsets = draw(st.lists(st.integers(0, span - 1), min_size=n, max_size=n))
    if n >= 2:  # pin the range: both ends present, at drawn positions
        i, j = draw(st.permutations(range(n)))[:2]
        offsets[i], offsets[j] = 0, span - 1
    return np.array([low + o for o in offsets], dtype=dtype)


class TestDenseIds:
    """dense_ids is np.unique(return_index=True, return_inverse=True)."""

    @settings(max_examples=300, deadline=None)
    @given(values=dense_columns())
    def test_matches_np_unique(self, values):
        got = dense_ids(values)
        want = np.unique(values, return_index=True, return_inverse=True)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype
            np.testing.assert_array_equal(g, w)

    @pytest.mark.parametrize("extra, sorts", [(0, False), (1, True)])
    def test_branch_follows_value_range(self, monkeypatch, extra, sorts):
        n = 10
        values = np.arange(n, dtype=np.uint32) * 3
        values[-1] = _TABLE_SPAN * n - 1 + extra  # range = table size + extra
        calls = []
        real = np.unique
        monkeypatch.setattr(
            np, "unique", lambda *a, **k: calls.append(1) or real(*a, **k)
        )
        got = dense_ids(values)
        monkeypatch.undo()
        assert bool(calls) == sorts
        want = np.unique(values, return_index=True, return_inverse=True)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)
